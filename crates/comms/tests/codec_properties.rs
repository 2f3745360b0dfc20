//! Property tests over the wire codec: round-trips are exact (bit-level,
//! including NaN and -0.0) and malformed bytes always surface as typed
//! errors, never panics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pipemare_comms::codec::{
    deframe, frame, ChunkEncoder, Reader, SparseMode, TensorPayload, Writer, MAX_FRAME,
};
use pipemare_comms::protocol::{
    decode_message, decode_shard_into, encode_message, Message, PassKind, RejectReason, ShardHead,
    StageConfig, PROTOCOL_VERSION,
};
use pipemare_comms::CodecError;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[allow(clippy::type_complexity)]
fn payload_bits(
    p: &TensorPayload,
) -> (Option<Vec<u32>>, Option<(u32, Vec<u32>, Vec<u32>)>, Option<Vec<u16>>) {
    match p {
        TensorPayload::Dense(v) => (Some(bits(v)), None, None),
        TensorPayload::Sparse { len, idx, val } => {
            (None, Some((*len, idx.clone(), bits(val))), None)
        }
        TensorPayload::DenseBf16(h) => (None, None, Some(h.clone())),
    }
}

fn encode_payload(p: &TensorPayload) -> Vec<u8> {
    let mut w = pipemare_comms::codec::Writer::new();
    p.encode(&mut w);
    w.into_bytes()
}

fn decode_payload(b: &[u8]) -> Result<TensorPayload, CodecError> {
    let mut r = Reader::new(b);
    let p = TensorPayload::decode(&mut r)?;
    r.finish()?;
    Ok(p)
}

/// f32 values weighted toward the patterns a lossy copy would disturb:
/// NaNs with arbitrary payloads, both zeros, subnormals, infinities.
fn tricky_f32s(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let any = rng.gen_range(0..=u32::MAX);
            f32::from_bits(match rng.gen_range(0..6u8) {
                0 => 0x7F80_0000 | (any & 0x807F_FFFF) | 1, // NaN, any sign and payload
                1 => any & 0x8000_0000,                     // +0.0 or -0.0
                2 => any & 0x807F_FFFF,                     // subnormal (or a zero)
                3 => 0x7F80_0000 | (any & 0x8000_0000),     // ±inf
                _ => any,
            })
        })
        .collect()
}

/// Builds one message of each wire variant with rng-driven field values
/// (finite floats so `PartialEq` is usable for the comparison; bit-level
/// float fidelity is covered by the payload round-trip property).
fn arbitrary_message(variant: u8, rng: &mut StdRng) -> Message {
    let payload = || TensorPayload::Dense(vec![1.25, -3.5]);
    let pass = match variant % 4 {
        0 => PassKind::Fwd,
        1 => PassKind::Bkwd,
        2 => PassKind::Recomp,
        _ => PassKind::Latest,
    };
    match variant % 22 {
        0 => Message::Hello(StageConfig {
            protocol: PROTOCOL_VERSION,
            stage: rng.gen_range(0..8u32),
            stages: rng.gen_range(1..16u32),
            n_micro: rng.gen_range(1..64u32),
            method: pipemare_pipeline::Method::PipeMare,
            param_len: rng.gen_range(0..1u64 << 40),
            shard_lo: rng.gen_range(0..1000u64),
            shard_hi: rng.gen_range(1000..2000u64),
            opt: pipemare_optim::OptimizerKind::AdamW {
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                weight_decay: rng.gen_range(0.0..0.1f32),
            },
            t2_decay: if rng.gen_bool(0.5) { Some(rng.gen_range(0.0..1.0)) } else { None },
            gamma: rng.gen_range(0.0..1.0),
            recomp_slots: if rng.gen_bool(0.5) { Some(rng.gen_range(0..64u32)) } else { None },
            recomp_t2: rng.gen_bool(0.5),
            warmup_steps: rng.gen_range(0..1u64 << 32),
            weight_storage: if rng.gen_bool(0.5) {
                pipemare_tensor::StoragePrecision::Bf16
            } else {
                pipemare_tensor::StoragePrecision::F32
            },
        }),
        1 => Message::HelloAck {
            protocol: rng.gen_range(0..u16::MAX as u32) as u16,
            stage: rng.gen_range(0..32u32),
            clock_us: rng.gen_range(0..u64::MAX / 2),
        },
        2 => Message::InitShard { params: vec![rng.gen_range(-1.0..1.0f32); 5] },
        3 => Message::FetchShard {
            step: rng.gen_range(0..1u64 << 48),
            micro: rng.gen_range(0..256u32),
            pass,
        },
        4 => Message::Shard {
            step: rng.gen_range(0..1u64 << 48),
            micro: rng.gen_range(0..256u32),
            pass,
            stage: rng.gen_range(0..32u32),
            trace: rng.gen_range(0..u64::MAX),
            data: payload(),
        },
        5 => Message::GradShard {
            step: rng.gen_range(0..1u64 << 48),
            lr: rng.gen_range(0.0..1.0f32),
            apply: rng.gen_bool(0.5),
            trace: rng.gen_range(0..u64::MAX),
            data: payload(),
        },
        6 => Message::StepAck {
            step: rng.gen_range(0..1u64 << 48),
            stage: rng.gen_range(0..32u32),
            sq_norm: rng.gen_range(0.0..1e9f64),
            finite: rng.gen_bool(0.5),
        },
        7 => Message::Commit { step: rng.gen_range(0..1u64 << 48), keep: rng.gen_bool(0.5) },
        8 => Message::CommitAck {
            step: rng.gen_range(0..1u64 << 48),
            stage: rng.gen_range(0..32u32),
            sq_norm: rng.gen_range(0.0..1e9f64),
        },
        9 => Message::Flush { id: rng.gen_range(0..u64::MAX) },
        10 => Message::FlushAck {
            id: rng.gen_range(0..u64::MAX),
            last_step: rng.gen_range(0..1u64 << 48),
        },
        11 => Message::Telemetry {
            stage: rng.gen_range(0..32u32),
            jsonl: format!(
                "{{\"k\":{}}}\n{{\"k\":{}}}",
                rng.gen_range(0..99),
                rng.gen_range(0..99)
            ),
        },
        12 => Message::Shutdown,
        13 => Message::ShutdownAck {
            stage: rng.gen_range(0..32u32),
            last_step: rng.gen_range(0..1u64 << 48),
        },
        14 => Message::Token { backward: rng.gen_bool(0.5), id: rng.gen_range(0..u64::MAX) },
        15 => Message::TokenMode {
            total: rng.gen_range(0..1u64 << 32),
            is_last: rng.gen_bool(0.5),
            work_us: rng.gen_range(0..1u64 << 32),
        },
        16 => Message::Error {
            code: rng.gen_range(0..u16::MAX as u32) as u16,
            message: format!("failure {}", rng.gen_range(0..1000)),
        },
        17 => Message::Infer {
            id: rng.gen_range(0..u64::MAX),
            rows: rng.gen_range(1..64u32),
            cols: rng.gen_range(1..256u32),
            trace: rng.gen_range(0..u64::MAX),
            data: payload(),
        },
        18 => Message::InferResult {
            id: rng.gen_range(0..u64::MAX),
            rows: rng.gen_range(1..64u32),
            cols: rng.gen_range(1..256u32),
            data: payload(),
        },
        19 => Message::StatsRequest { id: rng.gen_range(0..u64::MAX) },
        20 => Message::StatsReply {
            id: rng.gen_range(0..u64::MAX),
            frame: (0..rng.gen_range(0..512)).map(|_| rng.gen_range(0..=255u8)).collect(),
        },
        _ => Message::InferReject {
            id: rng.gen_range(0..u64::MAX),
            reason: match variant % 4 {
                0 => RejectReason::QueueFull,
                1 => RejectReason::Draining,
                2 => RejectReason::Invalid,
                _ => RejectReason::Backend,
            },
            message: format!("rejected {}", rng.gen_range(0..1000)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_payload_roundtrips_bit_exact(seed in 0u64..u64::MAX, n in 0usize..300) {
        // All f32 bit patterns, including NaN, infinities and -0.0.
        let mut rng = StdRng::seed_from_u64(seed);
        let v: Vec<f32> = (0..n).map(|_| f32::from_bits(rng.gen_range(0..=u32::MAX))).collect();
        let p = TensorPayload::Dense(v.clone());
        let back = decode_payload(&encode_payload(&p)).unwrap();
        prop_assert_eq!(payload_bits(&p), payload_bits(&back));
        prop_assert_eq!(bits(&back.into_dense()), bits(&v));
    }

    #[test]
    fn bulk_slices_roundtrip_bit_exact_in_little_endian(seed in 0u64..u64::MAX, n in 0usize..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fs = tricky_f32s(&mut rng, n);
        let hs: Vec<u16> = (0..n).map(|_| rng.gen_range(0..=u16::MAX)).collect();
        let us: Vec<u32> = (0..n).map(|_| rng.gen_range(0..=u32::MAX)).collect();
        let mut w = Writer::new();
        w.put_f32s(&fs);
        w.put_u16s(&hs);
        w.put_u32s(&us);
        w.put_f32s_from(fs.iter().copied());
        let bytes = w.into_bytes();
        // The layout is the per-element one: a u32 count, then each
        // element's bits, least significant byte first.
        prop_assert_eq!(&bytes[..4], &(n as u32).to_le_bytes()[..]);
        for (i, f) in fs.iter().enumerate() {
            prop_assert_eq!(&bytes[4 + 4 * i..8 + 4 * i], &f.to_bits().to_le_bytes()[..]);
        }
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(bits(&r.get_f32s().unwrap()), bits(&fs));
        prop_assert_eq!(r.get_u16s().unwrap(), hs);
        prop_assert_eq!(r.get_u32s().unwrap(), us);
        let mut into = vec![1.0f32; n];
        r.get_f32s_into(&mut into).unwrap();
        prop_assert_eq!(bits(&into), bits(&fs));
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_of_a_bulk_slice_is_a_typed_error(seed in 0u64..u64::MAX, n in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fs = tricky_f32s(&mut rng, n);
        let hs: Vec<u16> = (0..n).map(|_| rng.gen_range(0..=u16::MAX)).collect();
        let encoded = |put: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            put(&mut w);
            w.into_bytes()
        };
        let f_bytes = encoded(&|w| w.put_f32s(&fs));
        let h_bytes = encoded(&|w| w.put_u16s(&hs));
        let u_bytes = encoded(&|w| w.put_u32s(&[7; 3]));
        let mut into = vec![0.0f32; n];
        for cut in 0..f_bytes.len() {
            prop_assert_eq!(Reader::new(&f_bytes[..cut]).get_f32s(), Err(CodecError::Truncated));
            prop_assert_eq!(
                Reader::new(&f_bytes[..cut]).get_f32s_into(&mut into),
                Err(CodecError::Truncated)
            );
        }
        for cut in 0..h_bytes.len() {
            prop_assert_eq!(Reader::new(&h_bytes[..cut]).get_u16s(), Err(CodecError::Truncated));
        }
        for cut in 0..u_bytes.len() {
            prop_assert_eq!(Reader::new(&u_bytes[..cut]).get_u32s(), Err(CodecError::Truncated));
        }
        // A complete run of the wrong length is refused before a byte
        // of the destination is written.
        let mut short = vec![9.0f32; n - 1];
        prop_assert_eq!(
            Reader::new(&f_bytes).get_f32s_into(&mut short),
            Err(CodecError::LengthMismatch { expected: n - 1, got: n })
        );
        prop_assert!(short.iter().all(|&x| x == 9.0));
    }

    #[test]
    fn borrowed_and_in_place_forms_are_the_owned_encoding(
        seed in 0u64..u64::MAX,
        n in 0usize..200,
        density in 0.0f64..1.0,
        form in 0u8..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v: Vec<f32> = tricky_f32s(&mut rng, n)
            .into_iter()
            .map(|x| if rng.gen_bool(density) { x } else { 0.0 })
            .collect();
        let payload = match form {
            0 => TensorPayload::Dense(v.clone()),
            1 => TensorPayload::from_dense(&v, SparseMode::DropZeros),
            _ => TensorPayload::DenseBf16(pipemare_tensor::bf16::encode_slice(&v)),
        };
        // Encoding from the borrowed slice writes the owned payload's bytes.
        if form < 2 {
            let mode = if form == 0 { SparseMode::Dense } else { SparseMode::DropZeros };
            let mut w = Writer::new();
            ChunkEncoder::new(&v, mode).encode(&mut w, 0..v.len());
            prop_assert_eq!(w.into_bytes(), encode_payload(&payload));
        }
        // Decoding in place yields what decode + into_dense yields, and a
        // Shard frame built from its head decodes both ways to the same.
        let head = ShardHead { step: seed >> 16, micro: 3, pass: PassKind::Bkwd, stage: 2, trace: 4 };
        let mut w = Writer::new();
        head.encode(&mut w);
        payload.encode(&mut w);
        let frame = w.into_bytes();
        let ShardHead { step, micro, pass, stage, trace } = head;
        let msg = Message::Shard { step, micro, pass, stage, trace, data: payload.clone() };
        prop_assert_eq!(&frame, &encode_message(&msg));
        let mut dst = vec![5.0f32; n];
        prop_assert_eq!(decode_shard_into(&frame, &mut dst), Ok(Some(head)));
        prop_assert_eq!(bits(&dst), bits(&payload.into_dense()));
        // Any other frame is left to the general decoder, untouched.
        let other = encode_message(&Message::Flush { id: 1 });
        prop_assert_eq!(decode_shard_into(&other, &mut dst), Ok(None));
        // Every truncation of the frame is a typed error here too.
        for cut in 1..frame.len() {
            prop_assert!(decode_shard_into(&frame[..cut], &mut dst).is_err(), "cut at {cut}");
        }
        let mut wrong = vec![0.0f32; n + 1];
        prop_assert!(matches!(
            decode_shard_into(&frame, &mut wrong),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn bf16_payload_roundtrips_bit_exact_through_wire_and_widening(
        seed in 0u64..u64::MAX,
        n in 0usize..300,
    ) {
        // Start from arbitrary f32 bit patterns and quantize: the encoder
        // always emits canonical (quiet-NaN) bf16 bits, so decode→encode
        // must be the identity on them, and the wire must not disturb a
        // single bit along the way.
        let mut rng = StdRng::seed_from_u64(seed);
        let v: Vec<f32> = (0..n).map(|_| f32::from_bits(rng.gen_range(0..=u32::MAX))).collect();
        let h = pipemare_tensor::bf16::encode_slice(&v);
        let p = TensorPayload::DenseBf16(h.clone());
        let back = decode_payload(&encode_payload(&p)).unwrap();
        prop_assert_eq!(payload_bits(&p), payload_bits(&back), "wire round-trip must be exact");
        // bf16 → f32 widening is exact, so re-encoding recovers the bits.
        let widened = back.into_dense();
        prop_assert_eq!(widened.len(), h.len());
        prop_assert_eq!(pipemare_tensor::bf16::encode_slice(&widened), h);
    }

    #[test]
    fn sparse_encodings_roundtrip_and_dropzeros_is_lossless(
        seed in 0u64..u64::MAX,
        n in 0usize..300,
        density in 0.0f64..1.0,
        mode_sel in 0u8..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v: Vec<f32> = (0..n)
            .map(|_| {
                if rng.gen_bool(density) {
                    // Arbitrary bits (may be NaN/-0.0/subnormal).
                    f32::from_bits(rng.gen_range(0..=u32::MAX))
                } else {
                    0.0
                }
            })
            .collect();
        let mode = match mode_sel {
            0 => SparseMode::DropZeros,
            1 => SparseMode::Threshold(rng.gen_range(0.0..2.0f32)),
            _ => SparseMode::TopK(rng.gen_range(0.0..1.0f32)),
        };
        let p = TensorPayload::from_dense(&v, mode);
        let back = decode_payload(&encode_payload(&p)).unwrap();
        prop_assert_eq!(payload_bits(&p), payload_bits(&back), "wire round-trip must be exact");
        if mode == SparseMode::DropZeros {
            prop_assert_eq!(bits(&p.into_dense()), bits(&v), "DropZeros must be bit-lossless");
        }
    }

    #[test]
    fn every_message_roundtrips_field_identical(variant in 0u8..22, seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_message(variant, &mut rng);
        let back = decode_message(&encode_message(&msg)).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn truncated_messages_error_and_never_panic(variant in 0u8..22, seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_message(variant, &mut rng);
        let b = encode_message(&msg);
        for cut in 0..b.len() {
            prop_assert!(
                decode_message(&b[..cut]).is_err(),
                "prefix of length {cut} of a {}-byte {} decoded successfully",
                b.len(),
                msg.name()
            );
        }
    }

    #[test]
    fn corrupted_messages_never_panic(variant in 0u8..22, seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = arbitrary_message(variant, &mut rng);
        let mut b = encode_message(&msg);
        if b.is_empty() {
            return Ok(());
        }
        for _ in 0..16 {
            let i = rng.gen_range(0..b.len());
            let old = b[i];
            b[i] ^= 1 << rng.gen_range(0..8u8);
            // Any outcome but a panic is acceptable; a flipped length
            // byte must not trigger an unbounded allocation either.
            let _ = decode_message(&b);
            b[i] = old;
        }
    }

    #[test]
    fn bad_length_prefixes_are_rejected(extra in 1u64..1u64 << 32) {
        // A frame header claiming more than MAX_FRAME is a typed error,
        // not an allocation attempt or a panic.
        let huge = (MAX_FRAME as u64).saturating_add(extra).min(u32::MAX as u64) as u32;
        let mut b = huge.to_le_bytes().to_vec();
        b.extend_from_slice(&[0u8; 16]);
        prop_assert!(matches!(deframe(&b), Err(CodecError::FrameTooLarge(_))));
        prop_assert!(matches!(
            frame(&vec![0u8; MAX_FRAME + 1]),
            Err(CodecError::FrameTooLarge(_))
        ));
    }
}

#[test]
fn incomplete_frame_is_not_an_error() {
    // Fewer bytes than the (valid) header announces: the framing layer
    // reports "need more" rather than failing.
    let mut b = 100u32.to_le_bytes().to_vec();
    b.extend_from_slice(&[0u8; 10]);
    assert_eq!(deframe(&b).unwrap(), None);
}
