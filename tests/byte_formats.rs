//! Frozen bytes of the three on-disk formats: a v1 params file, a v3
//! trainer-state file and a journal segment. The hex constants were
//! written by the code as it stood before the three codecs became one
//! (`pipemare_telemetry::codec`) and are never edited: each fixture must
//! load to the value below and re-save to the same bytes. The same
//! fixtures, cut at every byte or with their length fields blown up,
//! must read back as typed errors (checkpoints) or a clean prefix plus
//! one counted torn tail (the journal) — never an abort.

use std::path::{Path, PathBuf};

use pipemare::comms::StageState;
use pipemare::core::{
    load_params, load_state, save_params, save_state, CheckpointError, TrainerState,
};
use pipemare::telemetry::journal::read_segment;
use pipemare::telemetry::{
    HistogramSnapshot, JournalConfig, JournalEntry, JournalWriter, LiveSample, MetricValue,
    MetricsSnapshot, StageLive,
};

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pipemare_bytefmt_{name}_{}", std::process::id()))
}

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.split_whitespace().collect();
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------
// Values.

/// A quiet NaN with a payload, −0.0, the smallest positive and the
/// largest negative subnormal: every bit must survive.
const NAN: u32 = 0x7fc0_1234;
const NEG_ZERO: u32 = 0x8000_0000;
const SUB_MIN: u32 = 0x0000_0001;
const SUB_NEG: u32 = 0x807f_ffff;

fn f(bits: u32) -> f32 {
    f32::from_bits(bits)
}

fn params() -> Vec<f32> {
    vec![1.0, f(NEG_ZERO), f(NAN), f(SUB_MIN), -2.5, f32::INFINITY]
}

fn state() -> TrainerState {
    let first = StageState {
        window: vec![
            (7, vec![f(NAN), f(NEG_ZERO), f(SUB_MIN)]),
            (8, vec![1.5, f(SUB_NEG), f(NEG_ZERO)]),
            (9, vec![0.25, 2.0, -3.0]),
        ],
        delta: vec![f(NEG_ZERO), 0.5, f(SUB_MIN)],
        opt_m: vec![0.125, f(NAN), -1.0],
        opt_v: Vec::new(),
        opt_steps: 9,
    };
    let second = StageState {
        window: vec![(9, vec![4.0, f(SUB_NEG)])],
        delta: vec![0.0, -0.75],
        opt_m: vec![1e-3, f(NEG_ZERO)],
        opt_v: vec![f(SUB_MIN), 1e-6],
        opt_steps: 8,
    };
    TrainerState { step: 9, diverged: true, stages: vec![first, second] }
}

fn metrics(counter: u64) -> MetricsSnapshot {
    MetricsSnapshot {
        metrics: vec![
            ("serve.accepted".to_string(), MetricValue::Counter(counter)),
            ("health.stage0.alpha_margin".to_string(), MetricValue::Gauge(-0.0)),
            (
                "serve.batch_rows".to_string(),
                MetricValue::Histogram(HistogramSnapshot {
                    bounds: vec![1.0, 4.0],
                    counts: vec![0, 3, 1],
                    count: 4,
                    sum: 9.5,
                }),
            ),
        ],
    }
}

/// A sample whose rollup of itself alone is itself: dyadic rates over a
/// 250 ms window (weighted means are exact), stage fields equal to their
/// index, NaN only where the rollup writes `f64::NAN`.
fn sample(seq: u64) -> LiveSample {
    let stage = |s: u32, util: f64| StageLive {
        stage: s,
        util,
        fwd_us: 100.0 + s as f64,
        bkwd_us: 200.5,
        recomp_us: f64::NAN,
        wait_us: 42 + seq,
        tau: if s == 0 { 3.0 } else { f64::NAN },
        tau_pairs: 7,
        events: 12 * seq,
    };
    LiveSample {
        seq,
        ts_us: seq * 250_000,
        window_us: 250_000,
        stages: vec![stage(0, 0.75), stage(1, 0.25)],
        metrics: metrics(10 * seq),
        sample_cost_us: 17,
    }
}

/// The journal fixture: sample 2 as a raw frame, then sample 1 as a
/// rollup frame, in one segment.
fn journal_entries() -> Vec<(LiveSample, bool)> {
    vec![(sample(2), false), (sample(1), true)]
}

// ---------------------------------------------------------------------
// Bitwise comparisons (NaN-aware).

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_state_bits(got: &TrainerState, want: &TrainerState) {
    assert_eq!((got.step, got.diverged), (want.step, want.diverged));
    assert_eq!(got.stages.len(), want.stages.len());
    for (g, w) in got.stages.iter().zip(&want.stages) {
        assert_eq!(g.opt_steps, w.opt_steps);
        let window = |s: &StageState| -> Vec<(usize, Vec<u32>)> {
            s.window.iter().map(|(v, p)| (*v, f32_bits(p))).collect()
        };
        assert_eq!(window(g), window(w));
        assert_eq!(f32_bits(&g.delta), f32_bits(&w.delta));
        assert_eq!(f32_bits(&g.opt_m), f32_bits(&w.opt_m));
        assert_eq!(f32_bits(&g.opt_v), f32_bits(&w.opt_v));
    }
}

fn sample_key(s: &LiveSample) -> String {
    let stages: Vec<String> = s
        .stages
        .iter()
        .map(|st| {
            format!(
                "{} {:x} {:x} {:x} {:x} {} {:x} {} {}",
                st.stage,
                st.util.to_bits(),
                st.fwd_us.to_bits(),
                st.bkwd_us.to_bits(),
                st.recomp_us.to_bits(),
                st.wait_us,
                st.tau.to_bits(),
                st.tau_pairs,
                st.events
            )
        })
        .collect();
    let metrics: Vec<String> = s
        .metrics
        .metrics
        .iter()
        .map(|(name, v)| match v {
            MetricValue::Counter(c) => format!("{name} c {c}"),
            MetricValue::Gauge(g) => format!("{name} g {:x}", g.to_bits()),
            MetricValue::Histogram(h) => format!(
                "{name} h {:?} {:?} {} {:x}",
                h.bounds.iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
                h.counts,
                h.count,
                h.sum.to_bits()
            ),
        })
        .collect();
    format!("{} {} {} {} {stages:?} {metrics:?}", s.seq, s.ts_us, s.window_us, s.sample_cost_us)
}

fn assert_entries(got: &[JournalEntry], want: &[(LiveSample, bool)]) {
    assert_eq!(got.len(), want.len());
    for (g, (w, rollup)) in got.iter().zip(want) {
        assert_eq!(g.rollup, *rollup);
        assert_eq!(sample_key(&g.sample), sample_key(w));
    }
}

// ---------------------------------------------------------------------
// Re-saving through each format's public writer.

fn save_params_bytes(params: &[f32]) -> Vec<u8> {
    let path = temp("params_save");
    save_params(&path, params).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn save_state_bytes(state: &TrainerState) -> Vec<u8> {
    let path = temp("state_save");
    save_state(&path, state).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Journals sample 1 then sample 2 with one frame per segment and no raw
/// segment kept, so sample 1 is compacted into a rollup frame: returns
/// the raw segment's bytes followed by the rollup segment's.
fn save_journal_bytes() -> Vec<u8> {
    let dir = temp("journal_save");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = JournalConfig {
        max_segment_bytes: 1,
        keep_raw_segments: 0,
        rollup_window_us: 1_000_000,
        ..JournalConfig::default()
    };
    let mut w = JournalWriter::create(&dir, "fixture", 2, cfg).unwrap();
    w.append(&sample(1)).unwrap();
    w.append(&sample(2)).unwrap();
    drop(w);
    let mut bytes = std::fs::read(dir.join("seg-000001.pmj")).unwrap();
    bytes.extend(std::fs::read(dir.join("rollup-000000.pmj")).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

fn read_journal_bytes(path: &Path, bytes: &[u8]) -> (Vec<JournalEntry>, bool) {
    std::fs::write(path, bytes).unwrap();
    read_segment(path).unwrap()
}

// ---------------------------------------------------------------------
// The frozen bytes.

const PARAMS_V1: &str = "
    504950454d41524506000000000000000000803f000000803412c07f01000000
    000020c00000807f
";

const STATE_V3: &str = "
    504950454d415232030000000900000000000000010200000000000000090000
    00000000000300000000000000070000000000000003000000000000003412c0
    7f0000008001000000080000000000000003000000000000000000c03fffff7f
    8000000080090000000000000003000000000000000000803e00000040000040
    c00300000000000000000000800000003f010000000300000000000000000000
    3e3412c07f000080bf0000000000000000080000000000000001000000000000
    000900000000000000020000000000000000008040ffff7f8002000000000000
    0000000000000040bf02000000000000006f12833a0000008002000000000000
    0001000000bd378635
";

const JOURNAL: &str = "
    3d0100000100020000000000000020a107000000000090d00300000000001100
    0000000000000200000000000000000000000000e83f00000000000059400000
    000000106940000000000000f87f2c0000000000000000000000000008400700
    0000180000000000000001000000000000000000d03f00000000004059400000
    000000106940000000000000f87f2c00000000000000000000000000f87f0700
    00001800000000000000030000000e00000073657276652e6163636570746564
    0014000000000000001a0000006865616c74682e7374616765302e616c706861
    5f6d617267696e0100000000000000801000000073657276652e62617463685f
    726f77730202000000000000000000f03f000000000000104000000000000000
    0003000000000000000100000000000000040000000000000000000000000023
    403d0100000101010000000000000090d003000000000090d003000000000011
    000000000000000200000000000000000000000000e83f000000000000594000
    00000000106940000000000000f87f2b00000000000000000000000000084007
    0000000c0000000000000001000000000000000000d03f000000000040594000
    00000000106940000000000000f87f2b00000000000000000000000000f87f07
    0000000c00000000000000030000000e00000073657276652e61636365707465
    64000a000000000000001a0000006865616c74682e7374616765302e616c7068
    615f6d617267696e0100000000000000801000000073657276652e6261746368
    5f726f77730202000000000000000000f03f0000000000001040000000000000
    0000030000000000000001000000000000000400000000000000000000000000
    2340
";

// ---------------------------------------------------------------------
// Byte identity.

#[test]
fn params_v1_fixture_loads_and_resaves_byte_identically() {
    let bytes = unhex(PARAMS_V1);
    let path = temp("params_load");
    std::fs::write(&path, &bytes).unwrap();
    let loaded = load_params(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(f32_bits(&loaded), f32_bits(&params()));
    assert_eq!(hex(&save_params_bytes(&loaded)), hex(&bytes));
}

#[test]
fn state_v3_fixture_loads_and_resaves_byte_identically() {
    let bytes = unhex(STATE_V3);
    let path = temp("state_load");
    std::fs::write(&path, &bytes).unwrap();
    let loaded = load_state(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_state_bits(&loaded, &state());
    assert_eq!(hex(&save_state_bytes(&loaded)), hex(&bytes));
}

#[test]
fn journal_fixture_loads_and_resaves_byte_identically() {
    let bytes = unhex(JOURNAL);
    let path = temp("journal_load").join("seg-000000.pmj");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let (entries, torn) = read_journal_bytes(&path, &bytes);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
    assert!(!torn);
    assert_entries(&entries, &journal_entries());
    assert_eq!(hex(&save_journal_bytes()), hex(&bytes));
}

// ---------------------------------------------------------------------
// Corrupt input: a typed error or a counted torn tail, never an abort.
// (Also the fast tier-1 stand-in for the CI-only `codec_properties.rs`
// and `journal_crash.rs` sweeps.)

/// Length-field values a flipped high bit produces: one asks for
/// terabytes, the other overflows `len * 4`.
const HUGE_COUNTS: [u64; 2] = [1 << 40, 1 << 62];

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn with_u64(bytes: &[u8], at: usize, v: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 8].copy_from_slice(&v.to_le_bytes());
    out
}

/// Offsets of every count in a v3 file: the stage count, each window's
/// version count and every vector's length.
fn state_count_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut counts = vec![21];
    let mut at = 29;
    for _ in 0..u64_at(bytes, 21) {
        at += 8; // opt_steps
        counts.push(at);
        let n_versions = u64_at(bytes, at) as usize;
        at += 8;
        // Each window version is preceded by its number; δ, m and v are not.
        for vector in 0..n_versions + 3 {
            at += if vector < n_versions { 8 } else { 0 };
            counts.push(at);
            at += 8 + 4 * u64_at(bytes, at) as usize;
        }
    }
    assert_eq!(at, bytes.len(), "the walk covers the whole file");
    counts
}

#[test]
fn corrupt_params_files_are_typed_errors() {
    let bytes = unhex(PARAMS_V1);
    let path = temp("params_corrupt");
    let load = |b: &[u8]| {
        std::fs::write(&path, b).unwrap();
        load_params(&path)
    };
    for cut in 0..bytes.len() {
        match load(&bytes[..cut]) {
            Err(CheckpointError::BadLength { declared: 6, actual }) if cut >= 16 => {
                assert_eq!(actual, (cut - 16) / 4)
            }
            Err(CheckpointError::Corrupt(_)) if cut < 16 => {}
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
    for huge in HUGE_COUNTS {
        match load(&with_u64(&bytes, 8, huge)) {
            Err(CheckpointError::BadLength { declared, actual: 6 }) => {
                assert_eq!(declared as u64, huge)
            }
            other => panic!("length {huge}: {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_state_files_are_typed_errors() {
    let bytes = unhex(STATE_V3);
    let path = temp("state_corrupt");
    let load = |b: &[u8]| {
        std::fs::write(&path, b).unwrap();
        load_state(&path)
    };
    for cut in 0..bytes.len() {
        let got = load(&bytes[..cut]);
        assert!(matches!(got, Err(CheckpointError::Corrupt(_))), "cut at {cut}: {got:?}");
    }
    let counts = state_count_offsets(&bytes);
    assert_eq!(counts.len(), 1 + 2 * (1 + 3) + 3 + 1, "stages, windows and vectors");
    for at in counts {
        for huge in HUGE_COUNTS {
            let got = load(&with_u64(&bytes, at, huge));
            assert!(matches!(got, Err(CheckpointError::Corrupt(_))), "{huge} at {at}: {got:?}");
        }
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(matches!(load(&trailing), Err(CheckpointError::Corrupt(_))));
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_journal_reads_a_clean_prefix_and_one_counted_tail() {
    let bytes = unhex(JOURNAL);
    let want = journal_entries();
    let first_end = 4 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let dir = temp("journal_torn");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seg-000000.pmj");
    for cut in 0..=bytes.len() {
        let (entries, torn) = read_journal_bytes(&path, &bytes[..cut]);
        let whole = usize::from(cut >= first_end) + usize::from(cut == bytes.len());
        assert_entries(&entries, &want[..whole]);
        assert_eq!(torn, ![0, first_end, bytes.len()].contains(&cut), "cut at {cut}");
    }
    // A frame too long to be one, and counts inside a frame (stages,
    // metrics) that its bytes cannot hold: the frame reads as torn.
    let n_stages_at = 4 + 34;
    let n_metrics_at = n_stages_at + 4 + 2 * 64;
    for at in [0, n_stages_at, n_metrics_at] {
        let mut corrupt = bytes.clone();
        corrupt[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (entries, torn) = read_journal_bytes(&path, &corrupt);
        assert!(entries.is_empty() && torn, "count at {at}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
