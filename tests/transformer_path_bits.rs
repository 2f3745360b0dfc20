//! Pins the Transformer data path to the last bit.
//!
//! `MultiHeadAttention`, the small-product GEMM kernel and the encoder /
//! decoder layers are free to change how they move data — where a head's
//! columns live, which buffer a bias lands in, which kernel a product is
//! dispatched to — but not one floating-point result: every product keeps
//! its operands and its depth order, every sum its association order,
//! softmax its expressions and element order. This test runs the first
//! sixteen steps of pmbench's `transformer_recompute` workload at seed 1
//! (IWSLT stand-in, PipeMare T1 + T2, 12 stages, 4 microbatches of 2–3
//! six-token sentences, optimal recompute segments, AdamW, clip 25,
//! inverse-sqrt schedule) — enough steps for the pipeline to fill, so the
//! recompute replays run on delayed weights — and compares the losses and
//! a hash of the parameters they leave against constants recorded on the
//! commit before attention went head-strided. The first eight losses are
//! pmbench's `exact transformer_recompute.loss_bits_first8` line (CI
//! compares the two); the hash is taken here, after the last step, with
//! pmbench's FNV-1a.

use pipemare::core::{PipelineTrainer, RecomputeCfg, TrainConfig};
use pipemare::data::{split_microbatches, MinibatchIter, SyntheticTranslation};
use pipemare::nn::{SeqBatch, Transformer, TransformerConfig};
use pipemare::optim::{InverseSqrtLr, OptimizerKind, T1Rescheduler};

const LOSS_BITS: [u32; 16] = [
    0x405574d9, 0x4057ce42, 0x40516de4, 0x4066d7c5, 0x403ec4dd, 0x40443c58, 0x402e8609, 0x4034bf7d,
    0x4027c884, 0x4017aece, 0x40295cf2, 0x402d6fa8, 0x40352edb, 0x403ea57a, 0x4026f3f3, 0x402ebc65,
];
const PARAM_HASH_AFTER_16_STEPS: u64 = 0x4c11b107a64f878a;

/// FNV-1a over the little-endian bit patterns.
fn hash_f32(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn transformer_recompute_losses_and_parameters_keep_their_bits() {
    const MINIBATCH: usize = 10;
    const STAGES: usize = 12;
    const N_MICRO: usize = 4;
    const INIT_SEED: u64 = 3;
    let ds = SyntheticTranslation {
        vocab: 8,
        min_len: 6,
        max_len: 6,
        train: 80,
        test: 24,
        reverse: true,
        seed: 1,
    }
    .generate();
    let model = Transformer::new(TransformerConfig::iwslt_standin(ds.total_vocab, ds.total_vocab));
    let mut cfg = TrainConfig::pipemare(
        STAGES,
        N_MICRO,
        OptimizerKind::transformer_adamw(1e-4),
        Box::new(InverseSqrtLr { peak: 3e-3, warmup: 20, init: 1e-7 }),
        T1Rescheduler::new(60),
        0.1,
    );
    cfg.grad_clip = Some(25.0);
    cfg.recompute = Some(RecomputeCfg::optimal(STAGES));
    let mut trainer = PipelineTrainer::new(&model, cfg, INIT_SEED);
    let mut order = MinibatchIter::new(ds.train_len(), MINIBATCH, INIT_SEED);
    let mut losses = Vec::new();
    for _ in 0..LOSS_BITS.len() {
        let indices = order.next_batch();
        let chunks = split_microbatches(&indices, N_MICRO);
        let weights: Vec<f32> =
            chunks.iter().map(|c| c.len() as f32 / indices.len() as f32).collect();
        let micro: Vec<SeqBatch> = chunks.iter().map(|c| ds.batch(c)).collect();
        losses.push(trainer.train_minibatch(&micro, &weights).loss.to_bits());
    }
    let got = (losses, hash_f32(trainer.params()));
    let hex = |bits: &[u32]| bits.iter().map(|b| format!("{b:#010x}")).collect::<Vec<_>>();
    assert_eq!(
        (hex(&got.0), format!("{:#018x}", got.1)),
        (hex(&LOSS_BITS), format!("{PARAM_HASH_AFTER_16_STEPS:#018x}")),
        "the attention / small-product / layer-norm path moved a bit"
    );
}
