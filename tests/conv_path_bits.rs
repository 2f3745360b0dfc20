//! Pins the convolutional data path to the last bit.
//!
//! `Conv2d`, `BatchNorm2d` and the residual add are free to change how
//! they move data — patch-matrix layout, GEMM orientation, which buffer a
//! sum lands in — but not one floating-point result: every product keeps
//! its operands and its depth order, every sum its element order. This
//! test runs the first eight steps of pmbench's `resnet_inproc` workload
//! at seed 1 (ResNet-50 stand-in, PipeMare T1 + T2, 16 stages, 2
//! microbatches of 10 images) and compares the losses and a hash of the
//! parameters they leave against constants recorded on the commit before
//! the layers went channel-major. The losses are pmbench's `exact
//! resnet_inproc.loss_bits_first8` line; the hash is taken here, after
//! step eight, with pmbench's FNV-1a.

use pipemare::core::{PipelineTrainer, TrainConfig};
use pipemare::data::{split_microbatches, MinibatchIter, SyntheticImages};
use pipemare::nn::{CifarResNet, ImageBatch, ResNetConfig};
use pipemare::optim::{OptimizerKind, StepDecayLr, T1Rescheduler};

const LOSS_BITS_FIRST8: [u32; 8] = [
    0x403878e0, 0x403673b8, 0x4020c954, 0x402157ff, 0x4010803b, 0x4017a304, 0x401895de, 0x400a1bfb,
];
const PARAM_HASH_AFTER_8_STEPS: u64 = 0x27cf31677a364d66;

/// FNV-1a over the little-endian bit patterns.
fn hash_f32(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn resnet_pipemare_losses_and_parameters_keep_their_bits() {
    const MINIBATCH: usize = 20;
    const INIT_SEED: u64 = 3;
    let ds = SyntheticImages::cifar_like(160, 80, 1).generate();
    let model = CifarResNet::new(ResNetConfig::resnet50_standin(10));
    let steps_per_epoch = 160usize.div_ceil(MINIBATCH);
    let cfg = TrainConfig::pipemare(
        16,
        2,
        OptimizerKind::resnet_momentum(5e-4),
        Box::new(StepDecayLr { base: 0.02, drop_every: 6 * steps_per_epoch, factor: 0.1 }),
        T1Rescheduler::new(2 * steps_per_epoch),
        0.5,
    );
    let mut trainer = PipelineTrainer::new(&model, cfg, INIT_SEED);
    let mut order = MinibatchIter::new(ds.train_len(), MINIBATCH, INIT_SEED);
    let mut losses = Vec::new();
    for _ in 0..LOSS_BITS_FIRST8.len() {
        let indices = order.next_batch();
        let chunks = split_microbatches(&indices, 2);
        let weights: Vec<f32> =
            chunks.iter().map(|c| c.len() as f32 / indices.len() as f32).collect();
        let micro: Vec<ImageBatch> = chunks
            .iter()
            .map(|c| {
                let (x, y) = ds.train_batch(c);
                ImageBatch { x, y }
            })
            .collect();
        losses.push(trainer.train_minibatch(&micro, &weights).loss.to_bits());
    }
    let got = (losses, hash_f32(trainer.params()));
    let hex = |bits: &[u32]| bits.iter().map(|b| format!("{b:#010x}")).collect::<Vec<_>>();
    assert_eq!(
        (hex(&got.0), format!("{:#018x}", got.1)),
        (hex(&LOSS_BITS_FIRST8), format!("{PARAM_HASH_AFTER_8_STEPS:#018x}")),
        "the conv / batch-norm / residual path moved a bit"
    );
}
