//! Neural machine translation with asynchronous pipeline training (the
//! paper's IWSLT14 scenario at reproduction scale): an encoder–decoder
//! Transformer trained with PipeMare's full recipe — T1 learning-rate
//! rescheduling, T2 discrepancy correction, and T3 synchronous warmup —
//! compared to the synchronous baseline, scored with corpus BLEU.
//!
//! Run with: `cargo run --release --example translation`

use pipemare::core::{run, RunSpec, TrainConfig};
use pipemare::data::SyntheticTranslation;
use pipemare::nn::{TrainModel, Transformer, TransformerConfig};
use pipemare::optim::{InverseSqrtLr, OptimizerKind, T1Rescheduler};

fn main() {
    let dataset = SyntheticTranslation::iwslt_like(240, 32, 17).generate();
    let model = Transformer::new(TransformerConfig::iwslt_standin(
        dataset.total_vocab,
        dataset.total_vocab,
    ));
    println!(
        "model: encoder-decoder Transformer, {} params, {} weight units",
        model.param_len(),
        model.weight_units().len()
    );

    let (stages, n_micro, epochs, minibatch, warmup_epochs, seed) = (12, 2, 20, 12, 2, 5);
    let adamw = OptimizerKind::transformer_adamw(1e-4);
    let schedule = || InverseSqrtLr { peak: 3e-3, warmup: 60, init: 1e-7 };

    let sync_cfg = TrainConfig::gpipe(stages, n_micro, adamw, Box::new(schedule()));
    let sync = run(
        &model,
        &dataset,
        sync_cfg,
        RunSpec { epochs, minibatch, eval_n: 24, seed, ..RunSpec::default() },
    )
    .expect("every minibatch fills N microbatches");

    let mut pm_cfg = TrainConfig::pipemare(
        stages,
        n_micro,
        adamw,
        Box::new(schedule()),
        T1Rescheduler::for_warmup_schedule(60),
        0.135,
    );
    pm_cfg.grad_clip = Some(25.0);
    let pipemare = run(
        &model,
        &dataset,
        pm_cfg,
        RunSpec { epochs, minibatch, warmup_epochs, eval_n: 24, seed, ..RunSpec::default() },
    )
    .expect("every minibatch fills N microbatches");

    println!("\nepoch | GPipe BLEU (time) | PipeMare T1+T2+T3 BLEU (time)");
    for (a, b) in sync.epochs.iter().zip(pipemare.epochs.iter()) {
        println!(
            "{:5} | {:10.1} ({:5.1}) | {:22.1} ({:5.1})",
            a.epoch, a.metric, a.time, b.metric, b.time
        );
    }
    println!(
        "\nbest BLEU: GPipe {:.1} vs PipeMare {:.1} (diverged: {})",
        sync.best_metric(),
        pipemare.best_metric(),
        pipemare.diverged
    );
    let target = sync.best_metric().max(pipemare.best_metric()) - 0.4;
    let fmt = |t: Option<f64>| t.map(|x| format!("{x:.1}")).unwrap_or_else(|| "inf".into());
    println!(
        "time to target BLEU {:.1}: GPipe {} vs PipeMare {}",
        target,
        fmt(sync.time_to_target(target)),
        fmt(pipemare.time_to_target(target)),
    );
}
