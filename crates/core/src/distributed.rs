//! Entry points that run a [`TrainConfig`] on the multi-process
//! distributed trainer: the same configuration, the same stage-update
//! core, shards behind worker links instead of in this process.

use std::time::Duration;

use pipemare_comms::{
    spawn_loopback_workers, CommsError, DistConfig, DistRunReport, DistributedTrainer, SparseMode,
    StepStats, TcpTransport, TrainConfig, Transport,
};
use pipemare_nn::TrainModel;

/// Wraps a [`TrainConfig`] for a distributed run. Hogwild mode has no
/// distributed counterpart (its stochastic delays are sampled driver-side
/// per gradient, which the shard protocol does not model) and is
/// rejected.
pub fn dist_config(
    cfg: TrainConfig,
    sparse_grads: SparseMode,
    recv_timeout: Option<Duration>,
) -> Result<DistConfig, CommsError> {
    let cfg = DistConfig { train: cfg, sparse_grads, recv_timeout };
    cfg.method().map(|_| cfg)
}

/// Runs `minibatches(step)` → microbatch sets through a distributed
/// trainer until the iterator is exhausted, returning the per-step stats,
/// the final weights, and the merged run report.
fn drive<M: TrainModel>(
    mut trainer: DistributedTrainer<'_, M>,
    n_micro: usize,
    minibatches: &mut dyn Iterator<Item = Vec<M::Batch>>,
) -> Result<(Vec<StepStats>, Vec<f32>, DistRunReport), CommsError> {
    let weights = vec![1.0 / n_micro as f32; n_micro];
    let mut stats = Vec::new();
    for micro in minibatches {
        stats.push(trainer.train_minibatch(&micro, &weights)?);
    }
    let params = trainer.gather_params()?;
    let report = trainer.shutdown()?;
    Ok((stats, params, report))
}

/// Trains over in-process loopback workers (one thread per stage): the
/// cheapest way to run the full wire protocol end to end. Microbatches
/// are weighted uniformly, matching the standard runners.
pub fn train_distributed_loopback<M: TrainModel>(
    model: &M,
    cfg: TrainConfig,
    init_seed: u64,
    sparse_grads: SparseMode,
    minibatches: &mut dyn Iterator<Item = Vec<M::Batch>>,
) -> Result<(Vec<StepStats>, Vec<f32>, DistRunReport), CommsError> {
    let n_micro = cfg.n_micro;
    let stages = cfg.stages;
    let dcfg = dist_config(cfg, sparse_grads, None)?;
    let (transports, handles) = spawn_loopback_workers(stages);
    let trainer = DistributedTrainer::connect(model, dcfg, init_seed, transports)?;
    let out = drive(trainer, n_micro, minibatches)?;
    for h in handles {
        h.join()
            .map_err(|_| CommsError::Protocol("loopback worker thread panicked".to_string()))??;
    }
    Ok(out)
}

/// Trains over TCP workers already listening at `addrs` (one per stage,
/// e.g. `orchestrator worker --listen …` processes).
pub fn train_distributed_tcp<M: TrainModel>(
    model: &M,
    cfg: TrainConfig,
    init_seed: u64,
    sparse_grads: SparseMode,
    recv_timeout: Option<Duration>,
    addrs: &[String],
    minibatches: &mut dyn Iterator<Item = Vec<M::Batch>>,
) -> Result<(Vec<StepStats>, Vec<f32>, DistRunReport), CommsError> {
    assert_eq!(addrs.len(), cfg.stages, "one worker address per stage");
    let n_micro = cfg.n_micro;
    let dcfg = dist_config(cfg, sparse_grads, recv_timeout)?;
    let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(addrs.len());
    for addr in addrs {
        transports.push(Box::new(TcpTransport::connect(addr)?));
    }
    let trainer = DistributedTrainer::connect(model, dcfg, init_seed, transports)?;
    drive(trainer, n_micro, minibatches)
}
