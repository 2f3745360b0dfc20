//! Where live serving weights come from: `PassKind::Latest` fetches
//! from the training stage workers. A server started without a source
//! serves its start-up snapshot.
//!
//! This is the asynchronous-pipeline payoff: the same
//! workers that hold versioned shards for PipeMare training answer
//! step-free `Latest` fetches, so a serving frontend can refresh its
//! parameter vector mid-training without pausing either side.

use std::time::Duration;

use pipemare_comms::{
    gather_shards, handshake_worker, CommsError, Message, PassKind, StageConfig, Transport,
    WorkerLink, PROTOCOL_VERSION,
};
use pipemare_nn::ServeSplit;
use pipemare_optim::OptimizerKind;
use pipemare_pipeline::Method;
use pipemare_telemetry::FlightRecorder;
use pipemare_tensor::StoragePrecision;

/// Supplies the full parameter vector on demand.
pub trait WeightSource: Send {
    /// Overwrites every value of `out` with the freshest available
    /// parameters. `out` arrives holding the weights an earlier refresh
    /// retired (zeros at the first), so a value left unwritten would be
    /// served from an older version.
    fn fetch_latest(&mut self, out: &mut [f32]) -> Result<(), CommsError>;

    /// Releases whatever backs the source (e.g. tells shard workers to
    /// exit). Best-effort; the default does nothing.
    fn shutdown(self: Box<Self>) {}
}

/// Live weights assembled from per-stage shard workers over comms
/// links: each refresh sends a step-free `FetchShard { pass: Latest }`
/// to every worker at once and decodes each reply into its slice of the
/// full vector.
pub struct ShardWeightSource {
    links: Vec<WorkerLink>,
    splits: Vec<ServeSplit>,
}

fn serve_stage_config(splits: &[ServeSplit], param_len: usize, s: usize) -> StageConfig {
    StageConfig {
        protocol: PROTOCOL_VERSION,
        stage: s as u32,
        stages: splits.len() as u32,
        n_micro: 1,
        method: Method::GPipe,
        param_len: param_len as u64,
        shard_lo: splits[s].param_lo as u64,
        shard_hi: splits[s].param_hi as u64,
        opt: OptimizerKind::Sgd { weight_decay: 0.0 },
        t2_decay: None,
        gamma: 0.0,
        recomp_slots: None,
        recomp_t2: false,
        warmup_steps: 0,
        weight_storage: StoragePrecision::F32,
    }
}

impl ShardWeightSource {
    /// Handshakes one worker per split and seeds each with its shard of
    /// `init` (the workers become plain weight hosts; nothing stops a
    /// trainer from driving the same workers through a second link).
    ///
    /// # Panics
    ///
    /// Panics if `transports.len() != splits.len()` or `init` is not
    /// the full parameter vector.
    pub fn connect(
        transports: Vec<Box<dyn Transport>>,
        splits: Vec<ServeSplit>,
        init: &[f32],
        param_len: usize,
        recv_timeout: Option<Duration>,
    ) -> Result<Self, CommsError> {
        assert_eq!(transports.len(), splits.len(), "one transport per stage split");
        assert_eq!(init.len(), param_len, "init must be the full parameter vector");
        // Only its clock is read: a ring is allocated when a track records.
        let clock = FlightRecorder::new(1, 1);
        let mut links = Vec::with_capacity(splits.len());
        for (s, transport) in transports.into_iter().enumerate() {
            let cfg = serve_stage_config(&splits, param_len, s);
            let mut link = handshake_worker(transport, cfg, recv_timeout, &clock)?;
            let (lo, hi) = (splits[s].param_lo, splits[s].param_hi);
            link.send(&Message::InitShard { params: init[lo..hi].to_vec() })?;
            links.push(link);
        }
        Ok(ShardWeightSource { links, splits })
    }
}

impl WeightSource for ShardWeightSource {
    fn fetch_latest(&mut self, out: &mut [f32]) -> Result<(), CommsError> {
        let ranges: Vec<(usize, usize)> =
            self.splits.iter().map(|s| (s.param_lo, s.param_hi)).collect();
        gather_shards(&mut self.links, &ranges, 0, 0, PassKind::Latest, out)
    }

    /// Sends `Shutdown` to every worker and drains the telemetry + ack
    /// replies. Errors on workers that already died are ignored —
    /// shutdown is best-effort by design.
    fn shutdown(mut self: Box<Self>) {
        for link in &mut self.links {
            if link.send(&Message::Shutdown).is_err() {
                continue;
            }
            // The worker ships a final Telemetry batch before its ack.
            loop {
                match link.recv() {
                    Ok(Message::ShutdownAck { .. }) | Err(_) => break,
                    Ok(_) => continue,
                }
            }
        }
    }
}
