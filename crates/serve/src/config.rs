//! Serving configuration: admission control, batch cap, pipeline
//! depth, weight refresh cadence.

use std::time::Duration;

/// Everything the serving frontend needs to know about policy.
///
/// The two levers the paper's utilization argument turns into serving
/// throughput are `stages` (keep every stage busy with a different
/// batch) and `max_batch_rows`: the batcher dispatches a request the
/// moment stage 0 can take it, together with everything else already
/// queued up to `max_batch_rows` input rows, so light traffic pays no
/// extra latency while heavy traffic, piling up behind a busy stage 0,
/// amortizes the per-batch weight traversal across many rows.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Pipeline stages the model is split across (≥ 1).
    pub stages: usize,
    /// Maximum input rows coalesced into one batch (≥ 1).
    pub max_batch_rows: u32,
    /// Ignored: the batcher holds no request for a coalescing window.
    /// Kept only because benchmark code still names it; ROADMAP item 2
    /// deletes it.
    pub deadline: Duration,
    /// Admission queue capacity in requests; a full queue sheds with a
    /// typed [`pipemare_comms::RejectReason::QueueFull`] reject.
    pub queue_cap: usize,
    /// Refresh weights from the weight source every `n` batches
    /// (`Some(1)` = before every batch). Ignored without a source.
    pub refresh_every: Option<u64>,
    /// Receive timeout installed on client connections; bounds how
    /// long shutdown waits for reader threads (must not be `None` for
    /// a clean shutdown with connected clients).
    pub conn_recv_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            stages: 2,
            max_batch_rows: 32,
            deadline: Duration::from_millis(2),
            queue_cap: 64,
            refresh_every: None,
            conn_recv_timeout: Some(Duration::from_millis(100)),
        }
    }
}

impl ServeConfig {
    /// Validates invariants, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages == 0 {
            return Err("stages must be at least 1".into());
        }
        if self.max_batch_rows == 0 {
            return Err("max_batch_rows must be at least 1".into());
        }
        if self.queue_cap == 0 {
            return Err("queue_cap must be at least 1".into());
        }
        if self.refresh_every == Some(0) {
            return Err("refresh_every must be at least 1 when set".into());
        }
        Ok(())
    }
}
