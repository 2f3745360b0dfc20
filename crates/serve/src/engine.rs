//! The staged forward engine: one thread per pipeline stage, each
//! owning a contiguous layer span of the model, batches flowing
//! forward-only through bounded channels.
//!
//! This is the serving analogue of the training stage executor: a
//! batch entering stage 0 while an earlier batch occupies stage 1
//! keeps every stage busy — PipeDream-style forward pipelining with no
//! backward traffic to turn around. Each stage wraps its compute in
//! [`pipemare_tensor::pool::serial_scope`] so `stages × pool`
//! oversubscription cannot happen, and records a
//! [`SpanKind::Forward`] span per batch on its own track so `pm trace`
//! renders serving timelines exactly like training ones.
//!
//! Weights live in one shared `RwLock<Vec<f32>>` full parameter
//! vector; stage `s` reads only its split's slice during compute, and
//! a weight refresh swaps the vector atomically between batches.

use std::sync::{Arc, Mutex, RwLock};
use std::thread;

use crossbeam_channel::{bounded, Receiver, Sender};

use pipemare_nn::{InferModel, ServeSplit};
use pipemare_telemetry::{FlightRecorder, Recorder, SpanKind};
use pipemare_tensor::{pool, Tensor};

/// The serving plane's recorder, shared across serving threads: the
/// stage threads record spans into it, and the live stats store folds
/// per-stage utilization out of the same black box.
pub type DynRecorder = Arc<FlightRecorder>;

/// A staged, forward-only inference engine over an [`InferModel`].
///
/// Batches submitted with [`StagedEngine::submit`] complete in
/// submission order on [`StagedEngine::completions`]; with more than
/// one batch in flight the stages overlap, so steady-state throughput
/// is set by the slowest stage rather than the whole forward.
pub struct StagedEngine {
    submit_tx: Mutex<Option<Sender<(u64, Tensor)>>>,
    done_rx: Receiver<(u64, Tensor)>,
    weights: Arc<RwLock<Vec<f32>>>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    stages: usize,
}

impl StagedEngine {
    /// Spawns `splits.len()` stage threads computing `model`'s splits
    /// with the given initial parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if `splits` is empty or `params` has the wrong length.
    pub fn new<M: InferModel + 'static>(
        model: Arc<M>,
        splits: Vec<ServeSplit>,
        params: Vec<f32>,
        recorder: DynRecorder,
    ) -> Self {
        assert!(!splits.is_empty(), "need at least one stage split");
        assert_eq!(params.len(), model.param_len(), "parameter vector length mismatch");
        let stages = splits.len();
        let weights = Arc::new(RwLock::new(params));
        let mut handles = Vec::with_capacity(stages);
        // Chain of bounded(1) channels: stage s reads link s, writes
        // link s+1. The single-slot links give natural backpressure —
        // at most ~2·stages batches are in flight at once.
        type Link = (Sender<(u64, Tensor)>, Receiver<(u64, Tensor)>);
        let mut links: Vec<Link> = (0..=stages).map(|_| bounded(1)).collect();
        let (done_tx, done_rx) = links.pop().expect("links is never empty");
        let mut rx_chain: Vec<Receiver<(u64, Tensor)>> = Vec::with_capacity(stages);
        let mut tx_chain: Vec<Sender<(u64, Tensor)>> = Vec::with_capacity(stages);
        let submit_tx = links[0].0.clone();
        for (i, (tx, rx)) in links.into_iter().enumerate() {
            rx_chain.push(rx);
            if i > 0 {
                tx_chain.push(tx);
            }
        }
        tx_chain.push(done_tx);
        for (s, (rx, tx)) in rx_chain.into_iter().zip(tx_chain).enumerate() {
            let model = Arc::clone(&model);
            let split = splits[s];
            let weights = Arc::clone(&weights);
            let recorder = Arc::clone(&recorder);
            handles.push(
                thread::Builder::new()
                    .name(format!("serve-stage-{s}"))
                    .spawn(move || {
                        for (batch_id, x) in rx.iter() {
                            let t0 = recorder.now_us();
                            let y = {
                                let params = weights.read().expect("weights lock poisoned");
                                pool::serial_scope(|| model.infer_split(&params, &split, &x))
                            };
                            let t1 = recorder.now_us();
                            recorder.record_span(
                                SpanKind::Forward,
                                s as u32,
                                s as u32,
                                batch_id as u32,
                                t0,
                                t1,
                            );
                            if tx.send((batch_id, y)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawning a stage thread cannot fail"),
            );
        }
        StagedEngine {
            submit_tx: Mutex::new(Some(submit_tx)),
            done_rx,
            weights,
            handles: Mutex::new(handles),
            stages,
        }
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Submits one batch; blocks when stage 0's input slot is full
    /// (backpressure). Results come back in submission order.
    pub fn submit(&self, batch_id: u64, x: Tensor) {
        // Clone out of the lock so a blocked send never holds it.
        let tx = self.submit_tx.lock().expect("submit lock poisoned").clone();
        if let Some(tx) = tx {
            // The chain only closes at shutdown, after submitters stop.
            let _ = tx.send((batch_id, x));
        }
    }

    /// A handle on the completion stream: `(batch_id, output)` in
    /// submission order. Clones share one consumer queue.
    pub fn completions(&self) -> Receiver<(u64, Tensor)> {
        self.done_rx.clone()
    }

    /// Swaps `params` in as the shared weights between batches (a stage
    /// mid-compute finishes on the old ones) and returns the retired vector.
    ///
    /// # Panics
    ///
    /// Panics if the length changes.
    pub fn swap_weights(&self, params: Vec<f32>) -> Vec<f32> {
        let mut w = self.weights.write().expect("weights lock poisoned");
        assert_eq!(w.len(), params.len(), "parameter vector length mismatch");
        std::mem::replace(&mut *w, params)
    }

    /// Closes the submit side and joins every stage thread. Batches
    /// already in flight still appear on [`StagedEngine::completions`]
    /// before it disconnects. Idempotent.
    pub fn shutdown(&self) {
        *self.submit_tx.lock().expect("submit lock poisoned") = None;
        let handles: Vec<_> =
            self.handles.lock().expect("handles lock poisoned").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_nn::Mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model_and_params() -> (Arc<Mlp>, Vec<f32>) {
        let model = Mlp::new(&[6, 16, 12, 4]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = vec![0.0; model.param_len()];
        pipemare_nn::TrainModel::init_params(&model, &mut params, &mut rng);
        (Arc::new(model), params)
    }

    #[test]
    fn staged_engine_matches_monolithic_forward_bitwise() {
        let (model, params) = model_and_params();
        let recorder: DynRecorder = Arc::new(FlightRecorder::for_pipeline(3));
        for stages in [1usize, 2, 3] {
            let splits = model.serve_splits(stages);
            let engine = Arc::new(StagedEngine::new(
                Arc::clone(&model),
                splits,
                params.clone(),
                recorder.clone(),
            ));
            let mut rng = StdRng::seed_from_u64(100 + stages as u64);
            let inputs: Vec<Tensor> =
                (0..6usize).map(|i| Tensor::randn(&[2 + (i % 3), 6], &mut rng)).collect();
            // Submit from a helper thread: the bounded stage links give
            // backpressure, so submitting 6 batches with nobody draining
            // completions would deadlock a single thread.
            let feeder = {
                let engine = Arc::clone(&engine);
                let inputs = inputs.clone();
                thread::spawn(move || {
                    for (i, x) in inputs.into_iter().enumerate() {
                        engine.submit(i as u64, x);
                    }
                })
            };
            for (i, x) in inputs.iter().enumerate() {
                let (bid, y) = engine.completions().recv().expect("engine dropped a batch");
                assert_eq!(bid, i as u64, "completions must preserve submission order");
                let want = model.infer(&params, x);
                assert_eq!(y, want, "staged output diverged at {stages} stages");
            }
            feeder.join().expect("feeder thread panicked");
            engine.shutdown();
        }
    }

    #[test]
    fn weight_update_takes_effect_between_batches() {
        let (model, params) = model_and_params();
        let recorder: DynRecorder = Arc::new(FlightRecorder::for_pipeline(2));
        let splits = model.serve_splits(2);
        let engine = StagedEngine::new(Arc::clone(&model), splits, params.clone(), recorder);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[3, 6], &mut rng);
        engine.submit(0, x.clone());
        let (_, y0) = engine.completions().recv().unwrap();
        assert_eq!(y0, model.infer(&params, &x));
        let newer: Vec<f32> = params.iter().map(|p| p * 1.5 + 0.01).collect();
        let retired = engine.swap_weights(newer.clone());
        assert_eq!(retired, params, "the swap hands back the weights it replaced");
        engine.submit(1, x.clone());
        let (_, y1) = engine.completions().recv().unwrap();
        assert_eq!(y1, model.infer(&newer, &x));
        engine.shutdown();
    }
}
