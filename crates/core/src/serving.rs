//! Bridges trained models onto the serving frontend.
//!
//! `pipemare-serve` deliberately does not depend on this crate, so this
//! module is the glue in the other direction: take a parameter vector a
//! [`crate::PipelineTrainer`] (or checkpoint) produced and stand up a
//! [`Server`] for it — either frozen, or refreshing live from loopback
//! shard workers exactly like the distributed trainer's, via step-free
//! `PassKind::Latest` fetches.
//!
//! Every entry point wires a [`FlightRecorder`] through the serving
//! threads (the always-on black box), so `pm trace` can summarize a
//! serving incident the same way it summarizes a training one.

use std::sync::Arc;

use pipemare_comms::{spawn_loopback_workers, CommsError, WorkerHandle};
use pipemare_nn::InferModel;
use pipemare_serve::{ServeConfig, Server, ShardWeightSource, WeightSource};
use pipemare_telemetry::FlightRecorder;

/// Serves a frozen parameter vector (e.g. a loaded checkpoint).
///
/// Returns the running server plus the flight recorder observing it —
/// tracks `0..stages` carry per-stage `forward` spans, track `stages`
/// the batcher's `coalesce` and per-request `wait_fwd` spans.
pub fn serve_checkpoint<M: InferModel + 'static>(
    model: Arc<M>,
    params: Vec<f32>,
    cfg: ServeConfig,
) -> Result<(Server, Arc<FlightRecorder>), String> {
    let recorder = Arc::new(FlightRecorder::for_pipeline(cfg.stages));
    let server = Server::start(model, params, cfg, None, Arc::clone(&recorder))?;
    Ok((server, recorder))
}

/// Serves with live weight refresh from in-process loopback shard
/// workers — the full serve-while-training wire path without sockets.
///
/// One stage worker thread is spawned per pipeline stage that owns
/// parameters and seeded with its shard of `params`; every
/// [`ServeConfig::refresh_every`] batches the server re-fetches each
/// worker's latest committed shard. The engine still runs every stage.
/// The worker handles are returned so callers can join them after
/// [`Server::shutdown`] (which tells the workers to exit).
pub fn serve_live_loopback<M: InferModel + 'static>(
    model: Arc<M>,
    params: Vec<f32>,
    cfg: ServeConfig,
) -> Result<(Server, Arc<FlightRecorder>, Vec<WorkerHandle>), CommsError> {
    // A split without parameters (a lone activation) has nothing to
    // refresh, so it gets no worker.
    let splits: Vec<_> =
        model.serve_splits(cfg.stages).into_iter().filter(|s| s.param_hi > s.param_lo).collect();
    let (transports, handles) = spawn_loopback_workers(splits.len());
    let source = ShardWeightSource::connect(
        transports,
        splits,
        &params,
        model.param_len(),
        cfg.conn_recv_timeout,
    )?;
    let recorder = Arc::new(FlightRecorder::for_pipeline(cfg.stages));
    let server = Server::start(
        model,
        params,
        cfg,
        Some(Box::new(source) as Box<dyn WeightSource>),
        Arc::clone(&recorder),
    )
    .map_err(CommsError::Unsupported)?;
    Ok((server, recorder, handles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_nn::Mlp;
    use pipemare_serve::InferClient;
    use pipemare_telemetry::{EventSource, SpanKind};
    use pipemare_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn model_and_params() -> (Arc<Mlp>, Vec<f32>) {
        let model = Mlp::new(&[4, 12, 3]);
        let mut rng = StdRng::seed_from_u64(21);
        let mut params = vec![0.0; pipemare_nn::TrainModel::param_len(&model)];
        pipemare_nn::TrainModel::init_params(&model, &mut params, &mut rng);
        (Arc::new(model), params)
    }

    #[test]
    fn serve_checkpoint_answers_and_flight_records() {
        let (model, params) = model_and_params();
        let cfg = ServeConfig { stages: 2, ..Default::default() };
        let (server, recorder) =
            serve_checkpoint(Arc::clone(&model), params.clone(), cfg).expect("server must start");
        let mut client =
            InferClient::connect(Box::new(server.connect_loopback())).expect("client must connect");
        client.set_timeout(Some(Duration::from_secs(20))).expect("timeout is settable");
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let got = client.infer(&x).expect("request must be served");
        assert_eq!(got, model.logits(&params, &x));
        server.shutdown();
        let events = recorder.snapshot_events();
        assert!(
            events.iter().any(|e| e.kind == SpanKind::Forward),
            "flight recorder must capture stage forward spans"
        );
        assert!(
            events.iter().any(|e| e.kind == SpanKind::Coalesce),
            "flight recorder must capture batcher coalesce spans"
        );
    }

    #[test]
    fn serve_live_loopback_round_trips_through_shard_workers() {
        live_loopback_answers_like_the_training_forward(2);
    }

    /// At 3 stages split 1 of `[4, 12, 3]` is the lone ReLU, and at 4 the
    /// last split is empty too: splits without parameters get no worker.
    #[test]
    fn live_serving_skips_splits_without_parameters() {
        for stages in [3, 4] {
            live_loopback_answers_like_the_training_forward(stages);
        }
    }

    fn live_loopback_answers_like_the_training_forward(stages: usize) {
        let (model, params) = model_and_params();
        let cfg = ServeConfig { stages, refresh_every: Some(1), ..Default::default() };
        let (server, _recorder, handles) =
            serve_live_loopback(Arc::clone(&model), params.clone(), cfg)
                .expect("live serving must start");
        let mut client =
            InferClient::connect(Box::new(server.connect_loopback())).expect("client must connect");
        client.set_timeout(Some(Duration::from_secs(20))).expect("timeout is settable");
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..3 {
            let x = Tensor::randn(&[1, 4], &mut rng);
            // The workers were seeded with the same params the engine
            // started from, so refreshed weights change nothing.
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let got = client.infer(&x).expect("request must be served");
            assert_eq!(bits(&got), bits(&model.logits(&params, &x)), "stages={stages}");
        }
        server.shutdown();
        for h in handles {
            h.join().expect("worker thread panicked").expect("worker must exit cleanly");
        }
    }
}
