//! Serving under faults: a full admission queue sheds the overflow with
//! typed `QueueFull` rejects while what it admitted is served in order,
//! and a weight worker that dies after its handshake surfaces as a typed
//! `Backend` reject naming the dead stage — never a hang.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::comms::{
    channel, loopback_pair, spawn_loopback_workers, Message, RejectReason, Transport,
    PROTOCOL_VERSION,
};
use pipemare::nn::{InferModel, Mlp, TrainModel};
use pipemare::serve::{
    DynRecorder, InferClient, Rejection, ServeConfig, Server, ShardWeightSource, WeightSource,
};
use pipemare::telemetry::FlightRecorder;
use pipemare::tensor::Tensor;

mod common;
use common::within;

const IN: usize = 6;

fn model_and_params(seed: u64) -> (Arc<Mlp>, Vec<f32>) {
    let model = Mlp::new(&[IN, 24, 16, 5]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = vec![0.0; TrainModel::param_len(&model)];
    TrainModel::init_params(&model, &mut params, &mut rng);
    (Arc::new(model), params)
}

fn client(server: &Server) -> InferClient {
    let mut client =
        InferClient::connect(Box::new(server.connect_loopback())).expect("client must connect");
    client.set_timeout(Some(Duration::from_secs(20))).expect("timeout is settable");
    client
}

#[test]
fn full_queue_sheds_with_typed_queue_full_rejects() {
    within("full_queue_sheds_with_typed_queue_full_rejects", || {
        let (model, params) = model_and_params(13);
        let cfg = ServeConfig { stages: 2, queue_cap: 4, max_batch_rows: 16, ..Default::default() };
        let recorder: DynRecorder = Arc::new(FlightRecorder::for_pipeline(cfg.stages));
        let server = Server::start(Arc::clone(&model), params.clone(), cfg, None, recorder)
            .expect("server must start");
        // Freeze the batcher so admission control alone decides: exactly
        // queue_cap requests fit, the rest shed deterministically.
        server.pause_batcher();
        let mut client = client(&server);
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn(&[1, IN], &mut rng);
        let mut ids = Vec::new();
        for _ in 0..10 {
            ids.push(client.send(&x).expect("send must succeed"));
        }
        // The 6 overflow rejects arrive while the batcher is still paused.
        let mut rejected = Vec::new();
        for _ in 0..6 {
            let (id, outcome) = client.recv().expect("reject must arrive");
            let rej = outcome.expect_err("overflow requests must be rejected");
            assert_eq!(rej.reason, RejectReason::QueueFull);
            rejected.push(id);
        }
        server.resume_batcher();
        let want = model.logits(&params, &x);
        let mut served = Vec::new();
        for _ in 0..4 {
            let (id, outcome) = client.recv().expect("result must arrive");
            assert_eq!(outcome.expect("queued requests must be served"), want);
            served.push(id);
        }
        // FIFO admission: the first queue_cap sends are served, the rest shed.
        served.sort_unstable();
        rejected.sort_unstable();
        assert_eq!(served.as_slice(), &ids[..4]);
        assert_eq!(rejected.as_slice(), &ids[4..]);
        let stats = server.shutdown();
        assert_eq!(stats.shed, 6);
        assert_eq!(stats.served_requests, 4);
    });
}

/// A weight worker that completes the handshake and takes its initial
/// shard, then dies — the serving side must observe `WorkerLost`.
fn spawn_dying_worker() -> Box<dyn Transport> {
    let (driver_end, worker_end) = loopback_pair();
    thread::spawn(move || {
        let (mut tx, mut rx) = channel(Box::new(worker_end)).expect("worker channel");
        let Ok(Message::Hello(cfg)) = rx.recv() else { return };
        tx.send(&Message::HelloAck { protocol: PROTOCOL_VERSION, stage: cfg.stage, clock_us: 0 })
            .expect("ack must send");
        let _ = rx.recv(); // InitShard — accepted, then the worker dies.
    });
    Box::new(driver_end)
}

#[test]
fn killed_weight_worker_surfaces_typed_backend_reject() {
    within("killed_weight_worker_surfaces_typed_backend_reject", || {
        let (model, params) = model_and_params(15);
        let splits = model.serve_splits(2);
        // Stage 0 is a real worker; stage 1 dies right after init.
        let (mut transports, handles) = spawn_loopback_workers(1);
        transports.push(spawn_dying_worker());
        let source = ShardWeightSource::connect(
            transports,
            splits,
            &params,
            InferModel::param_len(&*model),
            Some(Duration::from_secs(5)),
        )
        .expect("both workers complete the handshake");
        let cfg = ServeConfig { stages: 2, refresh_every: Some(1), ..Default::default() };
        let recorder: DynRecorder = Arc::new(FlightRecorder::for_pipeline(2));
        let server = Server::start(
            Arc::clone(&model),
            params.clone(),
            cfg,
            Some(Box::new(source) as Box<dyn WeightSource>),
            recorder,
        )
        .expect("server must start");
        let mut client = client(&server);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[1, IN], &mut rng);
        // The first batch triggers a weight refresh, which hits the dead
        // stage-1 link: the request must come back as a typed Backend
        // reject instead of hanging.
        let err =
            client.infer(&x).expect_err("refresh against a dead worker must fail the request");
        let Rejection { reason, message } =
            err.rejection().expect("error must be a typed rejection").clone();
        assert_eq!(reason, RejectReason::Backend);
        assert!(
            message.contains("weight refresh failed"),
            "reject must name the refresh failure, got: {message}"
        );
        assert!(message.contains("stage 1"), "reject must name the dead stage, got: {message}");
        // The server is poisoned: later requests fail fast the same way.
        let err2 = client.infer(&x).expect_err("poisoned server must keep rejecting");
        assert_eq!(err2.rejection().expect("typed rejection").reason, RejectReason::Backend);
        let stats = server.shutdown();
        assert_eq!(stats.rejected_backend, 2);
        assert_eq!(stats.served_requests, 0);
        for h in handles {
            let _ = h.join();
        }
    });
}
