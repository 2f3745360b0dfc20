//! End-to-end serving tests: concurrent clients over loopback and TCP
//! get bit-identical results, and a malformed request gets a typed
//! reject. The fault paths (a full queue, a killed weight worker) are the
//! workspace's root `tests/serving_faults.rs`.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pipemare_comms::{RejectReason, TcpTransport, Transport};
use pipemare_nn::{Mlp, TrainModel};
use pipemare_serve::{DynRecorder, InferClient, ServeConfig, Server};
use pipemare_telemetry::FlightRecorder;
use pipemare_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const IN: usize = 6;

fn model_and_params(seed: u64) -> (Arc<Mlp>, Vec<f32>) {
    let model = Mlp::new(&[IN, 24, 16, 5]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = vec![0.0; TrainModel::param_len(&model)];
    TrainModel::init_params(&model, &mut params, &mut rng);
    (Arc::new(model), params)
}

fn start_server(model: &Arc<Mlp>, params: &[f32], cfg: ServeConfig) -> Server {
    let recorder: DynRecorder = Arc::new(FlightRecorder::for_pipeline(cfg.stages));
    Server::start(Arc::clone(model), params.to_vec(), cfg, None, recorder)
        .expect("server must start")
}

/// Drives `n_requests` blocking round trips and checks each result
/// bit-for-bit against the training-path forward (`Mlp::logits`).
fn drive_client(
    transport: Box<dyn Transport>,
    model: &Mlp,
    params: &[f32],
    seed: u64,
    n_requests: usize,
) {
    let mut client = InferClient::connect(transport).expect("client must connect");
    client.set_timeout(Some(Duration::from_secs(20))).expect("timeout is settable");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n_requests {
        let rows = 1 + (seed as usize + i) % 4;
        let x = Tensor::randn(&[rows, IN], &mut rng);
        let got = client.infer(&x).expect("request must be served");
        let want = model.logits(params, &x);
        assert_eq!(got, want, "serving output must be bit-identical to the training forward");
    }
}

#[test]
fn concurrent_loopback_clients_get_bit_identical_results() {
    let (model, params) = model_and_params(11);
    let server = start_server(&model, &params, ServeConfig { stages: 3, ..Default::default() });
    let mut clients = Vec::new();
    for c in 0..8u64 {
        let transport: Box<dyn Transport> = Box::new(server.connect_loopback());
        let model = Arc::clone(&model);
        let params = params.clone();
        clients.push(thread::spawn(move || drive_client(transport, &model, &params, c, 10)));
    }
    for c in clients {
        c.join().expect("client thread panicked");
    }
    let stats = server.shutdown();
    assert_eq!(stats.served_requests, 80);
    assert_eq!(stats.accepted, 80);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.batches as usize, stats.batch_rows.len());
    assert_eq!(
        stats.batch_rows.iter().map(|&r| r as u64).sum::<u64>(),
        stats.served_rows,
        "every admitted row must be dispatched exactly once"
    );
}

#[test]
fn concurrent_tcp_clients_get_bit_identical_results() {
    let (model, params) = model_and_params(12);
    let mut server = start_server(&model, &params, ServeConfig { stages: 2, ..Default::default() });
    let addr = server.listen_tcp("127.0.0.1:0").expect("listen must succeed");
    let mut clients = Vec::new();
    for c in 0..4u64 {
        let model = Arc::clone(&model);
        let params = params.clone();
        let addr = addr.to_string();
        clients.push(thread::spawn(move || {
            let transport: Box<dyn Transport> =
                Box::new(TcpTransport::connect(&addr).expect("tcp connect"));
            drive_client(transport, &model, &params, 100 + c, 8)
        }));
    }
    for c in clients {
        c.join().expect("client thread panicked");
    }
    let stats = server.shutdown();
    assert_eq!(stats.served_requests, 32);
    assert_eq!(stats.shed, 0);
}

#[test]
fn malformed_requests_get_invalid_rejects() {
    let (model, params) = model_and_params(14);
    let server = start_server(&model, &params, ServeConfig::default());
    let mut client =
        InferClient::connect(Box::new(server.connect_loopback())).expect("client must connect");
    client.set_timeout(Some(Duration::from_secs(20))).expect("timeout is settable");
    let mut rng = StdRng::seed_from_u64(8);
    // Wrong width: the model wants IN columns.
    let bad = Tensor::randn(&[2, IN + 1], &mut rng);
    let err = client.infer(&bad).expect_err("wrong-width input must be rejected");
    let rej = err.rejection().expect("error must be a typed rejection").clone();
    assert_eq!(rej.reason, RejectReason::Invalid);
    // The connection survives a rejected request.
    let good = Tensor::randn(&[2, IN], &mut rng);
    assert_eq!(client.infer(&good).expect("valid request"), model.logits(&params, &good));
    server.shutdown();
}
