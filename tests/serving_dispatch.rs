//! The serving batcher is work-conserving: a lone request is dispatched
//! as soon as it is queued, however long `ServeConfig::deadline` is, and
//! a backlog that built up while the batcher could not run leaves in
//! batches as large as the row cap allows. Every reply is bit-identical
//! to the training-path forward.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::core::serve_checkpoint;
use pipemare::nn::{Mlp, TrainModel};
use pipemare::serve::{InferClient, ServeConfig, Server};
use pipemare::tensor::Tensor;

const IN: usize = 6;

fn model_and_params() -> (Arc<Mlp>, Vec<f32>) {
    let model = Mlp::new(&[IN, 16, 12, 4]);
    let mut params = vec![0.0; TrainModel::param_len(&model)];
    TrainModel::init_params(&model, &mut params, &mut StdRng::seed_from_u64(29));
    (Arc::new(model), params)
}

fn client(server: &Server) -> InferClient {
    let mut client =
        InferClient::connect(Box::new(server.connect_loopback())).expect("client connects");
    client.set_timeout(Some(Duration::from_secs(20))).expect("timeout is settable");
    client
}

#[test]
fn a_lone_request_is_not_held_for_the_deadline() {
    let (model, params) = model_and_params();
    // A batcher that waited out this window would need 20 × 250 ms.
    let cfg = ServeConfig { deadline: Duration::from_millis(250), ..ServeConfig::default() };
    let (server, _recorder) =
        serve_checkpoint(Arc::clone(&model), params.clone(), cfg).expect("server starts");
    let mut client = client(&server);
    let mut rng = StdRng::seed_from_u64(1);
    let t0 = Instant::now();
    for _ in 0..20 {
        let x = Tensor::randn(&[1, IN], &mut rng);
        assert_eq!(client.infer(&x).expect("served"), model.logits(&params, &x));
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "20 sequential requests took {took:?}");
    let stats = server.shutdown();
    assert_eq!(stats.batch_rows, vec![1; 20], "each sequential request is its own batch");
}

/// Queues `n` one-row requests while the batcher is paused, resumes it,
/// checks every reply, and returns the rows of each dispatched batch.
fn drain_backlog(max_batch_rows: u32, n: usize) -> Vec<u32> {
    let (model, params) = model_and_params();
    let cfg = ServeConfig { max_batch_rows, queue_cap: 64, ..ServeConfig::default() };
    let (server, _recorder) =
        serve_checkpoint(Arc::clone(&model), params.clone(), cfg).expect("server starts");
    server.pause_batcher();
    let mut client = client(&server);
    let mut rng = StdRng::seed_from_u64(n as u64);
    let inputs: Vec<Tensor> = (0..n).map(|_| Tensor::randn(&[1, IN], &mut rng)).collect();
    let ids: Vec<u64> = inputs.iter().map(|x| client.send(x).expect("send")).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().accepted < n as u64 {
        assert!(Instant::now() < deadline, "the readers never admitted {n} requests");
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.stats().batches, 0, "a paused batcher dispatches nothing");
    server.resume_batcher();
    for _ in 0..n {
        let (id, reply) = client.recv().expect("a reply arrives");
        let i = ids.iter().position(|&want| want == id).expect("a reply to a sent id");
        assert_eq!(reply.expect("served"), model.logits(&params, &inputs[i]));
    }
    server.shutdown().batch_rows
}

#[test]
fn a_queued_backlog_leaves_in_batches_up_to_the_cap() {
    assert_eq!(drain_backlog(16, 5), vec![5]);
    assert_eq!(drain_backlog(16, 40), vec![16, 16, 8]);
}
