//! A server holds one parameter vector, and a second only while it
//! refreshes live.
//!
//! The engine's shared vector is the weights every stage reads. A live
//! refresh fills a spare outside the engine's lock and swaps it in; the
//! vector it retires becomes the next spare, so however many refreshes
//! run, one parameter-sized block is allocated for them. A server given
//! no weight source never refreshes and allocates none.
//!
//! This file is its own test binary because it installs the counting
//! allocator, and holds a single test because the allocator's counts are
//! process-wide.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::comms::CommsError;
use pipemare::nn::{InferModel, Mlp, TrainModel};
use pipemare::serve::{InferClient, ServeConfig, Server, WeightSource};
use pipemare::telemetry::FlightRecorder;
use pipemare::tensor::{CountingAlloc, Tensor};

mod common;
use common::within;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// pmbench's serving model: 64 → 512 → 512 → 10, two stages.
const WIDTHS: [usize; 4] = [64, 512, 512, 10];

/// Writes the next of its versions into `out` at each refresh.
struct Versions {
    versions: Vec<Vec<f32>>,
    fetched: usize,
}

impl WeightSource for Versions {
    fn fetch_latest(&mut self, out: &mut [f32]) -> Result<(), CommsError> {
        out.copy_from_slice(&self.versions[self.fetched]);
        self.fetched += 1;
        Ok(())
    }
}

/// Starts a server, answers each input in turn on one loopback client
/// (so each request is a batch of its own), shuts it down, and returns
/// the replies with the bytes allocated in parameter-sized blocks from
/// start to shutdown.
fn serve(
    model: &Arc<Mlp>,
    params: Vec<f32>,
    source: Option<Box<dyn WeightSource>>,
    inputs: &[Tensor],
) -> (Vec<Tensor>, u64) {
    let cfg = ServeConfig { stages: 2, refresh_every: Some(1), ..ServeConfig::default() };
    let recorder = Arc::new(FlightRecorder::for_pipeline(cfg.stages));
    ALLOC.watch_large(4 * model.param_len());
    let server =
        Server::start(Arc::clone(model), params, cfg, source, recorder).expect("the server starts");
    let mut client =
        InferClient::connect(Box::new(server.connect_loopback())).expect("the client connects");
    client.set_timeout(Some(Duration::from_secs(5))).expect("the timeout is settable");
    let replies = inputs.iter().map(|x| client.infer(x).expect("the request is served")).collect();
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.batches, inputs.len() as u64, "each sequential request is its own batch");
    (replies, ALLOC.large_bytes())
}

#[test]
fn a_server_holds_one_weight_vector_and_refreshes_through_one_spare() {
    within("a_server_holds_one_weight_vector_and_refreshes_through_one_spare", || {
        let model = Arc::new(Mlp::new(&WIDTHS));
        let param_bytes = 4 * model.param_len() as u64;
        let mut rng = StdRng::seed_from_u64(54);
        let init = |rng: &mut StdRng| {
            let mut params = vec![0.0f32; model.param_len()];
            TrainModel::init_params(&*model, &mut params, rng);
            params
        };
        let inputs: Vec<Tensor> = (0..4).map(|i| Tensor::randn(&[1 + i, 64], &mut rng)).collect();

        // (a) No source: the start-up vector is the only one.
        let params = init(&mut rng);
        let want: Vec<Tensor> = inputs.iter().map(|x| model.infer(&params, x)).collect();
        let (got, large) = serve(&model, params, None, &inputs);
        assert_eq!(got, want, "a server without a source answers from its start-up weights");
        assert_eq!(large, 0, "a server without a source allocated a parameter-sized block");

        // (b) Refresh before every batch: request k is answered with
        // version k, through one spare however many refreshes run.
        let params = init(&mut rng);
        let versions: Vec<Vec<f32>> = inputs.iter().map(|_| init(&mut rng)).collect();
        let want: Vec<Tensor> =
            versions.iter().zip(&inputs).map(|(v, x)| model.infer(v, x)).collect();
        let source = Versions { versions, fetched: 0 };
        let (got, large) = serve(&model, params, Some(Box::new(source)), &inputs);
        assert_eq!(got, want, "a refreshed request was not answered by its version");
        assert_eq!(large, param_bytes, "live refresh allocated other than one spare");
    });
}
