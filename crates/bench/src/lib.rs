//! The experiment harness. [`claims`] is the claims ledger: one row per
//! table and figure of the paper, run by the `claims` binary and checked
//! in as `CLAIMS.json`. The infrastructure benches under `benches/` time
//! kernels, the executor, the wire, serving and telemetry. The workload
//! builders and the experiment log they share live here, so every row
//! sees the same model, dataset and hyperparameters (as in the paper,
//! where e.g. Figure 4 and Table 3 share setups).

pub mod claims;
pub mod loadgen;
pub mod report;
pub mod workloads;
