//! The claims ledger's tier-1 half: the analytic rows recompute exactly
//! what `CLAIMS.json` holds, and each of EXPERIMENTS.md's generated
//! blocks is the rendering of `CLAIMS.json`. The training rows run in CI,
//! through `scripts/check_bench.sh`.

use pipemare_bench::claims::{row_log, rows, run, update_doc, ANALYTIC};
use pipemare_bench::report::ExperimentLog;
use pipemare_telemetry::json;

mod common;
use common::within;

fn read(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn checked_in() -> ExperimentLog {
    ExperimentLog::from_json(&json::parse(&read("CLAIMS.json")).unwrap()).unwrap()
}

#[test]
fn the_analytic_rows_recompute_claims_json() {
    let ledger = checked_in();
    // One thread per row, each under the deadline: a row that hangs fails
    // naming itself.
    let fresh: Vec<ExperimentLog> = std::thread::scope(|s| {
        let runs: Vec<_> =
            ANALYTIC.iter().map(|row| s.spawn(move || within(row.0, move || run(row)))).collect();
        runs.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (fresh, (id, _)) in fresh.into_iter().zip(ANALYTIC) {
        let stored = row_log(&ledger, id);
        assert_eq!(fresh.series, stored.series, "{id}: series differ from CLAIMS.json");
        assert_eq!(fresh.scalars, stored.scalars, "{id}: scalars differ from CLAIMS.json");
    }
}

#[test]
fn experiments_md_blocks_are_rendered_from_claims_json() {
    let ledger = checked_in();
    let owned: usize =
        rows().map(|(id, _)| row_log(&ledger, id)).map(|l| l.series.len() + l.scalars.len()).sum();
    assert_eq!(owned, ledger.series.len() + ledger.scalars.len(), "CLAIMS.json has keys of no row");
    let doc = read("EXPERIMENTS.md");
    let want = update_doc(&doc, &ledger).unwrap();
    if doc != want {
        let out = std::env::temp_dir().join("EXPERIMENTS.md");
        std::fs::write(&out, &want).unwrap();
        panic!(
            "EXPERIMENTS.md's claims blocks differ from CLAIMS.json; rendered: {}",
            out.display()
        );
    }
}
