//! Runs every row of the claims ledger, prints each artifact's numbers
//! and verdicts, and writes the ledger to
//! `$PIPEMARE_EXPERIMENTS_DIR/claims.json` (checked in as `CLAIMS.json`).
//!
//! ```text
//! cargo run --release -p pipemare-bench --bin claims
//! ```

use pipemare_bench::claims::{ledger, render, rows, run};

fn main() -> std::io::Result<()> {
    let mut logs = Vec::new();
    for row in rows() {
        let log = run(row);
        println!("== {}\n\n{}", row.0, render(&log));
        logs.push(log);
    }
    let path = ledger(&logs).save()?;
    println!("ledger written to {}", path.display());
    Ok(())
}
