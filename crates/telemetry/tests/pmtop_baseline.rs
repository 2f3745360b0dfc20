//! End-to-end test of `pm top --baseline`: a real `pm top` process
//! polling two synthetic stats endpoints and diffing the first against
//! a saved baseline payload, in both rendered and `--json` modes.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use pipemare_telemetry::{scrape_once, LiveStore, MetricsRegistry, StatsEndpoint};

fn pmtop() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pm"));
    cmd.arg("top");
    cmd
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmtop_base_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A synthetic scrape target: a live store whose registry carries one
/// counter at `accepted`, sampled once so the ring has a payload.
fn endpoint(role: &str, accepted: u64) -> (StatsEndpoint, String) {
    let reg = Arc::new(MetricsRegistry::new());
    reg.counter("serve.accepted").add(accepted);
    reg.gauge("serve.queue_depth").set(3.0);
    let store = Arc::new(LiveStore::new(role, 2).with_registry(reg));
    store.sample();
    let ep = StatsEndpoint::bind("127.0.0.1:0", Arc::clone(&store)).unwrap();
    let addr = ep.addr().to_string();
    (ep, addr)
}

#[test]
fn baseline_delta_renders_and_emits_json() {
    let dir = temp_dir("delta");
    let (_ep_a, addr_a) = endpoint("run-a", 100);
    let (_ep_b, addr_b) = endpoint("run-b", 150);

    // The baseline file is run A's raw scrape payload — the same bytes
    // `pm top --save-baseline` writes.
    let base_path = dir.join("base.json");
    let payload = scrape_once(&addr_a, std::time::Duration::from_secs(5)).unwrap();
    std::fs::write(&base_path, payload).unwrap();

    // Rendered mode: the delta block names the counter and its +50%.
    let out = pmtop()
        .args(["--once", "--baseline"])
        .arg(&base_path)
        .arg(&addr_b)
        .arg(&addr_a)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("pmtop delta"), "{text}");
    assert!(text.contains("serve.accepted"), "{text}");
    assert!(text.contains("+50.0%"), "{text}");
    // Both endpoints rendered before the delta block.
    assert!(text.contains("run-a") && text.contains("run-b"), "{text}");

    // JSON mode: one raw payload line per endpoint plus a final
    // baseline_delta object.
    let out = pmtop()
        .args(["--once", "--json", "--baseline"])
        .arg(&base_path)
        .arg(&addr_b)
        .arg(&addr_a)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    let last = pipemare_telemetry::json::parse(lines[2]).unwrap();
    let delta = last.get("baseline_delta").expect("baseline_delta object");
    let counters = delta.get("counters").expect("counters");
    let acc = counters.get("serve.accepted").expect("serve.accepted");
    assert_eq!(acc.get("base").unwrap().as_f64(), Some(100.0));
    assert_eq!(acc.get("cur").unwrap().as_f64(), Some(150.0));
    // No event source feeds these synthetic stores, so the per-stage
    // comparison is present but empty.
    assert!(delta.get("stages").and_then(|s| s.as_arr()).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
