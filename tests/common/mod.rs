//! Shared by the threaded tests: a case that deadlocks fails
//! within seconds, naming its case, instead of hanging the test binary.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How long one case may take. Executor cases finish in milliseconds and
/// the claims ledger's slowest analytic row in about three seconds; this
/// only has to outlast a loaded host.
const DEADLINE: Duration = Duration::from_secs(10);

/// Runs `f` on a helper thread and returns its result, re-raising its
/// panic; panics naming `case` if `f` has not returned by the deadline.
/// A deadlocked run is left behind on its thread, which ends with the
/// test process.
#[track_caller]
pub fn within<T: Send + 'static>(case: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(out) => out,
        Err(RecvTimeoutError::Disconnected) => match helper.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the helper sends before it returns"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("{case}: no result after {DEADLINE:?}; it deadlocked or ran away")
        }
    }
}
