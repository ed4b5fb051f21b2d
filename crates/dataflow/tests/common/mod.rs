//! Helpers shared by the integration-test binaries of this crate.

use std::sync::mpsc;
use std::time::Duration;

/// Runs `body` on a helper thread and fails the test if it has not
/// returned within `limit`: a lost wakeup parks threads forever, and a
/// test that hangs names nothing — one that misses a deadline names itself.
pub fn within(limit: Duration, what: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        // Returned or panicked: join to surface the helper's own failure.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: still running after {limit:?} — deadlocked, or every thread parked on a lost wakeup?")
        }
    }
}
