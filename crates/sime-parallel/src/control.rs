//! Run control: progress observation, cooperative cancellation and
//! target-quality stops.
//!
//! Every strategy driver in this crate runs on one bulk-synchronous epoch
//! loop; each entry point (`run_typeN`, `run_portfolio`) threads a
//! [`RunControl`] through that loop, which calls
//! [`RunControl::keep_going`] exactly once **after** each completed
//! iteration (the µ value of the iteration has been pushed to the history and
//! the best-so-far bookkeeping has run). The callback is the strategy's only
//! cancellation point: returning `false` stops the run *before* the next
//! iteration starts, so a cancelled run's trajectory is a bitwise-exact
//! prefix of the uncancelled run's trajectory — no RNG stream is read past
//! the boundary, no partial iteration is observable.
//!
//! Observation never influences the run: the callback receives copies of the
//! iteration index and µ values and has no channel back into the engine
//! other than the boolean. This is what lets the `sime-server` job engine
//! stream progress from live runs while the golden registry keeps holding —
//! a job that runs to completion is bit-identical to the batch path whether
//! or not anyone watched it.
//!
//! ```
//! use sime_parallel::control::{CancelToken, FreeRun, RunControl};
//!
//! // The default control never stops a run.
//! assert!(FreeRun.keep_going(7, 0.5, 0.6));
//!
//! // A token stops the run at the first iteration boundary after `cancel`.
//! let token = CancelToken::new();
//! assert!(token.keep_going(0, 0.5, 0.5));
//! token.cancel();
//! assert!(!token.keep_going(1, 0.6, 0.6));
//! assert!(token.is_cancelled());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Observer + cancellation hook for one strategy run. See the
/// [module docs](self) for the exact call point and determinism argument.
pub trait RunControl: Sync {
    /// Called once after every completed iteration with the iteration index
    /// (0-based), the iteration's µ(s) and the best µ(s) seen so far.
    /// Returning `false` ends the run before the next iteration.
    fn keep_going(&self, iteration: usize, mu: f64, best_mu: f64) -> bool;
}

/// The no-op control: observe nothing, never cancel. Passing it to a
/// `run_typeN` entry point runs all configured iterations.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreeRun;

impl RunControl for FreeRun {
    fn keep_going(&self, _iteration: usize, _mu: f64, _best_mu: f64) -> bool {
        true
    }
}

/// A shareable cancellation flag: any thread may call [`CancelToken::cancel`]
/// and the run stops at its next iteration boundary. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; the run stops before its next iteration.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

impl RunControl for CancelToken {
    fn keep_going(&self, _iteration: usize, _mu: f64, _best_mu: f64) -> bool {
        !self.is_cancelled()
    }
}

/// Combines a cancellation token with a progress callback — the shape the
/// job engine uses: the callback streams µ-checkpoints to a client while the
/// token remains the jobs' cancellation lever.
pub struct ObservedRun<'a> {
    token: &'a CancelToken,
    observer: Box<dyn Fn(usize, f64, f64) + Sync + Send + 'a>,
}

impl<'a> ObservedRun<'a> {
    /// A control that invokes `observer(iteration, mu, best_mu)` after every
    /// iteration and stops when `token` is cancelled.
    pub fn new(
        token: &'a CancelToken,
        observer: impl Fn(usize, f64, f64) + Sync + Send + 'a,
    ) -> Self {
        ObservedRun {
            token,
            observer: Box::new(observer),
        }
    }
}

impl RunControl for ObservedRun<'_> {
    fn keep_going(&self, iteration: usize, mu: f64, best_mu: f64) -> bool {
        (self.observer)(iteration, mu, best_mu);
        !self.token.is_cancelled()
    }
}

/// A control that stops the run after iteration `cancel_after` completes —
/// the deterministic cancellation point the job-schedule proptests replay
/// against the serial oracle (both sides truncate at the same boundary, so
/// even cancelled trajectories compare bitwise).
#[derive(Debug, Clone, Copy)]
pub struct CancelAfter(pub usize);

impl RunControl for CancelAfter {
    fn keep_going(&self, iteration: usize, _mu: f64, _best_mu: f64) -> bool {
        iteration < self.0
    }
}

/// A control that races to a quality: the run stops at the first iteration
/// boundary where the best µ(s) so far reaches the target. It works on every
/// strategy, and the stopped run is a bitwise prefix of the free run.
#[derive(Debug, Clone, Copy)]
pub struct TargetMu(pub f64);

impl RunControl for TargetMu {
    fn keep_going(&self, _iteration: usize, _mu: f64, best_mu: f64) -> bool {
        best_mu < self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn free_run_never_stops() {
        for i in 0..10 {
            assert!(FreeRun.keep_going(i, 0.0, 0.0));
        }
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(a.keep_going(0, 0.1, 0.1));
        b.cancel();
        assert!(!a.keep_going(1, 0.1, 0.1));
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn observed_run_sees_every_iteration_and_honours_the_token() {
        let token = CancelToken::new();
        let seen = Mutex::new(Vec::new());
        let control = ObservedRun::new(&token, |i, mu, best| {
            seen.lock().unwrap().push((i, mu, best));
        });
        assert!(control.keep_going(0, 0.25, 0.25));
        assert!(control.keep_going(1, 0.5, 0.5));
        token.cancel();
        // The observer still sees the boundary the cancellation lands on.
        assert!(!control.keep_going(2, 0.4, 0.5));
        assert_eq!(
            *seen.lock().unwrap(),
            vec![(0, 0.25, 0.25), (1, 0.5, 0.5), (2, 0.4, 0.5)]
        );
    }

    #[test]
    fn cancel_after_stops_exactly_at_its_boundary() {
        let control = CancelAfter(2);
        assert!(control.keep_going(0, 0.0, 0.0));
        assert!(control.keep_going(1, 0.0, 0.0));
        assert!(!control.keep_going(2, 0.0, 0.0));
    }

    #[test]
    fn a_target_stops_the_run_once_the_best_reaches_it() {
        let control = TargetMu(0.5);
        assert!(control.keep_going(0, 0.7, 0.4));
        assert!(!control.keep_going(1, 0.3, 0.5));
        assert!(!control.keep_going(2, 0.3, 0.6));
    }
}
