//! A deterministic virtual scheduler for the speculative engine.
//!
//! The engine's concurrency bugs live in *orderings*: which worker's
//! contribution reaches the collection loop first, whether a late
//! contribution arrives before or after the misspeculation that squashes
//! it. On a real machine those
//! orderings are wall-clock accidents — a test can provoke them only by
//! spinning and hoping. [`VirtualScheduler`] turns them into data: a
//! *script* of [`SchedPoint`]s that the engine's threads rendezvous on,
//! so any interleaving can be written down, replayed, and regression
//! tested, and a seeded explorer ([`VirtualScheduler::random_arrivals`])
//! can walk many interleavings reproducibly.
//!
//! # How gating works
//!
//! Each instrumented site in the engine wraps its effect in
//! [`VirtualScheduler::run`]`(point, f)`:
//!
//! * If `point` does not appear in the remaining script, `f` runs
//!   immediately — scripts are *partial* orders; unlisted work is
//!   unconstrained.
//! * Otherwise the caller blocks until `point` is at the *front* of the
//!   script, runs `f` while holding the turn (so the gated effect — a
//!   channel send, a flag store — completes before the next script entry
//!   is released), then pops the entry and wakes the other waiters.
//!
//! Because a worker emits its own points in program order and the engine
//! thread never blocks on the scheduler, a script that respects each
//! worker's internal order can always make progress. Two safety valves
//! cover scripts that cannot: a worker retires its remaining entries
//! when it exits ([`VirtualScheduler::retire_worker`] — e.g. it stopped
//! contributing because a misspeculation squashed its span), and a
//! generous per-wait timeout force-pops the front entry rather than
//! hanging the test (counted by [`VirtualScheduler::timeouts`], which a
//! deterministic test should assert is zero).
//!
//! # Example
//!
//! Forcing the "late contribution after squash" race (see
//! `tests/engine_schedule.rs`): script `[Iter{0,2}, Misspec{1},
//! Contribute{0,0}]` holds worker 1's misspeculation until worker 0 has
//! finished its period-0 iterations, then publishes the squash, then
//! releases worker 0's contribution — which now arrives *after* the
//! squash is known and must be dropped on arrival, deterministically.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One serialization point in the engine's concurrent execution.
///
/// `worker` indices match [`crate::engine::EngineConfig::workers`]
/// (0-based); `period` and `iter` are span-relative, exactly as the
/// engine numbers them. Because each worker retires its remaining
/// entries when it exits, a script constrains the *current* span; after
/// a misspeculation resume the surviving entries (if any) apply to the
/// resumed span's renumbered workers and periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPoint {
    /// Worker `worker` executes iteration `iter` — the whole step (body
    /// and checks) runs while holding the turn, so everything the
    /// iteration publishes is visible before the next entry releases.
    Iter {
        /// Worker index.
        worker: usize,
        /// Absolute iteration number.
        iter: i64,
    },
    /// Worker `worker` sends its contribution for checkpoint `period`.
    Contribute {
        /// Worker index.
        worker: usize,
        /// Span-relative checkpoint period.
        period: u64,
    },
    /// Worker `worker` publishes a misspeculation (squash flag plus the
    /// detection message, atomically under the turn).
    Misspec {
        /// Worker index.
        worker: usize,
    },
}

impl SchedPoint {
    /// The worker that emits this point.
    fn owner_worker(&self) -> usize {
        match *self {
            SchedPoint::Iter { worker, .. }
            | SchedPoint::Contribute { worker, .. }
            | SchedPoint::Misspec { worker } => worker,
        }
    }
}

#[derive(Debug, Default)]
struct SchedState {
    script: VecDeque<SchedPoint>,
    /// Whether some thread currently holds the turn (is running its
    /// gated closure). The front entry is popped only after the closure
    /// returns, so no other entry can fire in between.
    active: bool,
    fired: Vec<SchedPoint>,
    timeouts: u64,
}

/// The scheduler handle, shared (via `Arc`) between the test, the engine
/// and its worker threads. See the [module docs](self) for the
/// gating protocol.
#[derive(Debug)]
pub struct VirtualScheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
    timeout: Duration,
}

/// How long a blocked gate waits before force-popping the front entry
/// instead of hanging the run. Scripts that respect program order never
/// hit this; it bounds the damage of ones that don't.
const DEFAULT_GATE_TIMEOUT: Duration = Duration::from_secs(5);

impl VirtualScheduler {
    /// A scheduler that releases the given points strictly in order.
    pub fn scripted(script: Vec<SchedPoint>) -> Arc<VirtualScheduler> {
        Arc::new(VirtualScheduler {
            state: Mutex::new(SchedState {
                script: script.into(),
                ..SchedState::default()
            }),
            cv: Condvar::new(),
            timeout: DEFAULT_GATE_TIMEOUT,
        })
    }

    /// A seeded random exploration of contribution-arrival orders: every
    /// `Contribute { worker, period }` point for `workers × periods` is
    /// scheduled in a shuffled order that preserves each worker's own
    /// period order (any other order could never occur and would only
    /// stall into the retire/timeout valves). The same seed always
    /// yields the same interleaving.
    pub fn random_arrivals(workers: usize, periods: u64, seed: u64) -> Arc<VirtualScheduler> {
        let mut next = vec![0u64; workers.max(1)];
        let mut script = Vec::with_capacity(workers * periods as usize);
        let mut s = seed;
        while script.len() < workers * periods as usize {
            s = splitmix64(s);
            let live: Vec<usize> = (0..workers.max(1)).filter(|&w| next[w] < periods).collect();
            let w = live[(s % live.len() as u64) as usize];
            script.push(SchedPoint::Contribute {
                worker: w,
                period: next[w],
            });
            next[w] += 1;
        }
        VirtualScheduler::scripted(script)
    }

    /// Run `f` at serialization point `point`: immediately if the point
    /// is not in the remaining script, otherwise once every earlier
    /// script entry has fired (holding the turn while `f` runs).
    pub fn run<T>(&self, point: SchedPoint, f: impl FnOnce() -> T) -> T {
        let mut st = self.state.lock().expect("scheduler lock");
        loop {
            if !st.script.contains(&point) {
                // Unlisted (or force-popped after a timeout): run free.
                drop(st);
                return f();
            }
            if !st.active && st.script.front() == Some(&point) {
                // Claim the turn: pop and record the entry *before*
                // running the closure, so `fired()`/`remaining()` are
                // up to date the moment the gated effect lands. (The
                // effect itself can let another thread finish the run —
                // a worker's last contribution releases the engine's
                // collection loop — and a pop-after-run would race the caller's
                // post-run `fired()` read.) `active` stays set until the
                // closure returns, so the next entry cannot fire early.
                st.active = true;
                let fired = st.script.pop_front().expect("turn holder owns the front");
                st.fired.push(fired);
                drop(st);
                let r = f();
                self.state.lock().expect("scheduler lock").active = false;
                self.cv.notify_all();
                return r;
            }
            let (guard, wait) = self
                .cv
                .wait_timeout(st, self.timeout)
                .expect("scheduler lock");
            st = guard;
            if wait.timed_out() && !st.active {
                // Safety valve: the front entry's emitter is never
                // coming (a script that contradicts program order).
                // Discard it so the run completes and the test can
                // assert on `timeouts()` instead of hanging.
                st.timeouts += 1;
                if let Some(p) = st.script.pop_front() {
                    st.fired.push(p);
                }
                self.cv.notify_all();
            }
        }
    }

    /// Remove every remaining script entry emitted by worker `w`. Called
    /// by the engine when a worker exits (it finished its range, or a
    /// squash stopped it mid-span), so entries the worker will never
    /// reach cannot block the rest of the script.
    pub fn retire_worker(&self, w: usize) {
        let mut st = self.state.lock().expect("scheduler lock");
        st.script.retain(|p| p.owner_worker() != w);
        self.cv.notify_all();
    }

    /// How many gates gave up waiting and force-popped the front entry.
    /// Zero for every script consistent with program order — assert this
    /// in deterministic replay tests.
    pub fn timeouts(&self) -> u64 {
        self.state.lock().expect("scheduler lock").timeouts
    }

    /// The points that have fired so far, in the order they fired
    /// (script prefix plus any force-popped entries).
    pub fn fired(&self) -> Vec<SchedPoint> {
        self.state.lock().expect("scheduler lock").fired.clone()
    }

    /// Script entries not yet fired. Zero after a run means the script
    /// was fully consumed (nothing was retired or skipped).
    pub fn remaining(&self) -> usize {
        self.state.lock().expect("scheduler lock").script.len()
    }
}

/// `splitmix64` — the same generator the injection hooks use
/// ([`crate::worker::injected_at`]); one multiply-xor-shift chain per
/// draw, deterministic across platforms.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scripted_order_is_enforced_across_threads() {
        let sched = VirtualScheduler::scripted(vec![
            SchedPoint::Contribute {
                worker: 1,
                period: 0,
            },
            SchedPoint::Contribute {
                worker: 0,
                period: 0,
            },
            SchedPoint::Misspec { worker: 2 },
        ]);
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for (w, point) in [
                (
                    0,
                    SchedPoint::Contribute {
                        worker: 0,
                        period: 0,
                    },
                ),
                (
                    1,
                    SchedPoint::Contribute {
                        worker: 1,
                        period: 0,
                    },
                ),
                (2, SchedPoint::Misspec { worker: 2 }),
            ] {
                let sched = Arc::clone(&sched);
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    sched.run(point, || log.lock().unwrap().push(w));
                });
            }
        });
        assert_eq!(*log.lock().unwrap(), vec![1, 0, 2]);
        assert_eq!(sched.timeouts(), 0);
        assert_eq!(sched.remaining(), 0);
        assert_eq!(sched.fired().len(), 3);
    }

    #[test]
    fn unlisted_points_run_immediately() {
        let sched = VirtualScheduler::scripted(vec![SchedPoint::Misspec { worker: 9 }]);
        let ran = AtomicUsize::new(0);
        // Not in the script: must not block even though the script's own
        // front entry never fires.
        sched.run(
            SchedPoint::Contribute {
                worker: 0,
                period: 3,
            },
            || ran.fetch_add(1, Ordering::SeqCst),
        );
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(sched.remaining(), 1);
    }

    #[test]
    fn retirement_unblocks_dependent_entries() {
        let sched = VirtualScheduler::scripted(vec![
            SchedPoint::Contribute {
                worker: 1,
                period: 0,
            },
            SchedPoint::Contribute {
                worker: 0,
                period: 0,
            },
        ]);
        let fired = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let sched = &sched;
            let fired = &fired;
            scope.spawn(move || {
                sched.run(
                    SchedPoint::Contribute {
                        worker: 0,
                        period: 0,
                    },
                    || fired.fetch_add(1, Ordering::SeqCst),
                );
            });
            // Worker 1 exits without ever contributing; retiring it must
            // release worker 0.
            sched.retire_worker(1);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(sched.timeouts(), 0);
    }

    #[test]
    fn random_arrivals_preserve_per_worker_period_order_and_seed_determinism() {
        let a = VirtualScheduler::random_arrivals(3, 4, 42);
        let b = VirtualScheduler::random_arrivals(3, 4, 42);
        let c = VirtualScheduler::random_arrivals(3, 4, 43);
        let script = |s: &VirtualScheduler| {
            s.state
                .lock()
                .unwrap()
                .script
                .iter()
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(script(&a), script(&b), "same seed, same interleaving");
        assert_ne!(
            script(&a),
            script(&c),
            "different seed explores differently"
        );
        let mut next = [0u64; 3];
        for p in script(&a) {
            match p {
                SchedPoint::Contribute { worker, period } => {
                    assert_eq!(period, next[worker], "per-worker periods stay ordered");
                    next[worker] += 1;
                }
                other => panic!("unexpected point {other:?}"),
            }
        }
        assert_eq!(next, [4, 4, 4]);
    }
}
