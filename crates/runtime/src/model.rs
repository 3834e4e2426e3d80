//! The simulated-time cost model.
//!
//! The paper measures wall-clock speedup on a 24-core Xeon. This
//! reproduction's substrate is an interpreter, and the evaluation host may
//! have any number of cores (possibly one), so the engine additionally
//! accounts *simulated cycles*: a deterministic, host-independent cost
//! model in interpreter-instruction equivalents. Parallel wall time on a
//! `W`-way machine is modeled per span as
//!
//! ```text
//! T_span(W) = SPAWN_BASE + W·SPAWN_PER_WORKER          (fork/dispatch)
//!           + max_w ( insts_w + priv_bytes_w·PRIV_BYTE
//!                   + dirty_pages_w·PACKAGE_PAGE )      (slowest worker)
//!           + merged_bytes·MERGE_BYTE
//!           + dirty_pages·MERGE_PAGE                    (commit, serial)
//! ```
//!
//! plus, after a misspeculation, the serial re-execution's instructions.
//! Whole-program simulated time = the main thread's instructions + Σ span
//! costs; speedup = sequential instructions / that. The constants below
//! were chosen so the overhead ratios land in the ranges the paper reports
//! (validation a few percent, spawn/join significant only for tiny loops);
//! the *shape* conclusions are insensitive to modest changes.
//!
//! Page counts here are *dirty* pages: with delta contributions
//! (`checkpoint::DeltaTracker`) a worker packages, and the merge scans,
//! only the pages dirtied since its previous contribution — so both
//! costs scale with the pages each period actually touches, not with the
//! worker's cumulative footprint (which made multi-period spans
//! quadratic in span length before).

/// Fixed dispatch cost per parallel span (the paper's `fork` latency).
pub const SPAWN_BASE: u64 = 10_000;
/// Additional dispatch cost per worker.
pub const SPAWN_PER_WORKER: u64 = 500;
/// Cost per byte of privacy validation (shadow metadata transition).
pub const PRIV_BYTE: u64 = 1;
/// Cost per *dirty* page assembled into a checkpoint contribution
/// (delta detection + `Arc` clone + shadow scan).
pub const PACKAGE_PAGE: u64 = 256;
/// Cost per byte merged and committed at a checkpoint.
pub const MERGE_BYTE: u64 = 1;
/// Cost per contributed (dirty) page scanned during the merge.
pub const MERGE_PAGE: u64 = 128;

/// Simulated-cycle accounting for one engine (or one invocation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCost {
    /// Total simulated parallel-region cycles (see module docs).
    pub total: u64,
    /// Σ useful worker cycles (instructions minus check executions).
    pub useful: u64,
    /// Σ `private_read` validation cycles.
    pub priv_read: u64,
    /// Σ `private_write` validation cycles.
    pub priv_write: u64,
    /// Σ checkpoint packaging + merge cycles.
    pub checkpoint: u64,
    /// Serial recovery cycles.
    pub recovery: u64,
    /// Simulated capacity: `workers × Σ span time`.
    pub capacity: u64,
}

impl SimCost {
    /// The Figure 8 utilization breakdown as fractions of capacity:
    /// `(useful, priv read, priv write, checkpoint, spawn/join)`.
    pub fn breakdown(&self) -> (f64, f64, f64, f64, f64) {
        let cap = self.capacity.max(1) as f64;
        let useful = self.useful as f64 / cap;
        let pr = self.priv_read as f64 / cap;
        let pw = self.priv_write as f64 / cap;
        let ck = self.checkpoint as f64 / cap;
        let sj = (1.0 - useful - pr - pw - ck).max(0.0);
        (useful, pr, pw, ck, sj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_to_one() {
        let c = SimCost {
            total: 100,
            useful: 50,
            priv_read: 10,
            priv_write: 10,
            checkpoint: 10,
            recovery: 0,
            capacity: 100,
        };
        let (u, pr, pw, ck, sj) = c.breakdown();
        assert!((u + pr + pw + ck + sj - 1.0).abs() < 1e-9);
        assert!((sj - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_capacity_is_safe() {
        let (_, _, _, _, sj) = SimCost::default().breakdown();
        assert!((0.0..=1.0).contains(&sj));
    }
}
