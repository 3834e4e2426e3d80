//! Execution traps: misspeculation and genuine errors.

use privateer_ir::Heap;
use std::fmt;

/// Why a speculative check failed (§5.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MisspecKind {
    /// A pointer carried the wrong heap tag (`check_heap`).
    Separation,
    /// A cross-iteration flow dependence on a private byte, or the
    /// conservative write-after-read-live-in case (Table 2).
    Privacy,
    /// A short-lived object outlived its iteration.
    Lifetime,
    /// A value prediction failed (`predict`).
    Prediction,
    /// Explicit `misspec()` call.
    Explicit,
    /// Artificially injected misspeculation (the Figure 9 experiment).
    Injected,
    /// A speculative worker faulted (e.g. dereferenced a stale pointer);
    /// treated as misspeculation and repaired by re-execution.
    Fault,
}

impl fmt::Display for MisspecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MisspecKind::Separation => "separation",
            MisspecKind::Privacy => "privacy",
            MisspecKind::Lifetime => "lifetime",
            MisspecKind::Prediction => "value prediction",
            MisspecKind::Explicit => "explicit",
            MisspecKind::Injected => "injected",
            MisspecKind::Fault => "speculative fault",
        };
        f.write_str(s)
    }
}

/// A misspeculation report.
#[derive(Debug, Clone, PartialEq)]
pub struct Misspec {
    /// Which check failed.
    pub kind: MisspecKind,
    /// Human-readable detail.
    pub detail: String,
}

/// A trap ends the current execution attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// A speculation check failed; the parallel engine rolls back.
    Misspec(Misspec),
    /// Load or store through (or near) the null page.
    NullDeref {
        /// The faulting address.
        addr: u64,
    },
    /// Integer division by zero.
    DivByZero,
    /// The configured step budget was exhausted.
    StepLimit,
    /// Heap allocation failed.
    OutOfMemory(Heap),
    /// General `malloc`/stack exhaustion or a bad `free`.
    AllocError(String),
    /// Anything else that should not happen in well-formed programs.
    Internal(String),
}

impl Trap {
    /// Shorthand for a misspeculation trap.
    pub fn misspec(kind: MisspecKind, detail: impl Into<String>) -> Trap {
        Trap::Misspec(Misspec {
            kind,
            detail: detail.into(),
        })
    }

    /// Whether this trap is a misspeculation (recoverable by rollback)
    /// rather than a genuine error.
    pub fn is_misspec(&self) -> bool {
        matches!(self, Trap::Misspec(_))
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Misspec(m) => write!(f, "misspeculation ({}): {}", m.kind, m.detail),
            Trap::NullDeref { addr } => write!(f, "null-page dereference at {addr:#x}"),
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::StepLimit => write!(f, "step limit exhausted"),
            Trap::OutOfMemory(h) => write!(f, "logical heap `{h}` out of memory"),
            Trap::AllocError(e) => write!(f, "allocation error: {e}"),
            Trap::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misspec_classification() {
        let t = Trap::misspec(MisspecKind::Privacy, "byte 12");
        assert!(t.is_misspec());
        assert!(!Trap::DivByZero.is_misspec());
        assert!(t.to_string().contains("privacy"));
    }

    #[test]
    fn display_is_informative() {
        assert!(Trap::NullDeref { addr: 8 }.to_string().contains("0x8"));
        assert!(Trap::OutOfMemory(Heap::Private)
            .to_string()
            .contains("priv"));
    }
}
