//! Shadow-heap privacy metadata: the Table 2 transition rules.
//!
//! Each byte of private memory has one byte of metadata in the shadow heap
//! (at `addr | SHADOW_BIT`). Codes:
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | live-in (untouched this invocation) |
//! | 1 | old-write (written before the last checkpoint) |
//! | 2 | read-live-in (read; appears live-in, pending phase-2 validation) |
//! | 3+(i−i₀) | written in iteration i, i₀ = first iteration after the last checkpoint |
//!
//! Timestamps fit a byte only if checkpoints occur at least every
//! [`MAX_PERIOD`] iterations, which the engine enforces (the paper uses the
//! same 253-iteration bound).

use privateer_vm::{MisspecKind, Trap};

/// Metadata code: live-in value, untouched since the invocation began.
pub const LIVE_IN: u8 = 0;
/// Metadata code: written before the most recent checkpoint.
pub const OLD_WRITE: u8 = 1;
/// Metadata code: read while apparently live-in; validated at phase 2.
pub const READ_LIVE_IN: u8 = 2;
/// First timestamp code.
pub const TS_BASE: u8 = 3;
/// Maximum iterations between checkpoints (so `3 + (i - i0) <= 255`).
pub const MAX_PERIOD: u64 = 253;

/// The timestamp code for the `n`-th iteration after a checkpoint.
///
/// # Panics
///
/// Panics if `n >= MAX_PERIOD` (the engine must checkpoint first).
pub fn ts_code(n: u64) -> u8 {
    assert!(n < MAX_PERIOD, "checkpoint period overflow: {n}");
    TS_BASE + n as u8
}

/// Direction of a private access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// `private_read`.
    Read,
    /// `private_write`.
    Write,
}

/// Apply one Table 2 transition for a private access to a byte whose
/// metadata is `before`, in the iteration with timestamp `cur`.
///
/// Returns the metadata after the access.
///
/// # Errors
///
/// Traps with a privacy misspeculation exactly in the cases of Table 2:
/// reading an old write, reading an earlier iteration's write, or the
/// conservative write-after-read-live-in false positive.
pub fn transition(access: Access, before: u8, cur: u8) -> Result<u8, Trap> {
    debug_assert!(cur >= TS_BASE);
    match access {
        Access::Read => match before {
            LIVE_IN | READ_LIVE_IN => Ok(READ_LIVE_IN),
            OLD_WRITE => Err(privacy(before, cur, "read of a pre-checkpoint write")),
            b if b == cur => Ok(cur), // intra-iteration flow
            _ => Err(privacy(
                before,
                cur,
                "read of a value written in an earlier iteration",
            )),
        },
        Access::Write => match before {
            LIVE_IN | OLD_WRITE => Ok(cur),
            READ_LIVE_IN => Err(privacy(
                before,
                cur,
                "write after read-live-in (conservative)",
            )),
            _ => Ok(cur), // overwrite of a recent write (2 < a <= cur)
        },
    }
}

fn privacy(before: u8, cur: u8, why: &str) -> Trap {
    Trap::misspec(
        MisspecKind::Privacy,
        format!("{why} (metadata {before}, current timestamp {cur})"),
    )
}

/// Metadata normalization at a checkpoint: timestamps become
/// [`OLD_WRITE`]; validated live-in reads return to [`LIVE_IN`].
pub fn normalize(meta: u8) -> u8 {
    match meta {
        LIVE_IN => LIVE_IN,
        OLD_WRITE => OLD_WRITE,
        READ_LIVE_IN => LIVE_IN,
        _ => OLD_WRITE,
    }
}

/// Word-granular (SWAR) fast paths: apply the Table 2 transition to eight
/// shadow bytes at once.
///
/// All operations here are lane-wise over the eight bytes of a `u64`, so
/// they are endianness-agnostic as long as loads and stores use the same
/// byte order; callers use little-endian throughout. The fast path covers
/// every word that cannot trap — uniform live-in/old-write words under a
/// write (the privatization "kill" pattern), and intra-iteration reuse
/// where a word is already at the current timestamp — and signals
/// [`word::Outcome::Fallback`] for any word containing a trap candidate, which
/// the caller re-processes with the per-byte [`transition`] so trap kinds,
/// messages and partial-mutation order stay byte-identical to the
/// reference semantics.
pub mod word {
    use super::{Access, LIVE_IN, READ_LIVE_IN};

    /// Bytes per SWAR word.
    pub const BYTES: u64 = 8;
    /// The high bit of every byte lane.
    pub const HI: u64 = 0x8080_8080_8080_8080;

    /// `b` replicated into every byte lane.
    pub const fn splat(b: u8) -> u64 {
        u64::from_ne_bytes([b; 8])
    }

    /// `0x80` in every lane whose byte is zero.
    ///
    /// This is the carry-free exact variant of the classic
    /// `x.wrapping_sub(splat(0x01)) & !x & splat(0x80)` zero-byte test:
    /// that formula is exact only up to the first zero byte (a borrow can
    /// flag a following `0x01` lane), whereas the formula here never
    /// crosses lanes, so every lane is reported exactly.
    pub const fn zero_mask(x: u64) -> u64 {
        let low7_sum = (x & !HI).wrapping_add(!HI);
        !(low7_sum | x) & HI
    }

    /// `0x80` in every lane of `w` whose byte equals `b`.
    pub const fn eq_mask(w: u64, b: u8) -> u64 {
        zero_mask(w ^ splat(b))
    }

    /// Expand a `0x80`-per-lane mask into a `0xFF`-per-lane mask.
    pub const fn expand(m: u64) -> u64 {
        (m >> 7).wrapping_mul(0xFF)
    }

    /// Whether every lane is [`LIVE_IN`] or [`super::OLD_WRITE`] — the
    /// "untouched since the last checkpoint" test used to skip whole
    /// words during checkpoint scans.
    pub const fn all_le_old_write(w: u64) -> bool {
        w & splat(0xFE) == 0
    }

    /// Whether every lane holds a timestamp (no [`LIVE_IN`],
    /// [`super::OLD_WRITE`] or [`READ_LIVE_IN`] lane) — a word the
    /// current period wrote in full.
    pub const fn all_timestamps(w: u64) -> bool {
        eq_mask(w, LIVE_IN) | eq_mask(w, super::OLD_WRITE) | eq_mask(w, READ_LIVE_IN) == 0
    }

    /// Result of attempting a word-granular transition.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Outcome {
        /// Every lane passes; the word's metadata after the access (which
        /// may equal the input word).
        Pass(u64),
        /// At least one lane would trap; the caller must re-run the
        /// per-byte [`super::transition`] over this word to reproduce the
        /// exact trap and partial-mutation order.
        Fallback,
    }

    /// Apply one Table 2 transition to all eight lanes of `w` in O(1).
    ///
    /// Returns [`Outcome::Pass`] exactly when the per-byte [`super::transition`]
    /// would succeed for every lane, with the identical resulting
    /// metadata; [`Outcome::Fallback`] exactly when some lane would trap.
    pub fn transition_word(access: Access, w: u64, cur: u8) -> Outcome {
        debug_assert!(cur >= super::TS_BASE);
        match access {
            Access::Write => {
                // A write traps only on read-live-in; every other byte
                // value becomes the current timestamp.
                if eq_mask(w, READ_LIVE_IN) != 0 {
                    Outcome::Fallback
                } else {
                    Outcome::Pass(splat(cur))
                }
            }
            Access::Read => {
                // A read passes on {live-in, read-live-in, cur}: the
                // first two become read-live-in, cur stays put. Any other
                // byte (old-write or a foreign timestamp) traps.
                let ok = eq_mask(w, LIVE_IN) | eq_mask(w, READ_LIVE_IN) | eq_mask(w, cur);
                if ok != HI {
                    return Outcome::Fallback;
                }
                let keep = expand(eq_mask(w, cur));
                Outcome::Pass((keep & splat(cur)) | (!keep & splat(READ_LIVE_IN)))
            }
        }
    }

    /// Word-granular [`super::normalize`]: lanes holding [`LIVE_IN`] or
    /// [`READ_LIVE_IN`] become [`LIVE_IN`]; every other lane becomes
    /// [`super::OLD_WRITE`].
    pub const fn normalize_word(w: u64) -> u64 {
        let to_live_in = eq_mask(w, LIVE_IN) | eq_mask(w, READ_LIVE_IN);
        !expand(to_live_in) & splat(super::OLD_WRITE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: u8 = TS_BASE + 10; // current-iteration timestamp in tests

    fn read(before: u8) -> Result<u8, Trap> {
        transition(Access::Read, before, B)
    }

    fn write(before: u8) -> Result<u8, Trap> {
        transition(Access::Write, before, B)
    }

    /// The exact content of Table 2.
    #[test]
    fn table2_reads() {
        assert_eq!(read(LIVE_IN).unwrap(), READ_LIVE_IN); // read a live-in value
        assert!(read(OLD_WRITE).is_err()); // loop-carried flow dependence
        assert_eq!(read(READ_LIVE_IN).unwrap(), READ_LIVE_IN); // read live-in again
        assert!(read(TS_BASE + 3).is_err()); // 2 < a < B: loop-carried flow
        assert_eq!(read(B).unwrap(), B); // intra-iteration (private) flow
    }

    #[test]
    fn table2_writes() {
        assert_eq!(write(LIVE_IN).unwrap(), B); // overwrite a live-in value
        assert_eq!(write(OLD_WRITE).unwrap(), B); // overwrite an old write
        assert!(write(READ_LIVE_IN).is_err()); // conservative false positive
        assert_eq!(write(TS_BASE + 2).unwrap(), B); // overwrite a recent write
        assert_eq!(write(B).unwrap(), B); // overwrite own write
    }

    #[test]
    fn errors_are_privacy_misspecs() {
        let e = read(OLD_WRITE).unwrap_err();
        assert!(matches!(
            e,
            Trap::Misspec(privateer_vm::Misspec {
                kind: MisspecKind::Privacy,
                ..
            })
        ));
    }

    #[test]
    fn normalize_rules() {
        assert_eq!(normalize(LIVE_IN), LIVE_IN);
        assert_eq!(normalize(OLD_WRITE), OLD_WRITE);
        assert_eq!(normalize(READ_LIVE_IN), LIVE_IN);
        for ts in TS_BASE..=255 {
            assert_eq!(normalize(ts), OLD_WRITE);
        }
    }

    #[test]
    fn ts_code_range() {
        assert_eq!(ts_code(0), 3);
        assert_eq!(ts_code(252), 255);
    }

    #[test]
    #[should_panic(expected = "checkpoint period overflow")]
    fn ts_code_overflow_panics() {
        let _ = ts_code(MAX_PERIOD);
    }

    /// Soundness sketch: any read of a byte written in a *different,
    /// earlier* iteration (since the last checkpoint) must trap.
    #[test]
    fn cross_iteration_flow_always_caught() {
        for w in 0..50u64 {
            for r in (w + 1)..50u64 {
                let meta = transition(Access::Write, LIVE_IN, ts_code(w)).unwrap();
                let res = transition(Access::Read, meta, ts_code(r));
                assert!(res.is_err(), "write@{w} read@{r} escaped");
            }
        }
    }

    /// Intra-iteration flow and write-first patterns never trap.
    #[test]
    fn private_patterns_pass() {
        for i in 0..50u64 {
            let ts = ts_code(i);
            // write then read, same iteration
            let m =
                transition(Access::Write, if i == 0 { LIVE_IN } else { OLD_WRITE }, ts).unwrap();
            let m = transition(Access::Read, m, ts).unwrap();
            assert_eq!(m, ts);
        }
    }

    /// Tiny deterministic generator for mixed-lane word tests (xorshift64*).
    fn rng_words(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s.wrapping_mul(0x2545_f491_4f6c_dd1d)
            })
            .collect()
    }

    #[test]
    fn eq_mask_is_exact_per_lane() {
        // Includes the adjacent-lane case (0x00 next to 0x01) where the
        // classic borrow-propagating formula reports a false positive.
        let w = u64::from_le_bytes([0x00, 0x01, 0x02, 0x80, 0xFF, 0x01, 0x00, 0x7F]);
        assert_eq!(word::eq_mask(w, 0x00), 0x0080_0000_0000_0080);
        assert_eq!(word::eq_mask(w, 0x01), 0x0000_8000_0000_8000);
        assert_eq!(word::eq_mask(w, 0xFF), 0x0000_0080_0000_0000);
        for &w in &rng_words(7, 200) {
            for b in [0u8, 1, 2, B, 0x80, 0xFF] {
                let expected =
                    u64::from_le_bytes(w.to_le_bytes().map(|x| if x == b { 0x80 } else { 0 }));
                assert_eq!(word::eq_mask(w, b), expected, "w={w:#018x} b={b}");
            }
        }
    }

    /// `transition_word` agrees with the per-byte `transition` on every
    /// uniform word, for both access kinds.
    #[test]
    fn transition_word_matches_bytewise_uniform() {
        for byte in 0..=255u8 {
            let w = word::splat(byte);
            for access in [Access::Read, Access::Write] {
                let per_byte: Result<u8, _> = transition(access, byte, B);
                match (word::transition_word(access, w, B), per_byte) {
                    (word::Outcome::Pass(new), Ok(b)) => {
                        assert_eq!(new, word::splat(b), "byte={byte} {access:?}");
                    }
                    (word::Outcome::Fallback, Err(_)) => {}
                    (got, want) => panic!("byte={byte} {access:?}: {got:?} vs {want:?}"),
                }
            }
        }
    }

    /// `transition_word` agrees with the per-byte `transition` lane-by-lane
    /// on random mixed words: Pass iff every lane passes, with identical
    /// resulting metadata.
    #[test]
    fn transition_word_matches_bytewise_mixed() {
        for &w in &rng_words(42, 4000) {
            for access in [Access::Read, Access::Write] {
                let lanes = w.to_le_bytes();
                let per_lane: Vec<Result<u8, Trap>> =
                    lanes.iter().map(|&b| transition(access, b, B)).collect();
                let all_ok = per_lane.iter().all(Result::is_ok);
                match word::transition_word(access, w, B) {
                    word::Outcome::Pass(new) => {
                        assert!(all_ok, "w={w:#018x} {access:?} passed but a lane traps");
                        let mut expect = [0u8; 8];
                        for (e, r) in expect.iter_mut().zip(&per_lane) {
                            *e = *r.as_ref().unwrap();
                        }
                        assert_eq!(new.to_le_bytes(), expect, "w={w:#018x} {access:?}");
                    }
                    word::Outcome::Fallback => {
                        assert!(
                            !all_ok,
                            "w={w:#018x} {access:?} fell back but all lanes pass"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn normalize_word_matches_bytewise() {
        for &w in &rng_words(99, 2000) {
            let expect = w.to_le_bytes().map(normalize);
            assert_eq!(word::normalize_word(w).to_le_bytes(), expect, "w={w:#018x}");
        }
        // All 256 uniform words too.
        for byte in 0..=255u8 {
            assert_eq!(
                word::normalize_word(word::splat(byte)),
                word::splat(normalize(byte))
            );
        }
    }

    #[test]
    fn all_timestamps_matches_bytewise() {
        for &w in &rng_words(4, 2000) {
            let expect = w.to_le_bytes().iter().all(|&b| b >= TS_BASE);
            assert_eq!(word::all_timestamps(w), expect, "w={w:#018x}");
        }
        assert!(word::all_timestamps(word::splat(TS_BASE)));
        assert!(!word::all_timestamps(word::splat(B) & !0xFF));
        assert!(!word::all_timestamps(word::splat(READ_LIVE_IN)));
    }

    #[test]
    fn all_le_old_write_matches_bytewise() {
        for &w in &rng_words(3, 2000) {
            let expect = w.to_le_bytes().iter().all(|&b| b <= OLD_WRITE);
            assert_eq!(word::all_le_old_write(w), expect, "w={w:#018x}");
        }
        assert!(word::all_le_old_write(0));
        assert!(word::all_le_old_write(word::splat(OLD_WRITE)));
        assert!(!word::all_le_old_write(word::splat(READ_LIVE_IN)));
    }
}
