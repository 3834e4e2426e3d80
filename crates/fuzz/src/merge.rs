//! Phase-2 merges for testing the engine through its merge seam
//! (`MainRuntime::set_merge`):
//!
//! * [`ReferenceCheckpointMerge`] — the simple per-address merge, the
//!   oracle for the dense [`CheckpointMerge`];
//! * [`fail_at`] — a factory that fails one period's merge with a given
//!   trap, once, to drive the phase-2 misspeculation and merge-fault
//!   paths, and reports whether it fired.

use privateer_ir::inst::SHADOW_BIT;
use privateer_runtime::checkpoint::{CheckpointMerge, Contribution, PeriodMerge};
use privateer_runtime::shadow;
use privateer_vm::{AddressSpace, MisspecKind, Page, Trap, PAGE_SIZE};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Merge factory running every period through a
/// [`ReferenceCheckpointMerge`].
pub fn reference(_period: u64, redux_objects: usize) -> Box<dyn PeriodMerge> {
    Box::new(ReferenceCheckpointMerge::new(redux_objects))
}

/// Merge factory that fails the merge of `period` with `trap` and merges
/// every other period with a [`CheckpointMerge`]. One-shot: a resumed
/// span, whose periods renumber from zero, merges normally. A
/// misspeculation sends the whole period through recovery; any other
/// trap aborts the span.
///
/// The flag returned next to the factory turns true once the failing
/// merge is built. It stays false when no span reaches `period`, e.g.
/// because an earlier misspeculation squashed it.
pub fn fail_at(
    period: u64,
    trap: Trap,
) -> (
    impl FnMut(u64, usize) -> Box<dyn PeriodMerge> + Send + Sync,
    Arc<AtomicBool>,
) {
    let fired = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&fired);
    let mut trap = Some(trap);
    let factory = move |p, redux_objects| -> Box<dyn PeriodMerge> {
        match trap.take_if(|_| p == period) {
            Some(trap) => {
                flag.store(true, Ordering::Relaxed);
                Box::new(FailingMerge(trap))
            }
            None => Box::new(CheckpointMerge::new(redux_objects)),
        }
    };
    (factory, fired)
}

/// A merge whose first [`add`](PeriodMerge::add) fails with its trap.
struct FailingMerge(Trap);

impl PeriodMerge for FailingMerge {
    fn add(&mut self, _: Contribution, _: &AddressSpace) -> Result<(), Trap> {
        Err(self.0.clone())
    }

    fn written_bytes(&self) -> usize {
        0
    }

    fn redux_images(&self) -> &[Vec<Vec<u8>>] {
        &[]
    }

    fn commit(self: Box<Self>, _: &mut AddressSpace) -> Vec<(i64, Vec<u8>)> {
        Vec::new()
    }
}

/// The per-address reference merge (the engine's pre-dense hot path).
///
/// The proptest equivalence suite, the `privfuzz` oracle and the
/// `privateer-bench` comparison benches pit [`CheckpointMerge`] against
/// it; both must produce byte-identical committed memory and shadow
/// marks, identically ordered I/O, and identical traps for the same
/// contributions in the same order.
#[derive(Debug, Default)]
pub struct ReferenceCheckpointMerge {
    /// Byte address → (timestamp, value): the latest write this period.
    written: HashMap<u64, (u8, u8)>,
    /// Bytes some worker read as live-in this period.
    read_live_in: HashSet<u64>,
    /// Deferred output gathered from all workers.
    io: Vec<(i64, Vec<u8>)>,
    /// Reduction images per object per worker (worker-cumulative).
    pub redux_images: Vec<Vec<Vec<u8>>>,
}

impl ReferenceCheckpointMerge {
    /// Empty merge state expecting `redux_objects` registered reductions.
    pub fn new(redux_objects: usize) -> ReferenceCheckpointMerge {
        ReferenceCheckpointMerge {
            redux_images: vec![Vec::new(); redux_objects],
            ..ReferenceCheckpointMerge::default()
        }
    }

    /// Merge one worker's contribution, validating privacy against the
    /// committed metadata in `committed` (phase 2).
    ///
    /// # Errors
    ///
    /// Traps with a privacy misspeculation on a cross-worker
    /// read-of-earlier-write or the conservative read/write conflict.
    pub fn add(&mut self, contrib: Contribution, committed: &AddressSpace) -> Result<(), Trap> {
        let priv_lookup: HashMap<u64, &Arc<Page>> = contrib
            .priv_pages
            .iter()
            .map(|(base, p)| (*base, p))
            .collect();
        for (sbase, spage) in &contrib.shadow_pages {
            let pbase = *sbase & !SHADOW_BIT;
            for (wi, group) in spage.chunks_exact(8).enumerate() {
                let w = u64::from_le_bytes(group.try_into().unwrap());
                if shadow::word::all_le_old_write(w) {
                    continue;
                }
                self.add_word(wi, group, pbase, &priv_lookup, committed)?;
            }
        }
        for (i, img) in contrib.redux_images.into_iter().enumerate() {
            self.redux_images[i].push(img);
        }
        self.io.extend(contrib.io);
        Ok(())
    }

    /// Merge one 8-byte shadow word known to contain at least one touched
    /// byte (the per-byte path of [`Self::add`]).
    fn add_word(
        &mut self,
        wi: usize,
        group: &[u8],
        pbase: u64,
        priv_lookup: &HashMap<u64, &Arc<Page>>,
        committed: &AddressSpace,
    ) -> Result<(), Trap> {
        for (bi, &meta) in group.iter().enumerate() {
            if meta <= shadow::OLD_WRITE {
                continue;
            }
            let baddr = pbase + (wi * 8 + bi) as u64;
            if meta == shadow::READ_LIVE_IN {
                if committed.read_u8(baddr | SHADOW_BIT) == shadow::OLD_WRITE {
                    return Err(privacy(
                        baddr,
                        "read of a value committed by an earlier iteration (stale live-in)",
                    ));
                }
                if self.written.contains_key(&baddr) {
                    return Err(privacy(
                        baddr,
                        "cross-worker read/write conflict on a live-in byte (conservative)",
                    ));
                }
                self.read_live_in.insert(baddr);
            } else {
                if self.read_live_in.contains(&baddr) {
                    return Err(privacy(
                        baddr,
                        "cross-worker read/write conflict on a live-in byte (conservative)",
                    ));
                }
                let value = priv_lookup
                    .get(&(baddr & !(PAGE_SIZE - 1)))
                    .map(|p| p[(baddr & (PAGE_SIZE - 1)) as usize])
                    .unwrap_or(0);
                match self.written.get(&baddr) {
                    Some(&(prev_ts, _)) if prev_ts >= meta => {}
                    _ => {
                        self.written.insert(baddr, (meta, value));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of private bytes written this period.
    pub fn written_bytes(&self) -> usize {
        self.written.len()
    }

    /// Commit the merged state: apply the latest write per byte onto
    /// `mem`, mark those bytes old-write in the committed shadow, and
    /// return the deferred output in iteration order.
    pub fn commit(self, mem: &mut AddressSpace) -> Vec<(i64, Vec<u8>)> {
        // Batch consecutive bytes for fewer page operations.
        let mut bytes: Vec<(u64, u8)> = self.written.iter().map(|(&a, &(_, v))| (a, v)).collect();
        bytes.sort_unstable_by_key(|&(a, _)| a);
        let mut i = 0;
        while i < bytes.len() {
            let start = bytes[i].0;
            let mut run = vec![bytes[i].1];
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].0 == start + run.len() as u64 {
                run.push(bytes[j].1);
                j += 1;
            }
            mem.write_bytes(start, &run);
            let marks = vec![shadow::OLD_WRITE; run.len()];
            mem.write_bytes(start | SHADOW_BIT, &marks);
            i = j;
        }
        let mut io = self.io;
        io.sort_by_key(|a| a.0);
        io
    }
}

impl PeriodMerge for ReferenceCheckpointMerge {
    fn add(&mut self, contrib: Contribution, committed: &AddressSpace) -> Result<(), Trap> {
        ReferenceCheckpointMerge::add(self, contrib, committed)
    }

    fn written_bytes(&self) -> usize {
        self.written.len()
    }

    fn redux_images(&self) -> &[Vec<Vec<u8>>] {
        &self.redux_images
    }

    fn commit(self: Box<Self>, mem: &mut AddressSpace) -> Vec<(i64, Vec<u8>)> {
        ReferenceCheckpointMerge::commit(*self, mem)
    }
}

fn privacy(addr: u64, why: &str) -> Trap {
    Trap::misspec(MisspecKind::Privacy, format!("{why} (byte {addr:#x})"))
}
