//! The end-to-end Privateer pipeline (paper Figure 3): profile →
//! classify → select → transform.

use crate::classify::classify;
use crate::footprint::Region;
use crate::outline::{check_outlineable, outline_loop};
use crate::select::{select, Candidate};
use crate::transform::{
    access_heaps, apply_control_speculation, coalesce_privacy_checks, insert_checks,
    insert_value_predictions, replace_allocation, CheckStats, PlacementMap, TransformError,
    ValuePrediction,
};
use privateer_ir::counted::match_counted_loop;
use privateer_ir::loops::LoopInfo;
use privateer_ir::verify::{verify_module, VerifyError};
use privateer_ir::{BlockId, FuncId, Inst, InstKind, Intrinsic, Module, PlanEntry, Value};
use privateer_profile::{BoundaryValueProfiler, CallSite, LoopRef, ObjectName, Profile};
use privateer_vm::interp::{load_module, Interp, ProgramImage};
use privateer_vm::{BasicRuntime, Trap};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Pipeline tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// A loop is "hot" if its inclusive weight is at least this fraction
    /// of all executed instructions.
    pub hot_weight_frac: f64,
    /// Examine at most this many hot loops.
    pub max_candidates: usize,
    /// Attempt value-prediction speculation for blocking dependences.
    pub enable_value_prediction: bool,
    /// Replace never-executed blocks of selected bodies with `misspec()`.
    pub enable_control_speculation: bool,
    /// Replace the per-trip privacy checks of affine loop streams with one
    /// range check each (see [`coalesce_privacy_checks`]); off gives the
    /// paper's per-access checks.
    pub enable_check_coalescing: bool,
    /// Give up on value prediction when the dependent footprint exceeds
    /// this many bytes.
    pub max_predicted_bytes: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            hot_weight_frac: 0.05,
            max_candidates: 16,
            enable_value_prediction: true,
            enable_control_speculation: true,
            enable_check_coalescing: true,
            max_predicted_bytes: 64,
        }
    }
}

/// Why the pipeline failed outright.
#[derive(Debug)]
pub enum PipelineError {
    /// The profiling run trapped.
    Profile(Trap),
    /// A transformation pass failed.
    Transform(TransformError),
    /// The transformed module does not verify (a pipeline bug).
    Verify(VerifyError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Profile(t) => write!(f, "profiling failed: {t}"),
            PipelineError::Transform(e) => write!(f, "{e}"),
            PipelineError::Verify(e) => write!(f, "transformed module is ill-formed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// What happened to one selected loop (feeds Table 3).
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// The loop.
    pub lp: LoopRef,
    /// Name of the enclosing function.
    pub function: String,
    /// Objects per heap `[read-only, private, redux, short-lived,
    /// unrestricted]`.
    pub heap_counts: [usize; 5],
    /// Whether value-prediction speculation was required.
    pub value_predicted: bool,
    /// Blocks removed by control speculation.
    pub control_spec_blocks: usize,
    /// Whether the region performs (deferred) I/O.
    pub does_io: bool,
    /// Check-insertion counters.
    pub checks: CheckStats,
}

/// The pipeline's product.
#[derive(Debug)]
pub struct Privatized {
    /// The transformed module (parallel regions installed).
    pub module: Module,
    /// One report per selected loop, in plan order.
    pub reports: Vec<LoopReport>,
    /// Hot loops that were considered and rejected, with reasons.
    pub rejected: Vec<(LoopRef, String)>,
}

/// Map a raw profiled address to `(global, offset)` if it falls inside a
/// global.
fn addr_to_global(module: &Module, image: &ProgramImage, addr: u64) -> Option<(usize, u64)> {
    for (idx, g) in module.globals.iter().enumerate() {
        let base = image.global_addrs[idx];
        if addr >= base && addr < base + g.size {
            return Some((idx, addr - base));
        }
    }
    None
}

/// Cluster sorted byte addresses into maximal consecutive runs.
fn runs(addrs: &BTreeSet<u64>) -> Vec<(u64, u32)> {
    let mut out: Vec<(u64, u32)> = Vec::new();
    for &a in addrs {
        match out.last_mut() {
            Some((start, len)) if *start + *len as u64 == a => *len += 1,
            _ => out.push((a, 1)),
        }
    }
    out
}

/// Attempt value-prediction speculation for the blocking dependences of a
/// loop: profile the dependent bytes at iteration boundaries and, if they
/// are stable, predict them.
#[allow(clippy::type_complexity)]
fn try_value_prediction(
    module: &Module,
    image: &ProgramImage,
    profile: &Profile,
    lp: LoopRef,
    region: &Region,
    cfg: &PipelineConfig,
) -> Result<Option<(Vec<ValuePrediction>, BTreeSet<(CallSite, CallSite)>)>, String> {
    // Collect the dependences inside the region and their byte footprint.
    let mut dep_set: BTreeSet<(CallSite, CallSite)> = BTreeSet::new();
    let mut bytes: BTreeSet<u64> = BTreeSet::new();
    for (&(src, dst), info) in profile.deps_of(lp) {
        if !region.contains(src) || !region.contains(dst) {
            continue;
        }
        if info.addrs_overflow || info.addrs.is_empty() {
            return Err("dependent footprint too large for value prediction".into());
        }
        dep_set.insert((src, dst));
        bytes.extend(info.addrs.iter().copied());
    }
    if dep_set.is_empty() {
        return Ok(None);
    }
    if bytes.len() > cfg.max_predicted_bytes {
        return Err(format!(
            "dependent footprint of {} bytes exceeds the prediction budget",
            bytes.len()
        ));
    }
    // The transform can only re-materialize statically named locations.
    for &a in &bytes {
        if addr_to_global(module, image, a).is_none() {
            return Err("dependence flows through dynamic storage".into());
        }
    }

    // Second profiling pass: sample the bytes at iteration boundaries.
    let targets = runs(&bytes);
    let profiler = BoundaryValueProfiler::new(lp, targets.iter().copied());
    let mut interp = Interp::new(module, image, profiler, BasicRuntime::strict());
    interp
        .run_main()
        .map_err(|t| format!("boundary profiling failed: {t}"))?;
    let preds = interp.hooks.predictions_by_addr();
    if preds.len() != targets.len() {
        return Err("dependent values are not stable at iteration boundaries".into());
    }

    let mut out = Vec::new();
    for (addr, p) in preds {
        let (g, offset) = addr_to_global(module, image, addr).expect("checked above");
        out.push(ValuePrediction {
            global: privateer_ir::GlobalId::new(g),
            offset,
            bytes: p.bytes,
        });
    }
    Ok(Some((out, dep_set)))
}

/// Does the region perform I/O that actually executes? (Prints on
/// never-executed paths are removed by control speculation and do not
/// count — e.g. error paths.)
fn region_does_io(module: &Module, region: &Region, profile: &Profile) -> bool {
    region.sites(module).any(|(f, i)| {
        let is_print = matches!(
            module.func(f).inst(i).kind,
            InstKind::CallIntrinsic(
                Intrinsic::PrintI64
                    | Intrinsic::PrintF64
                    | Intrinsic::PrintStr
                    | Intrinsic::PrintChar,
                _
            )
        );
        is_print
            && module
                .func(f)
                .block_of(i)
                .is_some_and(|bb| !profile.block_unexecuted(f, bb))
    })
}

/// Run the full Privateer pipeline on `module`.
///
/// # Errors
///
/// Fails if profiling traps, a transformation pass on a *selected* loop
/// fails, or the result does not verify. Loops that merely cannot be
/// handled are reported in [`Privatized::rejected`], not errors.
pub fn privatize(input: &Module, cfg: &PipelineConfig) -> Result<Privatized, PipelineError> {
    let mut module = input.clone();
    let image = load_module(&module);
    let (profile, _out) =
        privateer_profile::profile_module(&module, &image).map_err(PipelineError::Profile)?;

    // Hot loops by inclusive weight.
    let min_weight = (profile.total_insts as f64 * cfg.hot_weight_frac) as u64;
    let hot: Vec<(LoopRef, u64)> = profile
        .loops_by_weight()
        .into_iter()
        .filter(|(_, s)| s.weight >= min_weight.max(1))
        .take(cfg.max_candidates)
        .map(|(lp, s)| (lp, s.weight))
        .collect();

    let mut rejected: Vec<(LoopRef, String)> = Vec::new();
    let mut candidates: Vec<Candidate> = Vec::new();

    for (lp, weight) in hot {
        let (f, l) = lp;
        let li = LoopInfo::compute(module.func(f));
        let natural = li.get(l);
        let Some(counted) = match_counted_loop(module.func(f), l, natural) else {
            rejected.push((lp, "not a canonical counted loop".into()));
            continue;
        };
        if let Err(e) = check_outlineable(module.func(f), &counted, natural) {
            rejected.push((lp, e.to_string()));
            continue;
        }
        let region = Region::compute(&module, f, l);
        let (mut assignment, footprint) = classify(&module, &region, &profile, &BTreeSet::new());

        let mut predictions = Vec::new();
        let mut predicted_deps = BTreeSet::new();
        if !assignment.is_parallelizable() && cfg.enable_value_prediction {
            match try_value_prediction(&module, &image, &profile, lp, &region, cfg) {
                Ok(Some((preds, deps))) => {
                    let (a2, _) = classify(&module, &region, &profile, &deps);
                    if a2.is_parallelizable() {
                        assignment = a2;
                        predictions = preds;
                        predicted_deps = deps;
                    }
                }
                Ok(None) => {}
                Err(why) => {
                    rejected.push((lp, format!("value prediction inapplicable: {why}")));
                    continue;
                }
            }
        }
        if !assignment.is_parallelizable() {
            rejected.push((lp, "cross-iteration flow dependences remain".into()));
            continue;
        }
        // Reduction objects must be statically named (globals) so the
        // runtime can be told their address before the invocation.
        if assignment
            .redux
            .keys()
            .any(|o| !matches!(o, ObjectName::Global(_)))
        {
            rejected.push((lp, "reduction object is dynamically allocated".into()));
            continue;
        }
        // Every access must expect a single heap (the separation property
        // is per-pointer).
        let mut tentative = PlacementMap::default();
        if let Err(e) = tentative.merge(&assignment) {
            rejected.push((lp, e.to_string()));
            continue;
        }
        let mut funcs: Vec<FuncId> = region.callees.iter().copied().collect();
        funcs.push(f);
        let heaps = access_heaps(&module, &profile, &tentative, funcs);
        if let Some((site, hs)) = heaps
            .iter()
            .find(|(site, hs)| hs.len() > 1 && region.contains(**site))
        {
            rejected.push((
                lp,
                format!("access {}:{} spans heaps {hs:?}", site.0, site.1),
            ));
            continue;
        }

        candidates.push(Candidate {
            lp,
            counted,
            region,
            assignment,
            footprint,
            predictions,
            predicted_deps,
            weight,
        });
    }

    let (chosen, placement) = select(candidates);

    // §4.4: replace allocation, module-wide, before outlining so the
    // cloned bodies inherit the heap allocation sites.
    replace_allocation(&mut module, &placement, &profile).map_err(PipelineError::Transform)?;

    let mut reports = Vec::new();
    let mut instrumented: BTreeSet<FuncId> = BTreeSet::new();
    for cand in &chosen {
        let (f, _) = cand.lp;
        let plan_index = module.plans.len() as u32;
        // Re-derive the loop by header block: outlining an earlier loop in
        // the same function invalidates loop ids but not block ids.
        let li = LoopInfo::compute(module.func(f));
        let l = li
            .loop_with_header(cand.counted.header)
            .expect("selected loop still present");
        let natural = li.get(l).clone();
        // Access→heap expectations must be read off the *intact* function:
        // outlining clears the loop blocks.
        let callee_heaps = access_heaps(
            &module,
            &profile,
            &placement,
            cand.region.callees.iter().copied(),
        );
        let orig_heaps = access_heaps(&module, &profile, &placement, [f]);
        let outlined = outline_loop(&mut module, f, &cand.counted, &natural, plan_index)
            .map_err(|e| PipelineError::Transform(TransformError(e.0)))?;
        module.plans.push(PlanEntry {
            body: outlined.body,
            recovery: outlined.recovery,
        });

        // Reduction registrations precede the invoke.
        for (reg_pos, (obj, &op)) in cand.assignment.redux.iter().enumerate() {
            let ObjectName::Global(g) = obj else {
                unreachable!("checked during candidacy")
            };
            let size = module.global(*g).size;
            let func = module.func_mut(f);
            let reg = func.add_inst(Inst {
                kind: InstKind::CallIntrinsic(
                    Intrinsic::ReduxRegister(op),
                    vec![Value::Global(*g), Value::const_i64(size as i64)],
                ),
                ty: None,
            });
            func.block_mut(outlined.invoke_block)
                .insts
                .insert(reg_pos, reg);
        }

        // Expected heaps per access: body sites translate through the
        // outline instruction map; callee sites keep their ids.
        let mut expected: BTreeMap<CallSite, BTreeSet<privateer_ir::Heap>> = BTreeMap::new();
        for (site, hs) in callee_heaps {
            expected.insert(site, hs);
        }
        for (site, hs) in orig_heaps {
            if let Some(&new_id) = outlined.inst_map.get(&site.1) {
                expected.insert((outlined.body, new_id), hs);
            }
        }

        // Instrument the body plus any not-yet-instrumented callees.
        let mut to_instrument: Vec<FuncId> = vec![outlined.body];
        for &callee in &cand.region.callees {
            if instrumented.insert(callee) {
                to_instrument.push(callee);
            }
        }
        let mut checks = insert_checks(
            &mut module,
            &expected,
            &placement,
            to_instrument.iter().copied(),
        )
        .map_err(PipelineError::Transform)?;

        insert_value_predictions(&mut module, outlined.body, &cand.predictions)
            .map_err(PipelineError::Transform)?;

        let mut control_spec_blocks = 0;
        if cfg.enable_control_speculation {
            let cold: Vec<BlockId> = outlined
                .block_map
                .iter()
                .filter(|(&old, _)| profile.block_unexecuted(f, old))
                .map(|(_, &new)| new)
                .collect();
            control_spec_blocks = apply_control_speculation(&mut module, outlined.body, &cold);
        }
        if cfg.enable_check_coalescing {
            checks.coalesced = coalesce_privacy_checks(&mut module, to_instrument);
        }

        reports.push(LoopReport {
            lp: cand.lp,
            function: input.func(f).name.clone(),
            heap_counts: cand.assignment.counts(),
            value_predicted: !cand.predictions.is_empty(),
            control_spec_blocks,
            does_io: region_does_io(input, &cand.region, &profile),
            checks,
        });
    }

    verify_module(&module).map_err(PipelineError::Verify)?;
    Ok(Privatized {
        module,
        reports,
        rejected,
    })
}
