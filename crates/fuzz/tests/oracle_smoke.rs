//! Tier-1 smoke coverage for the differential oracle: a seeded batch of
//! generated cases must pass the full execution-mode matrix, the stream
//! must be interesting (misspeculations and genuine traps both occur),
//! and the campaign must be reproducible seed-for-seed.
//!
//! The CI `fuzz-smoke` job and the manual extended budget run the same
//! oracle through the `privfuzz` binary with larger case counts.

use privateer_fuzz::{run_seeded, CaseSpec, OracleConfig};

const SEED: u64 = 0xC0FFEE;
const CASES: u64 = 40;

#[test]
fn seeded_batch_passes_the_differential_oracle() {
    let summary = run_seeded(SEED, CASES, &OracleConfig::default());
    if let Some(f) = &summary.failure {
        panic!(
            "case {} failed: {}\nshrunk repro:\n{}",
            f.index,
            f.failure,
            f.shrunk.to_text()
        );
    }
    assert_eq!(summary.cases, CASES);
    assert!(
        summary.cases_with_misspec > 0,
        "a {CASES}-case batch should provoke at least one misspeculation"
    );
    assert!(
        summary.cases_with_fault > 0,
        "the injected phase-2 fault should fire in a {CASES}-case batch"
    );
}

#[test]
fn campaign_is_reproducible() {
    let oc = OracleConfig {
        schedule_seeds: 1,
        ..OracleConfig::default()
    };
    let a = run_seeded(7, 10, &oc);
    let b = run_seeded(7, 10, &oc);
    assert_eq!(a.cases, b.cases);
    assert_eq!(a.cases_with_misspec, b.cases_with_misspec);
    assert_eq!(a.cases_trapped, b.cases_trapped);
    assert_eq!(a.cases_with_fault, b.cases_with_fault);
    assert!(a.failure.is_none() && b.failure.is_none());
}

#[test]
fn genuine_faults_verdict_matches_sequential() {
    // A hand-written case with a genuine division-by-zero: the oracle
    // accepts it because sequential and speculative agree on the trap
    // and on the partial output.
    let spec = CaseSpec::from_text(
        "privfuzz-case v1\n\
         name fault-repro\n\
         iters 24\n\
         cells 4\n\
         stmt write stride=1 add=0 mul=3\n\
         stmt print mul=2 add=1\n\
         stmt fault at=17\n",
    )
    .unwrap();
    privateer_fuzz::oracle::check_case(&spec, &OracleConfig::default())
        .expect("identical genuine faults must pass the oracle");
}

#[test]
fn deliberate_misspeculation_patterns_pass() {
    for stmt in [
        "stmt crossread at=9 offset=2",
        "stmt predictfail at=11",
        "stmt wrongheap at=6",
        "stmt shortlived leak_at=13",
    ] {
        let spec = CaseSpec::from_text(&format!(
            "privfuzz-case v1\n\
             name misspec-repro\n\
             iters 20\n\
             cells 5\n\
             stmt write stride=1 add=1 mul=7\n\
             stmt read stride=1 add=1\n\
             stmt redux mul=2 add=-1\n\
             {stmt}\n"
        ))
        .unwrap();
        let report = privateer_fuzz::oracle::check_case(&spec, &OracleConfig::default())
            .unwrap_or_else(|f| panic!("{stmt}: {f}"));
        assert!(report.misspecs > 0, "{stmt} should misspeculate");
    }
}
