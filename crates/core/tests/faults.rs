//! Smoke test for the seeded fault-injection campaign: a 25-cell matrix
//! on a tiny scene, run with the invariant auditor on every cell. The
//! campaign contract — no panics, control cells complete with rays
//! traced, degenerate workloads rejected with typed errors, tiny budgets
//! trip the watchdog — must hold end to end.

use vtq::prelude::*;

#[test]
fn quick_campaign_is_clean_end_to_end() {
    // Shrink the quick campaign further so this stays fast in debug
    // builds; the kinds, seeds and contract are unchanged.
    let mut cfg = CampaignConfig::quick();
    cfg.config.resolution = 16;
    cfg.config.detail_divisor = 16;
    assert_eq!(cfg.cells, 25);

    let engine = SweepEngine::new(0);
    let report = run_campaign(&cfg, &engine);
    assert_eq!(report.outcomes.len(), 25);
    assert!(
        report.is_clean(),
        "campaign violations: {:?}\nsummary: {}",
        report.violations().collect::<Vec<_>>(),
        report.summary()
    );

    // Spot-check the contract per kind rather than trusting is_clean
    // alone: outcomes follow cell order, controls completed, degenerate
    // cells were rejected as `workload` without retrying, tiny budgets
    // that ended in `cycle-budget` consumed their whole retry budget.
    for (cell, outcome) in generate_cells(&cfg).iter().zip(&report.outcomes) {
        assert_eq!((outcome.scenario.as_str(), outcome.seed), (cell.kind.label(), cell.seed));
        let detail = outcome.verdict.as_deref().expect("clean campaign");
        match cell.kind {
            FaultKind::Control => {
                assert!(detail.starts_with("completed"), "control cell {}: {detail}", cell.index);
            }
            FaultKind::DegenerateWorkload => {
                assert!(detail.starts_with("workload"), "degenerate cell {}: {detail}", cell.index);
                assert_eq!(outcome.retries, 0, "workload errors are not retryable");
            }
            FaultKind::TinyCycleBudget if detail.starts_with("cycle-budget") => {
                assert_eq!(outcome.retries, cfg.max_retries, "budget errors retry to exhaustion");
            }
            _ => {}
        }
    }

    // The prepared scene was built exactly once: all 25 cells share it.
    assert_eq!(engine.cache().builds(), 1);

    // Determinism: the same campaign again yields identical outcomes.
    let again = run_campaign(&cfg, &engine);
    assert_eq!(report, again);
}
