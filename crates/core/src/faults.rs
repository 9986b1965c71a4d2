//! Seeded fault-injection campaigns over the simulator.
//!
//! The integrity layer's end-to-end exercise: a campaign is a seeded
//! matrix of *fault cells*, each perturbing one axis of the system —
//! memory latency spikes and bandwidth throttling ([`gpumem::MemFaults`]),
//! CTA scheduling jitter, truncated or degenerate workloads,
//! near-capacity treelet-queue tables, and starvation-level cycle budgets
//! — and running the simulator under the invariant auditor. The contract
//! every cell must satisfy: the process never panics; the run ends either
//! `Ok` or with a *typed* [`SimError`] that matches the fault's expected
//! failure mode; and control cells (no perturbation) complete cleanly.
//!
//! Cells run through the one campaign runner, [`campaign::run`], on the
//! [`SweepEngine`]: per-cell panic isolation and a bounded retry loop
//! that doubles the cycle budget on [`SimError::CycleBudget`] trips.
//! Each outcome is named after its [`FaultKind`] and carries the cell
//! seed.

use std::fmt;
use std::sync::Arc;

use gpumem::MemFaults;
use gpusim::{
    AuditMode, SimError, Simulator, TraversalPolicy, VtqParams, Workload, DEFAULT_AUDIT_INTERVAL,
};
use rtmath::XorShiftRng;
use rtscene::lumibench::SceneId;

use crate::campaign::{self, Report, Scenario, Verdict};
use crate::experiment::ExperimentConfig;
use crate::sweep::SweepEngine;

/// One axis of perturbation a fault cell applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No perturbation — the campaign's baseline; must complete cleanly.
    Control,
    /// Random DRAM latency spikes ([`MemFaults::spike_per_mille`]).
    MemLatencySpike,
    /// DRAM bandwidth divided by a small factor
    /// ([`MemFaults::bandwidth_divisor`]).
    MemBandwidthThrottle,
    /// Randomized extra latency on CTA raygen/shade phases
    /// ([`gpusim::GpuConfig::sched_jitter_cycles`]).
    SchedJitter,
    /// The workload cut to a prefix of its tasks — still valid, must
    /// complete.
    TruncatedWorkload,
    /// An empty workload — must be rejected with [`SimError::Workload`].
    DegenerateWorkload,
    /// Treelet count/queue tables shrunk to near-capacity so overflow
    /// spill paths run constantly.
    NearCapacityQueues,
    /// A cycle budget far below the kernel length — must trip
    /// [`SimError::CycleBudget`] (or complete if retries escalate far
    /// enough).
    TinyCycleBudget,
}

impl FaultKind {
    /// Every kind, in the round-robin order cells are dealt.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::Control,
        FaultKind::MemLatencySpike,
        FaultKind::MemBandwidthThrottle,
        FaultKind::SchedJitter,
        FaultKind::TruncatedWorkload,
        FaultKind::DegenerateWorkload,
        FaultKind::NearCapacityQueues,
        FaultKind::TinyCycleBudget,
    ];

    /// Short stable tag (used in cell labels and exports).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Control => "control",
            FaultKind::MemLatencySpike => "mem-latency-spike",
            FaultKind::MemBandwidthThrottle => "mem-bandwidth-throttle",
            FaultKind::SchedJitter => "sched-jitter",
            FaultKind::TruncatedWorkload => "truncated-workload",
            FaultKind::DegenerateWorkload => "degenerate-workload",
            FaultKind::NearCapacityQueues => "near-capacity-queues",
            FaultKind::TinyCycleBudget => "tiny-cycle-budget",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of a campaign: a fault kind plus its private seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCell {
    /// Stable index in the campaign.
    pub index: usize,
    /// The perturbation this cell applies.
    pub kind: FaultKind,
    /// Per-cell seed (drawn from the campaign seed's [`XorShiftRng`]).
    pub seed: u64,
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Campaign master seed; every cell seed derives from it.
    pub seed: u64,
    /// Number of cells (kinds are dealt round-robin, so any count ≥
    /// [`FaultKind::ALL`]`.len()` covers every kind).
    pub cells: usize,
    /// Scene every cell simulates.
    pub scene: SceneId,
    /// Base experiment configuration (shared prepared scene).
    pub config: ExperimentConfig,
    /// Retry budget for [`SimError::CycleBudget`] trips (the cycle budget
    /// doubles per attempt).
    pub max_retries: u32,
    /// Watchdog budget for non-budget-fault cells: generous, a safety net
    /// rather than a constraint.
    pub cycle_budget: u64,
}

impl CampaignConfig {
    /// A small, fast campaign: 25 cells on a reduced scene — the shape CI
    /// and `vtq-bench faults --quick` run.
    pub fn quick() -> CampaignConfig {
        let mut config = ExperimentConfig::quick();
        config.resolution = 32;
        CampaignConfig {
            seed: 0xC0FFEE,
            cells: 25,
            scene: SceneId::Ref,
            config,
            max_retries: 2,
            cycle_budget: 500_000_000,
        }
    }

    /// The full campaign: more cells on the standard quick scene.
    pub fn full() -> CampaignConfig {
        CampaignConfig { cells: 64, config: ExperimentConfig::quick(), ..CampaignConfig::quick() }
    }
}

/// Deals the campaign's cells: kinds round-robin through
/// [`FaultKind::ALL`] (so controls recur every 8 cells), seeds drawn in
/// cell order from an [`XorShiftRng`] seeded with the master seed.
/// Deterministic in `cfg.seed` and `cfg.cells`.
pub fn generate_cells(cfg: &CampaignConfig) -> Vec<FaultCell> {
    let mut rng = XorShiftRng::new(cfg.seed);
    (0..cfg.cells)
        .map(|index| FaultCell {
            index,
            kind: FaultKind::ALL[index % FaultKind::ALL.len()],
            seed: rng.next_u64(),
        })
        .collect()
}

/// Judges a cell's final attempt against its kind's contract: degenerate
/// workloads must be rejected as `workload` errors; tiny budgets may
/// complete (retries escalate the budget) or trip `cycle-budget`;
/// controls must complete with rays traced; every other kind must
/// complete. The detail starts with the status (`completed` or the
/// [`SimError::kind`]) and names the retries, final budget, cycles and
/// rays.
fn judge(
    kind: FaultKind,
    retries: u32,
    budget: u64,
    result: &Result<(u64, u64), SimError>,
) -> Verdict {
    let (status, cycles, rays, error) = match result {
        Ok((cycles, rays)) => ("completed", *cycles, *rays, String::new()),
        Err(e) => (e.kind(), 0, 0, format!(": {e}")),
    };
    let detail = format!(
        "{status} after {retries} retries (final budget {budget}): {cycles} cycles, {rays} rays{error}"
    );
    let kept = match (result, kind) {
        (Ok(_), FaultKind::DegenerateWorkload) => false,
        (Ok((_, rays)), FaultKind::Control) => *rays > 0,
        (Ok(_), _) => true,
        (Err(e), FaultKind::DegenerateWorkload) => e.kind() == "workload",
        (Err(e), FaultKind::TinyCycleBudget) => e.kind() == "cycle-budget",
        (Err(_), _) => false,
    };
    if kept {
        Ok(detail)
    } else {
        Err(detail)
    }
}

/// The watchdog budget one cell runs with on `attempt`: the kind's base
/// budget (starvation-level for [`FaultKind::TinyCycleBudget`], the
/// campaign's safety net otherwise) doubled per retry, saturating.
pub fn cell_budget(cfg: &CampaignConfig, kind: FaultKind, attempt: u32) -> u64 {
    let base = if kind == FaultKind::TinyCycleBudget { 2_000 } else { cfg.cycle_budget };
    base.saturating_mul(1u64 << attempt.min(32))
}

/// Rebuilds the exact simulator inputs of one cell attempt — the
/// perturbed GPU configuration and the (possibly truncated) workload —
/// so a failure can be shrunk and replayed outside the campaign loop.
pub fn cell_inputs(
    cfg: &CampaignConfig,
    cell: FaultCell,
    attempt: u32,
    base_workload: &Workload,
) -> Result<(gpusim::GpuConfig, Workload), SimError> {
    let gpu = cell_gpu(cfg, cell, attempt)?;
    let workload = match cell.kind {
        FaultKind::TruncatedWorkload => Workload {
            tasks: base_workload.tasks[..base_workload.tasks.len().div_ceil(3)].to_vec(),
        },
        FaultKind::DegenerateWorkload => Workload { tasks: Vec::new() },
        _ => base_workload.clone(),
    };
    Ok((gpu, workload))
}

/// Builds the perturbed GPU configuration for one cell attempt. The
/// result goes through the validating builder, so a perturbation that
/// produces an inconsistent configuration surfaces as
/// [`SimError::Config`] rather than undefined simulator behaviour.
fn cell_gpu(
    cfg: &CampaignConfig,
    cell: FaultCell,
    attempt: u32,
) -> Result<gpusim::GpuConfig, SimError> {
    let mut gpu = cfg.config.gpu;
    let mut vtq = VtqParams { queue_threshold: 32, ..VtqParams::default() };
    match cell.kind {
        FaultKind::Control | FaultKind::TruncatedWorkload | FaultKind::DegenerateWorkload => {}
        FaultKind::MemLatencySpike => {
            gpu.mem.faults = MemFaults {
                spike_per_mille: 50 + (cell.seed % 200) as u32,
                spike_extra_cycles: 100 + (cell.seed % 400) as u32,
                bandwidth_divisor: 1,
                seed: cell.seed,
            };
        }
        FaultKind::MemBandwidthThrottle => {
            gpu.mem.faults = MemFaults {
                bandwidth_divisor: 2 + (cell.seed % 7) as u32,
                ..MemFaults { seed: cell.seed, ..MemFaults::default() }
            };
        }
        FaultKind::SchedJitter => {
            gpu.sched_jitter_cycles = 1 + (cell.seed % 8) as u32;
            gpu.sched_jitter_seed = cell.seed;
        }
        FaultKind::NearCapacityQueues => {
            vtq.count_table_entries = 1 + (cell.seed % 4) as usize;
            vtq.queue_table_entries = 1 + (cell.seed % 2) as usize;
        }
        FaultKind::TinyCycleBudget => {} // expressed via cell_budget
    }
    // Retries double the budget; saturate rather than overflow.
    let budget = cell_budget(cfg, cell.kind, attempt);
    let gpu = gpu
        .with_policy(TraversalPolicy::Vtq(vtq))
        .into_builder()
        .max_cycles(budget)
        .audit(AuditMode::Every(DEFAULT_AUDIT_INTERVAL))
        .build()?;
    Ok(gpu)
}

/// Runs the campaign on `engine`: one prepared scene (via the engine's
/// cache), one simulator per cell with the cell's perturbation, panic
/// isolation per cell, and cycle-budget-doubling retries. Each outcome
/// is named after its cell's [`FaultKind::label`] and carries the cell
/// seed; outcomes come back in cell order.
pub fn run_campaign(cfg: &CampaignConfig, engine: &SweepEngine) -> Report {
    let prepared = engine.cache().get(cfg.scene, &cfg.config);
    let scenarios = generate_cells(cfg)
        .into_iter()
        .map(|cell| {
            let prepared = Arc::clone(&prepared);
            let cfg = *cfg;
            Scenario::new(cell.kind.label(), cell.seed, move |attempt| {
                let result = cell_inputs(&cfg, cell, attempt, &prepared.workload).and_then(
                    |(gpu, workload)| {
                        let report = Simulator::new(&prepared.bvh, prepared.scene.triangles(), gpu)
                            .try_run(&workload)?;
                        Ok((report.stats.cycles, report.stats.rays_completed))
                    },
                );
                let budget = cell_budget(&cfg, cell.kind, attempt);
                let verdict = judge(cell.kind, attempt, budget, &result);
                if matches!(result, Err(SimError::CycleBudget { .. })) {
                    Err(verdict)
                } else {
                    Ok(verdict)
                }
            })
        })
        .collect();
    campaign::run(engine, scenarios, cfg.max_retries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_deterministic_and_cover_every_kind() {
        let cfg = CampaignConfig::quick();
        let a = generate_cells(&cfg);
        let b = generate_cells(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        for kind in FaultKind::ALL {
            assert!(a.iter().any(|c| c.kind == kind), "missing {kind}");
        }
        // Cell seeds differ (successive draws of one stream).
        assert_ne!(a[0].seed, a[1].seed);
        // A different master seed moves every cell seed.
        let other = generate_cells(&CampaignConfig { seed: 1, ..cfg });
        assert_ne!(a[0].seed, other[0].seed);
    }

    #[test]
    fn judge_encodes_the_contract() {
        let ok = Ok((10, 4));
        let no_rays = Ok((10, 0));
        let workload = Err(SimError::Workload("empty".to_string()));
        let budget = Err(SimError::CycleBudget {
            budget: 2_000,
            snapshot: gpusim::ForensicsSnapshot::default(),
        });
        let kept = |kind, result: &Result<(u64, u64), SimError>| judge(kind, 0, 1, result).is_ok();
        assert!(kept(FaultKind::Control, &ok));
        assert!(!kept(FaultKind::Control, &no_rays), "a control must trace rays");
        assert!(kept(FaultKind::SchedJitter, &no_rays));
        assert!(!kept(FaultKind::DegenerateWorkload, &ok));
        assert!(kept(FaultKind::DegenerateWorkload, &workload));
        assert!(!kept(FaultKind::Control, &workload));
        assert!(kept(FaultKind::TinyCycleBudget, &budget));
        assert!(kept(FaultKind::TinyCycleBudget, &ok));
        assert!(!kept(FaultKind::SchedJitter, &budget));

        let detail = judge(FaultKind::TinyCycleBudget, 2, 8_000, &budget).unwrap();
        assert!(
            detail
                .starts_with("cycle-budget after 2 retries (final budget 8000): 0 cycles, 0 rays"),
            "{detail}"
        );
        let detail = judge(FaultKind::Control, 0, 5, &ok).unwrap();
        assert_eq!(detail, "completed after 0 retries (final budget 5): 10 cycles, 4 rays");
    }

    #[test]
    fn budgets_double_per_retry_and_saturate() {
        let cfg = CampaignConfig::quick();
        assert_eq!(cell_budget(&cfg, FaultKind::TinyCycleBudget, 0), 2_000);
        assert_eq!(cell_budget(&cfg, FaultKind::TinyCycleBudget, 2), 8_000);
        assert_eq!(cell_budget(&cfg, FaultKind::Control, 0), cfg.cycle_budget);
        assert_eq!(cell_budget(&cfg, FaultKind::Control, 1), cfg.cycle_budget * 2);
        // The shift clamps at 32 doublings instead of overflowing.
        assert_eq!(
            cell_budget(&cfg, FaultKind::Control, 64),
            cell_budget(&cfg, FaultKind::Control, 32)
        );
    }

    #[test]
    fn cell_inputs_mirror_the_campaign_loop() {
        let cfg = CampaignConfig::quick();
        let base =
            Workload { tasks: (0..9).map(|_| gpusim::PathTask { rays: Vec::new() }).collect() };
        let truncated = FaultCell { index: 0, kind: FaultKind::TruncatedWorkload, seed: 1 };
        let (_, w) = cell_inputs(&cfg, truncated, 0, &base).expect("valid config");
        assert_eq!(w.tasks.len(), 3, "truncation keeps a third of the tasks");
        let degenerate = FaultCell { index: 1, kind: FaultKind::DegenerateWorkload, seed: 2 };
        let (_, w) = cell_inputs(&cfg, degenerate, 0, &base).expect("valid config");
        assert!(w.tasks.is_empty());
        let tiny = FaultCell { index: 2, kind: FaultKind::TinyCycleBudget, seed: 3 };
        let (gpu, _) = cell_inputs(&cfg, tiny, 1, &base).expect("valid config");
        assert_eq!(gpu.max_cycles, Some(4_000), "attempt 1 doubles the 2k budget");
    }
}
