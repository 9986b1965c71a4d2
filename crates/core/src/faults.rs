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
//! Cells execute on the [`SweepEngine`] with
//! per-cell panic isolation and a bounded retry loop that doubles the
//! cycle budget on [`SimError::CycleBudget`] trips.

use std::fmt;
use std::sync::Arc;

use gpumem::MemFaults;
use gpusim::{
    AuditMode, SimError, Simulator, TraversalPolicy, VtqParams, Workload, DEFAULT_AUDIT_INTERVAL,
};
use rtscene::lumibench::SceneId;

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
    /// Per-cell seed (derived from the campaign seed via splitmix64).
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

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deals the campaign's cells: kinds round-robin through
/// [`FaultKind::ALL`] (so controls recur every 8 cells), seeds derived
/// per-cell from the master seed. Deterministic in `cfg.seed` and
/// `cfg.cells`.
pub fn generate_cells(cfg: &CampaignConfig) -> Vec<FaultCell> {
    (0..cfg.cells)
        .map(|index| FaultCell {
            index,
            kind: FaultKind::ALL[index % FaultKind::ALL.len()],
            seed: splitmix64(cfg.seed.wrapping_add(index as u64)),
        })
        .collect()
}

/// How a cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// The simulation ran to completion under the auditor.
    Completed {
        /// Kernel cycles.
        cycles: u64,
        /// Rays completed.
        rays_completed: u64,
    },
    /// The simulation ended with a typed [`SimError`].
    Failed {
        /// [`SimError::kind`] of the final error.
        error_kind: String,
        /// The error's Display rendering.
        message: String,
    },
    /// The cell panicked — always a campaign failure.
    Panicked {
        /// The panic payload.
        message: String,
    },
}

/// One cell's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// Stable cell index.
    pub index: usize,
    /// The perturbation applied.
    pub kind: FaultKind,
    /// The cell's label (`faults/<index>/<kind>`).
    pub label: String,
    /// Retries consumed by the cycle-budget escalation loop.
    pub retries: u32,
    /// The watchdog budget of the final attempt (doubled per retry), so
    /// escalated cells are visible in exports without re-deriving the
    /// doubling arithmetic.
    pub final_budget: u64,
    /// Final status.
    pub status: CellStatus,
}

impl CellOutcome {
    /// Whether the status matches the fault kind's contract: panics are
    /// never acceptable; degenerate workloads must be rejected as
    /// `workload` errors; tiny budgets may complete (retries escalate the
    /// budget) or trip `cycle-budget`; everything else must complete.
    pub fn as_expected(&self) -> bool {
        match (&self.status, self.kind) {
            (CellStatus::Panicked { .. }, _) => false,
            (CellStatus::Completed { .. }, FaultKind::DegenerateWorkload) => false,
            (CellStatus::Completed { .. }, _) => true,
            (CellStatus::Failed { error_kind, .. }, FaultKind::DegenerateWorkload) => {
                error_kind == "workload"
            }
            (CellStatus::Failed { error_kind, .. }, FaultKind::TinyCycleBudget) => {
                error_kind == "cycle-budget"
            }
            (CellStatus::Failed { .. }, _) => false,
        }
    }
}

/// The whole campaign's outcomes, in cell order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Per-cell outcomes.
    pub cells: Vec<CellOutcome>,
}

impl CampaignReport {
    /// `true` when every cell ended as its fault kind's contract demands
    /// (see [`CellOutcome::as_expected`]).
    pub fn is_clean(&self) -> bool {
        self.cells.iter().all(CellOutcome::as_expected)
    }

    /// The cells that broke their contract.
    pub fn violations(&self) -> Vec<&CellOutcome> {
        self.cells.iter().filter(|c| !c.as_expected()).collect()
    }

    /// One-line digest: cell count, completions, typed failures by kind,
    /// panics, contract violations.
    pub fn summary(&self) -> String {
        let ok =
            self.cells.iter().filter(|c| matches!(c.status, CellStatus::Completed { .. })).count();
        let failed =
            self.cells.iter().filter(|c| matches!(c.status, CellStatus::Failed { .. })).count();
        let panicked =
            self.cells.iter().filter(|c| matches!(c.status, CellStatus::Panicked { .. })).count();
        let retries: u32 = self.cells.iter().map(|c| c.retries).sum();
        format!(
            "{} cells: {ok} completed, {failed} typed errors, {panicked} panics, \
             {retries} retries, {} contract violations",
            self.cells.len(),
            self.violations().len(),
        )
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
/// isolation per cell, and cycle-budget-doubling retries. Returns
/// outcomes in cell order.
pub fn run_campaign(cfg: &CampaignConfig, engine: &SweepEngine) -> CampaignReport {
    let prepared = engine.cache().get(cfg.scene, &cfg.config);
    let cells = generate_cells(cfg);
    let tasks: Vec<(String, _)> = cells
        .iter()
        .map(|&cell| {
            let prepared = Arc::clone(&prepared);
            let cfg = *cfg;
            let run = move |attempt: u32| -> Result<(u64, u64), SimError> {
                let (gpu, workload) = cell_inputs(&cfg, cell, attempt, &prepared.workload)?;
                let report = Simulator::new(&prepared.bvh, prepared.scene.triangles(), gpu)
                    .try_run(&workload)?;
                Ok((report.stats.cycles, report.stats.rays_completed))
            };
            (format!("faults/{}/{}", cell.index, cell.kind.label()), run)
        })
        .collect();
    let results = engine.run_tasks_retrying(tasks, cfg.max_retries, |e: &SimError| {
        matches!(e, SimError::CycleBudget { .. })
    });
    let outcomes = cells
        .iter()
        .zip(results)
        .map(|(cell, result)| {
            let label = format!("faults/{}/{}", cell.index, cell.kind.label());
            let (retries, status) = match result {
                Ok(retried) => (
                    retried.retries,
                    match retried.result {
                        Ok((cycles, rays_completed)) => {
                            CellStatus::Completed { cycles, rays_completed }
                        }
                        Err(e) => CellStatus::Failed {
                            error_kind: e.kind().to_string(),
                            message: e.to_string(),
                        },
                    },
                ),
                Err(cell_error) => (0, CellStatus::Panicked { message: cell_error.message }),
            };
            let final_budget = cell_budget(cfg, cell.kind, retries);
            CellOutcome { index: cell.index, kind: cell.kind, label, retries, final_budget, status }
        })
        .collect();
    CampaignReport { cells: outcomes }
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
        // Cell seeds differ (splitmix64 of distinct inputs).
        assert_ne!(a[0].seed, a[1].seed);
        // A different master seed moves every cell seed.
        let other = generate_cells(&CampaignConfig { seed: 1, ..cfg });
        assert_ne!(a[0].seed, other[0].seed);
    }

    #[test]
    fn expectations_encode_the_contract() {
        let ok = CellStatus::Completed { cycles: 1, rays_completed: 1 };
        let cell = |kind, status| CellOutcome {
            index: 0,
            kind,
            label: String::new(),
            retries: 0,
            final_budget: 2_000,
            status,
        };
        assert!(cell(FaultKind::Control, ok.clone()).as_expected());
        assert!(!cell(FaultKind::DegenerateWorkload, ok.clone()).as_expected());
        let workload_err =
            CellStatus::Failed { error_kind: "workload".to_string(), message: String::new() };
        assert!(cell(FaultKind::DegenerateWorkload, workload_err.clone()).as_expected());
        assert!(!cell(FaultKind::Control, workload_err).as_expected());
        let budget_err =
            CellStatus::Failed { error_kind: "cycle-budget".to_string(), message: String::new() };
        assert!(cell(FaultKind::TinyCycleBudget, budget_err.clone()).as_expected());
        assert!(cell(FaultKind::TinyCycleBudget, ok).as_expected());
        assert!(!cell(FaultKind::SchedJitter, budget_err).as_expected());
        let panic = CellStatus::Panicked { message: String::new() };
        assert!(!cell(FaultKind::Control, panic).as_expected());
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

    #[test]
    fn summary_counts_line_up() {
        let report = CampaignReport {
            cells: vec![
                CellOutcome {
                    index: 0,
                    kind: FaultKind::Control,
                    label: "faults/0/control".to_string(),
                    retries: 1,
                    final_budget: 1_000_000,
                    status: CellStatus::Completed { cycles: 10, rays_completed: 2 },
                },
                CellOutcome {
                    index: 1,
                    kind: FaultKind::DegenerateWorkload,
                    label: "faults/1/degenerate-workload".to_string(),
                    retries: 0,
                    final_budget: 500_000,
                    status: CellStatus::Failed {
                        error_kind: "workload".to_string(),
                        message: "empty".to_string(),
                    },
                },
            ],
        };
        assert!(report.is_clean());
        let s = report.summary();
        assert!(s.contains("2 cells"), "got: {s}");
        assert!(s.contains("1 completed"), "got: {s}");
        assert!(s.contains("1 typed errors"), "got: {s}");
        assert!(s.contains("0 panics"), "got: {s}");
        assert!(s.contains("0 contract violations"), "got: {s}");
    }
}
