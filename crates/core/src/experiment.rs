//! One runner per paper table/figure.
//!
//! [`Prepared`] bundles everything one scene needs (scene, BVH, workload,
//! reference image); the `figNN` functions run the policy configurations a
//! figure compares and return typed rows. The `vtq-bench` harness binaries
//! print these rows in the paper's format; EXPERIMENTS.md records the
//! resulting paper-vs-measured comparison.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use gpumem::{AccessKind, WindowPoint};
use gpusim::export::{metrics_json, series_csv, stall_csv};
use gpusim::{
    GpuConfig, HitCapture, PredictParams, RunOptions, SimError, SimReport, SimStats, Simulator,
    TraceSink, TraversalMode, TraversalPolicy, VtqParams, Workload,
};
use rtbvh::{Bvh, BvhConfig, NodeFormat};
use rtscene::lumibench::{self, SceneId};
use rtscene::Scene;

use crate::analytical::{self, RayTrace};
use crate::sweep::{CellResult, SweepEngine};
use crate::workload::{Image, PathTracer};

/// Shared experiment parameters (defaults = the paper's §5 methodology).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Image resolution per side (paper: 256).
    pub resolution: u32,
    /// Maximum secondary bounces (paper: 3).
    pub max_bounces: u32,
    /// Scene detail divisor (1 = the full scaled suite; tests use more).
    pub detail_divisor: u32,
    /// GPU configuration; the policy field is overridden per run.
    pub gpu: GpuConfig,
    /// BVH build configuration.
    pub bvh: BvhConfig,
    /// Trace next-event-estimation shadow rays (anyhit calls) after each
    /// diffuse hit. Off in the paper's §5.1 workload; on for the NEE
    /// experiment.
    pub shadow_rays: bool,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        // Scale-model methodology: scenes are ~1/64 the paper's size, so
        // cache capacities are scaled down to keep BVH:L1 ratios in the
        // paper's regime, and treelets stay half the (scaled) L1.
        ExperimentConfig {
            resolution: 256,
            max_bounces: 3,
            detail_divisor: 1,
            gpu: GpuConfig::scale_model(),
            bvh: BvhConfig { treelet_bytes: 2048, ..Default::default() },
            shadow_rays: false,
        }
    }
}

impl ExperimentConfig {
    /// The unscaled Table 1 configuration (16 KB L1 / 128 KB L2 / 8 KB
    /// treelets): useful for sensitivity studies against the scale-model
    /// default.
    pub fn table1() -> ExperimentConfig {
        ExperimentConfig {
            gpu: GpuConfig::default(),
            bvh: BvhConfig::default(),
            ..Default::default()
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for fast smoke runs and CI: low detail,
    /// small image, 4 SMs. The *shape* of the results matches the full
    /// configuration; magnitudes are noisier.
    pub fn quick() -> ExperimentConfig {
        let mut cfg = ExperimentConfig {
            resolution: 64,
            max_bounces: 2,
            detail_divisor: 8,
            gpu: GpuConfig::default(),
            bvh: BvhConfig { treelet_bytes: 2048, ..Default::default() },
            shadow_rays: false,
        };
        cfg.gpu.mem.num_sms = 4;
        cfg
    }
}

/// A scene prepared for simulation: geometry, BVH, workload and the
/// functional render.
#[derive(Debug)]
pub struct Prepared {
    /// Which LumiBench-like scene this is.
    pub id: SceneId,
    /// The scene.
    pub scene: Scene,
    /// Its BVH.
    pub bvh: Bvh,
    /// The path-tracing workload (one task per pixel).
    pub workload: Workload,
    /// The CPU-rendered reference image.
    pub image: Image,
    gpu: GpuConfig,
}

impl Prepared {
    /// Builds scene, BVH and workload for `id` under `cfg`.
    pub fn build(id: SceneId, cfg: &ExperimentConfig) -> Prepared {
        let _prepare = prof::span("prepare");
        prof::add(prof::Counter::PreparedBuilds, 1);
        let scene = {
            let _scene = prof::span("scene");
            lumibench::build_scaled(id, cfg.detail_divisor)
        };
        let bvh = Bvh::build(scene.triangles(), &cfg.bvh);
        let mut tracer = PathTracer::new(cfg.resolution, cfg.max_bounces);
        if cfg.shadow_rays {
            tracer = tracer.with_shadow_rays();
        }
        let (workload, image) = {
            let _trace = prof::span("pathtrace");
            tracer.run(&scene, &bvh)
        };
        Prepared { id, scene, bvh, workload, image, gpu: cfg.gpu }
    }

    /// Simulates the workload under `policy`.
    ///
    /// # Panics
    ///
    /// Panics on any [`gpusim::SimError`]; use
    /// [`Prepared::try_run_policy`] for the typed-error form.
    pub fn run_policy(&self, policy: TraversalPolicy) -> SimReport {
        self.try_run_policy(policy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Simulates under the VTQ policy with explicit parameters.
    pub fn run_vtq(&self, params: VtqParams) -> SimReport {
        self.run_policy(TraversalPolicy::Vtq(params))
    }

    /// Fallible [`Prepared::run_policy`]: returns the typed
    /// [`gpusim::SimError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Identical to [`gpusim::Simulator::try_run`].
    pub fn try_run_policy(&self, policy: TraversalPolicy) -> Result<SimReport, SimError> {
        Simulator::new(&self.bvh, self.scene.triangles(), self.gpu.with_policy(policy))
            .try_run(&self.workload)
    }

    /// [`Prepared::try_run_policy`] plus the explicit functional
    /// [`HitCapture`], for the differential conformance harness.
    ///
    /// # Errors
    ///
    /// Identical to [`gpusim::Simulator::try_run`].
    pub fn try_run_policy_with_hits(
        &self,
        policy: TraversalPolicy,
    ) -> Result<(SimReport, HitCapture), SimError> {
        let mut capture = None;
        let report =
            Simulator::new(&self.bvh, self.scene.triangles(), self.gpu.with_policy(policy))
                .try_run_with(&self.workload, RunOptions::new().capture_hits(&mut capture))?;
        Ok((report, capture.expect("a completed run always fills the requested capture")))
    }

    /// Like [`Prepared::run_policy`], but streams trace events into
    /// `sink` (see [`gpusim::TraceSink`]). Timing is unaffected.
    ///
    /// # Panics
    ///
    /// Panics on any [`gpusim::SimError`].
    pub fn run_policy_traced(
        &self,
        policy: TraversalPolicy,
        sink: &mut dyn TraceSink,
    ) -> SimReport {
        Simulator::new(&self.bvh, self.scene.triangles(), self.gpu.with_policy(policy))
            .try_run_with(&self.workload, RunOptions::new().trace(sink))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Records per-ray node-access traces (for the analytical model).
    pub fn traces(&self) -> Vec<RayTrace> {
        analytical::record_traces(&self.bvh, self.scene.triangles(), &self.workload)
    }
}

// ---------------------------------------------------------------------------
// Persistence & aggregation
// ---------------------------------------------------------------------------

/// Merges the [`SimStats`] of several runs (per-scene kernels of one
/// experiment) into one aggregate via [`SimStats::merge`]: throughput
/// counters add, capacity peaks take the max, stall breakdowns and series
/// windows accumulate position-wise.
pub fn aggregate_stats<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> SimStats {
    let mut agg = SimStats::default();
    for report in reports {
        agg.merge(&report.stats);
    }
    agg
}

/// Persists one run's machine-readable metrics under `dir`:
///
/// * `<label>.series.csv` — the time-series windows
///   ([`gpusim::export::series_csv`]); skipped when sampling was disabled,
/// * `<label>.stalls.csv` — per-RT-unit stall attribution,
/// * one line appended to `metrics.jsonl` — the flat
///   [`gpusim::export::metrics_json`] object.
///
/// `label` is sanitized for the filesystem (`/` → `-`). Creates `dir` if
/// missing.
///
/// # Errors
///
/// Propagates any I/O error from creating or writing the files.
pub fn export_run(dir: &Path, label: &str, report: &SimReport) -> std::io::Result<()> {
    let _export = prof::span("export");
    fs::create_dir_all(dir)?;
    let stem: String =
        label.chars().map(|c| if c == '/' || c.is_whitespace() { '-' } else { c }).collect();
    let mut bytes = 0u64;
    if !report.stats.series.is_empty() {
        let series = series_csv(&report.stats.series);
        bytes += series.len() as u64;
        fs::write(dir.join(format!("{stem}.series.csv")), series)?;
    }
    let stalls = stall_csv(&report.stats.stall);
    bytes += stalls.len() as u64;
    fs::write(dir.join(format!("{stem}.stalls.csv")), stalls)?;
    let mut metrics =
        fs::OpenOptions::new().create(true).append(true).open(dir.join("metrics.jsonl"))?;
    let line = metrics_json(label, report);
    bytes += line.len() as u64 + 1;
    writeln!(metrics, "{line}")?;
    prof::add(prof::Counter::BytesExported, bytes);
    Ok(())
}

// ---------------------------------------------------------------------------
// Figure rows
//
// Each figure is layered so the serial and parallel paths share one
// row-assembly function:
//
//   * `figNN_policies()` — the policy cells the figure runs per scene, in
//     a fixed order,
//   * `figNN_from_reports(scene, reports)` — reports (in that order) →
//     the typed row,
//   * `figNN(&Prepared)` — the serial path: runs the policies in order on
//     one prepared scene,
//   * `figNN_sweep(engine, scenes, cfg)` — the parallel path: submits the
//     scene-major grid through the [`SweepEngine`].
//
// Both paths funnel through the same assembler on reports produced by the
// same deterministic simulator, which is what makes a `--jobs N` sweep
// bit-identical to `--jobs 1`.
// ---------------------------------------------------------------------------

/// Runs `policies` in order on one prepared scene (the serial path).
fn run_policies(p: &Prepared, policies: &[TraversalPolicy]) -> Vec<SimReport> {
    policies.iter().map(|&policy| p.run_policy(policy)).collect()
}

/// The fig11 contrast configuration: permanently treelet-stationary —
/// diverge instantly, dispatch any queue, never drain into ray-stationary
/// warps.
pub fn always_stationary_params() -> VtqParams {
    VtqParams::builder()
        .divergence_treelets(0)
        .queue_threshold(1)
        .group_underpopulated(false)
        .repack_threshold(0)
        .build()
        .expect("always-stationary preset")
}

/// The paper's *naive* treelet queues (Figure 12 strawman): no grouping,
/// no repacking.
pub fn naive_params() -> VtqParams {
    VtqParams::builder()
        .group_underpopulated(false)
        .repack_threshold(0)
        .build()
        .expect("naive preset")
}

/// Grouping enabled at `queue_threshold`, repacking disabled (Figure 12's
/// sweep points).
pub fn grouped_params(queue_threshold: usize) -> VtqParams {
    VtqParams::builder()
        .queue_threshold(queue_threshold)
        .repack_threshold(0)
        .build()
        .expect("grouped preset")
}

/// Full VTQ at an explicit `repack_threshold` (Figure 13's sweep points;
/// `0` disables repacking).
pub fn repack_params(repack_threshold: usize) -> VtqParams {
    VtqParams::builder().repack_threshold(repack_threshold).build().expect("repack preset")
}

/// Full VTQ with idealized ("free") virtualization (Figures 16/17).
pub fn free_virtualization_params() -> VtqParams {
    VtqParams::builder().charge_virtualization(false).build().expect("free-virtualization preset")
}

/// Figure 1: baseline L1 BVH miss rate (a) and RT-unit SIMT efficiency (b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Row {
    /// Scene.
    pub scene: SceneId,
    /// L1 miss rate of BVH accesses issued from the RT unit.
    pub l1_bvh_miss_rate: f64,
    /// Baseline RT-unit SIMT efficiency.
    pub simt_efficiency: f64,
}

/// The policy cells Figure 1 runs per scene.
pub fn fig01_policies() -> Vec<TraversalPolicy> {
    vec![TraversalPolicy::Baseline]
}

/// Assembles a Figure 1 row from [`fig01_policies`]-ordered reports.
pub fn fig01_from_reports(scene: SceneId, reports: &[SimReport]) -> Fig1Row {
    let r = &reports[0];
    Fig1Row {
        scene,
        l1_bvh_miss_rate: r.mem.kind(AccessKind::Bvh).l1_miss_rate(),
        simt_efficiency: r.stats.simt_efficiency(),
    }
}

/// Runs the baseline and extracts Figure 1's two series.
pub fn fig01(p: &Prepared) -> Fig1Row {
    fig01_from_reports(p.id, &run_policies(p, &fig01_policies()))
}

/// Figure 1 across `scenes`, submitted through the sweep engine.
pub fn fig01_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<CellResult<Fig1Row>> {
    engine.run_grid(scenes, cfg, &fig01_policies(), fig01_from_reports)
}

/// Figure 5: analytical treelet speedup vs concurrent rays.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Scene.
    pub scene: SceneId,
    /// `(concurrent rays, estimated speedup)` pairs.
    pub speedups: Vec<(usize, f64)>,
}

/// Evaluates the §2.4 analytical model on this scene's traces.
pub fn fig05(p: &Prepared, batch_sizes: &[usize]) -> Fig5Row {
    let traces = p.traces();
    Fig5Row { scene: p.id, speedups: analytical::analytical_speedups(&p.bvh, &traces, batch_sizes) }
}

/// Figure 5 across `scenes` through the sweep engine (one trace-recording
/// task per scene — no simulation runs).
pub fn fig05_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
    batch_sizes: &[usize],
) -> Vec<CellResult<Fig5Row>> {
    engine.run_scenes(scenes, cfg, |p| fig05(p, batch_sizes))
}

/// Figure 10: overall speedup of VTQ and treelet prefetching over baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Row {
    /// Scene.
    pub scene: SceneId,
    /// Baseline cycles.
    pub baseline_cycles: u64,
    /// Treelet-prefetching cycles.
    pub prefetch_cycles: u64,
    /// Virtualized-treelet-queue cycles.
    pub vtq_cycles: u64,
}

impl Fig10Row {
    /// VTQ speedup over the baseline.
    pub fn vtq_speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.vtq_cycles as f64
    }

    /// Prefetching speedup over the baseline.
    pub fn prefetch_speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.prefetch_cycles as f64
    }

    /// VTQ speedup over prefetching.
    pub fn vtq_over_prefetch(&self) -> f64 {
        self.prefetch_cycles as f64 / self.vtq_cycles as f64
    }
}

/// The policy cells Figure 10 runs per scene: baseline, prefetch, VTQ.
pub fn fig10_policies() -> Vec<TraversalPolicy> {
    vec![
        TraversalPolicy::Baseline,
        TraversalPolicy::TreeletPrefetch,
        TraversalPolicy::Vtq(VtqParams::default()),
    ]
}

/// Assembles a Figure 10 row from [`fig10_policies`]-ordered reports.
pub fn fig10_from_reports(scene: SceneId, reports: &[SimReport]) -> Fig10Row {
    Fig10Row {
        scene,
        baseline_cycles: reports[0].stats.cycles,
        prefetch_cycles: reports[1].stats.cycles,
        vtq_cycles: reports[2].stats.cycles,
    }
}

/// Runs all three policies (the paper's headline comparison).
pub fn fig10(p: &Prepared) -> Fig10Row {
    fig10_from_reports(p.id, &run_policies(p, &fig10_policies()))
}

/// Figure 10 across `scenes`, submitted through the sweep engine.
pub fn fig10_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<CellResult<Fig10Row>> {
    engine.run_grid(scenes, cfg, &fig10_policies(), fig10_from_reports)
}

/// Figure 11: L1 BVH miss rate over time, baseline vs permanently
/// treelet-stationary.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Data {
    /// Scene (the paper uses LANDS).
    pub scene: SceneId,
    /// Baseline time series.
    pub baseline: Vec<WindowPoint>,
    /// Always-treelet-stationary time series.
    pub treelet_stationary: Vec<WindowPoint>,
}

/// The policy cells Figure 11 runs per scene: baseline, then "if it were
/// to operate permanently in treelet-stationary mode"
/// ([`always_stationary_params`]).
pub fn fig11_policies() -> Vec<TraversalPolicy> {
    vec![TraversalPolicy::Baseline, TraversalPolicy::Vtq(always_stationary_params())]
}

/// Assembles the Figure 11 series from [`fig11_policies`]-ordered reports.
pub fn fig11_from_reports(scene: SceneId, reports: &[SimReport]) -> Fig11Data {
    Fig11Data {
        scene,
        baseline: reports[0].mem.bvh_l1_windows.clone(),
        treelet_stationary: reports[1].mem.bvh_l1_windows.clone(),
    }
}

/// Runs the baseline and a permanently-treelet-stationary configuration.
pub fn fig11(p: &Prepared) -> Fig11Data {
    fig11_from_reports(p.id, &run_policies(p, &fig11_policies()))
}

/// Figure 11 across `scenes`, submitted through the sweep engine.
pub fn fig11_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<CellResult<Fig11Data>> {
    engine.run_grid(scenes, cfg, &fig11_policies(), fig11_from_reports)
}

/// Figure 12: grouping underpopulated treelet queues.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// Scene.
    pub scene: SceneId,
    /// Baseline cycles (normalization).
    pub baseline_cycles: u64,
    /// Naive treelet queues (no grouping, no repacking).
    pub naive_cycles: u64,
    /// `(queue threshold, cycles)` with grouping enabled (no repacking).
    pub grouped: Vec<(usize, u64)>,
}

impl Fig12Row {
    /// Speedup of the naive configuration over baseline (< 1 = slowdown).
    pub fn naive_speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.naive_cycles as f64
    }

    /// Speedup of a grouped configuration over baseline.
    pub fn grouped_speedup(&self, idx: usize) -> f64 {
        self.baseline_cycles as f64 / self.grouped[idx].1 as f64
    }
}

/// The policy cells Figure 12 runs per scene: baseline, naive queues,
/// then grouping at each queue threshold (repacking disabled throughout
/// so the grouping effect is isolated, as in the paper's figure).
pub fn fig12_policies(thresholds: &[usize]) -> Vec<TraversalPolicy> {
    let mut policies = vec![TraversalPolicy::Baseline, TraversalPolicy::Vtq(naive_params())];
    policies.extend(thresholds.iter().map(|&t| TraversalPolicy::Vtq(grouped_params(t))));
    policies
}

/// Assembles a Figure 12 row from [`fig12_policies`]-ordered reports.
pub fn fig12_from_reports(scene: SceneId, thresholds: &[usize], reports: &[SimReport]) -> Fig12Row {
    Fig12Row {
        scene,
        baseline_cycles: reports[0].stats.cycles,
        naive_cycles: reports[1].stats.cycles,
        grouped: thresholds.iter().zip(&reports[2..]).map(|(&t, r)| (t, r.stats.cycles)).collect(),
    }
}

/// Sweeps the §4.4 queue thresholds.
pub fn fig12(p: &Prepared, thresholds: &[usize]) -> Fig12Row {
    fig12_from_reports(p.id, thresholds, &run_policies(p, &fig12_policies(thresholds)))
}

/// Figure 12 across `scenes`, submitted through the sweep engine.
pub fn fig12_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
    thresholds: &[usize],
) -> Vec<CellResult<Fig12Row>> {
    engine.run_grid(scenes, cfg, &fig12_policies(thresholds), |scene, reports| {
        fig12_from_reports(scene, thresholds, reports)
    })
}

/// Figure 13: warp repacking speedup (a) and SIMT efficiency (b).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// Scene.
    pub scene: SceneId,
    /// Baseline cycles and SIMT efficiency.
    pub baseline: (u64, f64),
    /// VTQ without repacking: cycles and SIMT efficiency.
    pub no_repack: (u64, f64),
    /// `(repack threshold, cycles, SIMT efficiency)` sweeps.
    pub repack: Vec<(usize, u64, f64)>,
}

/// The policy cells Figure 13 runs per scene: baseline, no-repack VTQ,
/// then each repack threshold (grouping enabled throughout).
pub fn fig13_policies(thresholds: &[usize]) -> Vec<TraversalPolicy> {
    let mut policies = vec![TraversalPolicy::Baseline, TraversalPolicy::Vtq(repack_params(0))];
    policies.extend(thresholds.iter().map(|&t| TraversalPolicy::Vtq(repack_params(t))));
    policies
}

/// Assembles a Figure 13 row from [`fig13_policies`]-ordered reports.
pub fn fig13_from_reports(scene: SceneId, thresholds: &[usize], reports: &[SimReport]) -> Fig13Row {
    Fig13Row {
        scene,
        baseline: (reports[0].stats.cycles, reports[0].stats.simt_efficiency()),
        no_repack: (reports[1].stats.cycles, reports[1].stats.simt_efficiency()),
        repack: thresholds
            .iter()
            .zip(&reports[2..])
            .map(|(&t, r)| (t, r.stats.cycles, r.stats.simt_efficiency()))
            .collect(),
    }
}

/// Sweeps the §4.5 repack thresholds.
pub fn fig13(p: &Prepared, thresholds: &[usize]) -> Fig13Row {
    fig13_from_reports(p.id, thresholds, &run_policies(p, &fig13_policies(thresholds)))
}

/// Figure 13 across `scenes`, submitted through the sweep engine.
pub fn fig13_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
    thresholds: &[usize],
) -> Vec<CellResult<Fig13Row>> {
    engine.run_grid(scenes, cfg, &fig13_policies(thresholds), |scene, reports| {
        fig13_from_reports(scene, thresholds, reports)
    })
}

/// Figures 14 & 15: per-mode cycle and intersection-test breakdowns of the
/// full VTQ configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeBreakdownRow {
    /// Scene.
    pub scene: SceneId,
    /// Fraction of RT-unit busy cycles per mode (initial, treelet, ray).
    pub cycle_fractions: [f64; 3],
    /// Fraction of intersection tests per mode.
    pub isect_fractions: [f64; 3],
}

/// The policy cells Figures 14/15 run per scene: the full VTQ design.
pub fn fig14_15_policies() -> Vec<TraversalPolicy> {
    vec![TraversalPolicy::Vtq(VtqParams::default())]
}

/// Assembles a Figures 14/15 row from [`fig14_15_policies`]-ordered
/// reports.
pub fn fig14_15_from_reports(scene: SceneId, reports: &[SimReport]) -> ModeBreakdownRow {
    let r = &reports[0];
    let cycles: Vec<u64> = TraversalMode::ALL.iter().map(|m| r.stats.cycles_in(*m)).collect();
    let isect: Vec<u64> = TraversalMode::ALL.iter().map(|m| r.stats.isect_in(*m)).collect();
    let ct: u64 = cycles.iter().sum::<u64>().max(1);
    let it: u64 = isect.iter().sum::<u64>().max(1);
    ModeBreakdownRow {
        scene,
        cycle_fractions: [
            cycles[0] as f64 / ct as f64,
            cycles[1] as f64 / ct as f64,
            cycles[2] as f64 / ct as f64,
        ],
        isect_fractions: [
            isect[0] as f64 / it as f64,
            isect[1] as f64 / it as f64,
            isect[2] as f64 / it as f64,
        ],
    }
}

/// Extracts Figures 14/15 from one VTQ run.
pub fn fig14_15(p: &Prepared) -> ModeBreakdownRow {
    fig14_15_from_reports(p.id, &run_policies(p, &fig14_15_policies()))
}

/// Figures 14/15 across `scenes`, submitted through the sweep engine.
pub fn fig14_15_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<CellResult<ModeBreakdownRow>> {
    engine.run_grid(scenes, cfg, &fig14_15_policies(), fig14_15_from_reports)
}

/// Figure 16: ray virtualization overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig16Row {
    /// Scene.
    pub scene: SceneId,
    /// VTQ cycles with CTA state save/restore charged.
    pub charged_cycles: u64,
    /// VTQ cycles with free (idealized) virtualization.
    pub free_cycles: u64,
}

impl Fig16Row {
    /// Relative slowdown caused by virtualization state movement
    /// (paper: ~10% on average).
    pub fn overhead(&self) -> f64 {
        self.charged_cycles as f64 / self.free_cycles as f64 - 1.0
    }
}

/// The policy cells Figure 16 runs per scene: VTQ charged, then free.
pub fn fig16_policies() -> Vec<TraversalPolicy> {
    vec![
        TraversalPolicy::Vtq(VtqParams::default()),
        TraversalPolicy::Vtq(free_virtualization_params()),
    ]
}

/// Assembles a Figure 16 row from [`fig16_policies`]-ordered reports.
pub fn fig16_from_reports(scene: SceneId, reports: &[SimReport]) -> Fig16Row {
    Fig16Row {
        scene,
        charged_cycles: reports[0].stats.cycles,
        free_cycles: reports[1].stats.cycles,
    }
}

/// Runs VTQ with and without charging virtualization state movement.
pub fn fig16(p: &Prepared) -> Fig16Row {
    fig16_from_reports(p.id, &run_policies(p, &fig16_policies()))
}

/// Figure 16 across `scenes`, submitted through the sweep engine.
pub fn fig16_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<CellResult<Fig16Row>> {
    engine.run_grid(scenes, cfg, &fig16_policies(), fig16_from_reports)
}

/// Figure 17: energy of baseline vs treelet queues ± virtualization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig17Row {
    /// Scene.
    pub scene: SceneId,
    /// Baseline energy (pJ).
    pub baseline_pj: f64,
    /// Full VTQ energy (pJ).
    pub vtq_pj: f64,
    /// VTQ energy with free virtualization (pJ).
    pub vtq_free_pj: f64,
    /// Fraction of VTQ energy attributable to virtualization.
    pub virtualization_fraction: f64,
}

/// The policy cells Figure 17 runs per scene: baseline, VTQ, free VTQ.
pub fn fig17_policies() -> Vec<TraversalPolicy> {
    vec![
        TraversalPolicy::Baseline,
        TraversalPolicy::Vtq(VtqParams::default()),
        TraversalPolicy::Vtq(free_virtualization_params()),
    ]
}

/// Assembles a Figure 17 row from [`fig17_policies`]-ordered reports.
pub fn fig17_from_reports(scene: SceneId, reports: &[SimReport]) -> Fig17Row {
    Fig17Row {
        scene,
        baseline_pj: reports[0].energy.total_pj(),
        vtq_pj: reports[1].energy.total_pj(),
        vtq_free_pj: reports[2].energy.total_pj(),
        virtualization_fraction: reports[1].energy.virtualization_fraction(),
    }
}

/// Runs the energy comparison.
pub fn fig17(p: &Prepared) -> Fig17Row {
    fig17_from_reports(p.id, &run_policies(p, &fig17_policies()))
}

/// Figure 17 across `scenes`, submitted through the sweep engine.
pub fn fig17_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<CellResult<Fig17Row>> {
    engine.run_grid(scenes, cfg, &fig17_policies(), fig17_from_reports)
}

/// The same experiment with the BVH rebuilt under quantized
/// ([`rtbvh::QBvh4Node`]) interior nodes: a distinct prepared-scene cache
/// key, so quantized cells coexist with wide cells in one sweep.
pub fn quantized_config(cfg: &ExperimentConfig) -> ExperimentConfig {
    let mut q = *cfg;
    q.bvh.node_format = NodeFormat::Quantized;
    q
}

/// Policy-experiment figure: ray-path prediction and quantized nodes
/// against the shared baseline, per scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyFigRow {
    /// Scene.
    pub scene: SceneId,
    /// Baseline cycles (wide nodes, no prediction).
    pub baseline_cycles: u64,
    /// Cycles under [`TraversalPolicy::Predict`] with default parameters.
    pub predict_cycles: u64,
    /// Baseline cycles with the BVH rebuilt under quantized nodes.
    pub qnode_cycles: u64,
    /// Prediction-table hit rate of the predict run.
    pub predict_hit_rate: f64,
    /// BVH lines fetched from DRAM under wide nodes.
    pub wide_bvh_dram_lines: u64,
    /// BVH lines fetched from DRAM under quantized nodes.
    pub qnode_bvh_dram_lines: u64,
}

impl PolicyFigRow {
    /// Prediction speedup over the baseline (< 1 = the lookup latency
    /// cost exceeded the traversal saved).
    pub fn predict_speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.predict_cycles as f64
    }

    /// Quantized-node speedup over the wide baseline.
    pub fn qnode_speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.qnode_cycles as f64
    }

    /// Quantized-over-wide BVH DRAM traffic ratio (< 1 = the smaller
    /// nodes cut memory traffic).
    pub fn qnode_traffic_ratio(&self) -> f64 {
        self.qnode_bvh_dram_lines as f64 / self.wide_bvh_dram_lines.max(1) as f64
    }
}

/// Assembles a policy-figure row from the three per-scene reports, in
/// [`figpolicies_sweep`] cell order (baseline, predict, qnode).
pub fn figpolicies_from_reports(scene: SceneId, reports: &[SimReport]) -> PolicyFigRow {
    PolicyFigRow {
        scene,
        baseline_cycles: reports[0].stats.cycles,
        predict_cycles: reports[1].stats.cycles,
        qnode_cycles: reports[2].stats.cycles,
        predict_hit_rate: reports[1].stats.predict_hit_rate(),
        wide_bvh_dram_lines: reports[0].mem.kind(AccessKind::Bvh).dram,
        qnode_bvh_dram_lines: reports[2].mem.kind(AccessKind::Bvh).dram,
    }
}

/// The policy-experiment figure across `scenes`: per scene, the wide
/// baseline, wide + ray-path prediction, and the quantized-node baseline
/// (a per-cell [`quantized_config`] override — the only figure whose
/// cells differ in *BVH build*, not just traversal policy).
pub fn figpolicies_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<CellResult<PolicyFigRow>> {
    use crate::sweep::{Cell, RunMatrix};
    let qcfg = quantized_config(cfg);
    let mut matrix = RunMatrix::new();
    for &scene in scenes {
        matrix.add(scene, cfg, TraversalPolicy::Baseline);
        matrix.add(scene, cfg, TraversalPolicy::Predict(PredictParams::default()));
        matrix.push(Cell {
            scene,
            config: qcfg,
            policy: TraversalPolicy::Baseline,
            label: format!("{}/qnode", scene.name()),
        });
    }
    let mut results = engine.run(&matrix).into_iter();
    scenes
        .iter()
        .map(|&scene| {
            let mut reports = Vec::with_capacity(3);
            let mut failure = None;
            for _ in 0..3 {
                match results.next().expect("three cells per scene") {
                    Ok(report) => reports.push(report),
                    Err(e) => failure = failure.or(Some(e)),
                }
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(figpolicies_from_reports(scene, &reports)),
            }
        })
        .collect()
}

/// Table 2 row: scene statistics, ours vs the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Scene.
    pub scene: SceneId,
    /// Our triangle count.
    pub triangles: usize,
    /// Our BVH size in bytes.
    pub bvh_bytes: u64,
    /// The paper's triangle count.
    pub paper_triangles: u64,
    /// The paper's BVH size in MB.
    pub paper_bvh_mb: f32,
}

/// Builds a Table 2 row (does not need a workload).
pub fn table2(id: SceneId, cfg: &ExperimentConfig) -> Table2Row {
    let scene = lumibench::build_scaled(id, cfg.detail_divisor);
    let bvh = Bvh::build(scene.triangles(), &cfg.bvh);
    Table2Row {
        scene: id,
        triangles: scene.triangles().len(),
        bvh_bytes: bvh.total_bytes(),
        paper_triangles: id.paper_triangles(),
        paper_bvh_mb: id.paper_bvh_mb(),
    }
}

/// Table 2 across `scenes` through the sweep engine. Scene + BVH builds
/// only — no workload, no simulation — so this bypasses the prepared
/// cache and runs plain pool tasks.
pub fn table2_sweep(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<CellResult<Table2Row>> {
    engine.run_tasks(
        scenes.iter().map(|&id| (id.name().to_string(), move || table2(id, cfg))).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(id: SceneId) -> Prepared {
        let mut cfg = ExperimentConfig::quick();
        cfg.resolution = 48;
        Prepared::build(id, &cfg)
    }

    #[test]
    fn fig01_reports_rates_in_range() {
        let p = quick(SceneId::Ref);
        let row = fig01(&p);
        assert!(row.l1_bvh_miss_rate > 0.0 && row.l1_bvh_miss_rate <= 1.0);
        assert!(row.simt_efficiency > 0.0 && row.simt_efficiency <= 1.0);
    }

    #[test]
    fn fig10_speedups_are_positive() {
        let p = quick(SceneId::Ref);
        let row = fig10(&p);
        assert!(row.vtq_speedup() > 0.0);
        assert!(row.prefetch_speedup() > 0.0);
        assert!(row.vtq_over_prefetch() > 0.0);
    }

    #[test]
    fn fig11_produces_two_series() {
        let p = quick(SceneId::Ref);
        let d = fig11(&p);
        assert!(!d.baseline.is_empty());
        assert!(!d.treelet_stationary.is_empty());
    }

    #[test]
    fn fig12_naive_is_slower_than_grouped() {
        let p = quick(SceneId::Ref);
        let row = fig12(&p, &[16]);
        assert!(
            row.naive_cycles > row.grouped[0].1,
            "naive {} should exceed grouped {}",
            row.naive_cycles,
            row.grouped[0].1
        );
    }

    #[test]
    fn fig13_reports_sweep() {
        let p = quick(SceneId::Ref);
        let row = fig13(&p, &[8, 22]);
        assert_eq!(row.repack.len(), 2);
        for (_, cycles, simt) in &row.repack {
            assert!(*cycles > 0);
            assert!(*simt > 0.0 && *simt <= 1.0);
        }
    }

    #[test]
    fn mode_fractions_sum_to_one() {
        let p = quick(SceneId::Ref);
        let row = fig14_15(&p);
        let c: f64 = row.cycle_fractions.iter().sum();
        let i: f64 = row.isect_fractions.iter().sum();
        assert!((c - 1.0).abs() < 1e-9);
        assert!((i - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig16_overhead_is_bounded() {
        // Charging CTA state movement usually slows things down, but the
        // throttled CTA issue it causes can *improve* drain-phase
        // coherence on some scenes (see EXPERIMENTS.md), so the sign is
        // not guaranteed. On the tiny quick-config scene the relative
        // overhead is also much larger than at full scale, because
        // traversal is cheap while restore latency is fixed — so this only
        // pins that the comparison runs and stays within a loose band.
        let p = quick(SceneId::Ref);
        let row = fig16(&p);
        assert!(row.charged_cycles > 0 && row.free_cycles > 0);
        assert!(
            row.overhead() > -0.5 && row.overhead() < 2.0,
            "overhead {:.3} out of range",
            row.overhead()
        );
    }

    #[test]
    fn fig17_reports_positive_energy() {
        let p = quick(SceneId::Ref);
        let row = fig17(&p);
        assert!(row.baseline_pj > 0.0);
        assert!(row.vtq_pj > 0.0);
        assert!(row.vtq_free_pj <= row.vtq_pj);
        assert!((0.0..1.0).contains(&row.virtualization_fraction));
    }

    #[test]
    fn aggregate_stats_merges_scene_runs() {
        let p = quick(SceneId::Ref);
        let a = p.run_policy(TraversalPolicy::Baseline);
        let b = p.run_vtq(VtqParams::default());
        let agg = aggregate_stats([&a, &b]);
        assert_eq!(agg.rays_completed, a.stats.rays_completed + b.stats.rays_completed);
        assert_eq!(agg.cycles, a.stats.cycles.max(b.stats.cycles));
        for (i, unit) in agg.stall.iter().enumerate() {
            assert_eq!(unit.total(), a.stats.stall[i].total() + b.stats.stall[i].total());
        }
    }

    #[test]
    fn export_run_writes_all_artifacts() {
        let p = quick(SceneId::Ref);
        let report = p.run_vtq(VtqParams::default());
        let dir = std::env::temp_dir().join(format!("vtq_export_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_run(&dir, "ref/vtq", &report).expect("export");
        let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics");
        assert!(metrics.trim().starts_with("{\"label\":\"ref/vtq\""));
        let stalls = std::fs::read_to_string(dir.join("ref-vtq.stalls.csv")).expect("stalls");
        assert!(stalls.starts_with("sm,busy,"));
        if !report.stats.series.is_empty() {
            let series = std::fs::read_to_string(dir.join("ref-vtq.series.csv")).expect("series");
            assert!(series.starts_with("start_cycle,"));
        }
        // Appending a second run grows the metrics log.
        export_run(&dir, "ref/base", &report).expect("export 2");
        let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics 2");
        assert_eq!(metrics.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn figpolicies_rows_are_consistent() {
        let engine = SweepEngine::new(2);
        let mut cfg = ExperimentConfig::quick();
        cfg.resolution = 32;
        let rows = figpolicies_sweep(&engine, &[SceneId::Ref], &cfg);
        let row = rows[0].as_ref().expect("sweep runs");
        assert!(row.predict_speedup() > 0.0);
        assert!(row.qnode_speedup() > 0.0);
        assert!((0.0..=1.0).contains(&row.predict_hit_rate));
        assert!(row.wide_bvh_dram_lines > 0, "BVH never touched DRAM");
        assert!(row.qnode_bvh_dram_lines > 0);
        // Quantized interior nodes are smaller than wide ones, so the BVH
        // working set shrinks; traffic must not balloon.
        assert!(
            row.qnode_traffic_ratio() < 1.5,
            "quantized traffic ratio {:.2} out of band",
            row.qnode_traffic_ratio()
        );
    }

    #[test]
    fn table2_matches_scene_registry() {
        let row = table2(SceneId::Bunny, &ExperimentConfig::quick());
        assert!(row.triangles > 0);
        assert!(row.bvh_bytes > 0);
        assert_eq!(row.paper_bvh_mb, SceneId::Bunny.paper_bvh_mb());
    }
}
