//! Differential conformance harness: functional oracle, cross-policy hit
//! equivalence, and golden-figure regression.
//!
//! The paper's whole argument (§6, Figures 10–16) rests on one invariant:
//! VTQ's mode switching, queue grouping and warp repacking change *when*
//! rays traverse — never *what* they hit. This module proves it end to
//! end:
//!
//! 1. **Functional oracle** ([`oracle_run`]) — a timing-free executor of
//!    the exact same [`Workload`]/`PathTask` stream the simulator replays,
//!    using only [`rtbvh::Bvh::intersect`] / [`rtbvh::Bvh::occluded`] with
//!    the simulator's [`gpusim::TRACE_T_MIN`] epsilon.
//! 2. **Differential runner** ([`run_differential`]) — for every scene ×
//!    every preset (baseline, prefetch, VTQ and its grouping / repacking /
//!    virtualization variants, ray-path prediction, and the
//!    quantized-node BVH build), extracts the per-ray
//!    [`PrimHit`] records via [`gpusim::Simulator::try_run_with_hits`] and
//!    asserts **bit-equal** `(prim, t)` agreement with the oracle for
//!    closest-hit queries (hit-vs-miss agreement for anyhit queries,
//!    whose terminating occluder is order-dependent by design). The first
//!    divergent ray is reported with a forensics-style [`Divergence`]
//!    dump.
//! 3. **Golden-figure regression** ([`check_golden`] / [`write_golden`])
//!    — the headline statistics behind Figures 10/13/14/15 (geomean
//!    speedups, mode-cycle fractions, per-mode intersection shares) are
//!    snapshotted into checked-in `golden/*.json` files with per-entry
//!    tolerance bands, turning EXPERIMENTS.md claims into executable
//!    assertions.
//!
//! The `vtq-bench conformance [--quick] [--update-golden]` subcommand
//! drives all three, riding [`SweepEngine`] for parallelism and exiting
//! nonzero on any divergence or out-of-band golden value.

use std::fmt;
use std::fs;
use std::path::Path;

use gpusim::frames::{check_line, frame_lines, quote, records, FlatError};
use gpusim::{
    HitCapture, PathTask, PredictParams, TraceCall, TraversalPolicy, VtqParams, Workload,
    TRACE_T_MIN,
};
use rtbvh::{Bvh, NodeFormat, PrimHit};
use rtscene::lumibench::SceneId;
use rtscene::Triangle;

use crate::experiment::{
    always_stationary_params, fig10_sweep, fig13_sweep, fig14_15_sweep, figpolicies_sweep,
    free_virtualization_params, grouped_params, naive_params, quantized_config, repack_params,
    ExperimentConfig, Fig10Row, Fig13Row, ModeBreakdownRow, PolicyFigRow,
};
use crate::sweep::{config_fingerprint, Cell, CellResult, RunMatrix, SweepEngine};

// ---------------------------------------------------------------------------
// Functional oracle
// ---------------------------------------------------------------------------

/// Timing-free functional answer to one [`TraceCall`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OracleAnswer {
    /// Closest-hit query: the closest intersection in
    /// `(TRACE_T_MIN, t_max)`, equal-`t` ties broken by lowest prim id.
    Closest(Option<PrimHit>),
    /// Anyhit (occlusion) query: whether *anything* intersects the
    /// interval. Which occluder terminates hardware traversal first is
    /// visit-order dependent, so only the boolean is contract.
    Occluded(bool),
}

/// The oracle's answers for a whole workload: `answers[task][call]`
/// mirrors the shape of [`gpusim::HitCapture`].
#[derive(Debug, Clone, PartialEq)]
pub struct OracleRun {
    /// Per-task, per-trace-call answers, in workload order.
    pub answers: Vec<Vec<OracleAnswer>>,
}

impl OracleRun {
    /// Total trace calls answered.
    pub fn total_calls(&self) -> usize {
        self.answers.iter().map(|t| t.len()).sum()
    }
}

/// Executes `workload` functionally — no timing, no policies, no queues —
/// using only the CPU reference traversal. This is the promotion of the
/// ad-hoc `run_free` helpers from `gpusim`'s ray tests into a first-class
/// oracle: the simulator under *any* [`TraversalPolicy`] must reproduce
/// these answers exactly (see [`compare_hits`]).
pub fn oracle_run(bvh: &Bvh, triangles: &[Triangle], workload: &Workload) -> OracleRun {
    let _oracle = prof::span("oracle");
    prof::add(prof::Counter::OracleRays, workload.total_rays() as u64);
    let answers = workload
        .tasks
        .iter()
        .map(|task: &PathTask| {
            task.rays
                .iter()
                .map(|call: &TraceCall| {
                    if call.anyhit {
                        OracleAnswer::Occluded(bvh.occluded(
                            triangles,
                            &call.ray,
                            TRACE_T_MIN,
                            call.t_max,
                        ))
                    } else {
                        OracleAnswer::Closest(bvh.intersect(
                            triangles,
                            &call.ray,
                            TRACE_T_MIN,
                            call.t_max,
                        ))
                    }
                })
                .collect()
        })
        .collect();
    OracleRun { answers }
}

// ---------------------------------------------------------------------------
// Differential comparison
// ---------------------------------------------------------------------------

/// Tallies of one clean scene × policy comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Equivalence {
    /// Trace calls compared.
    pub calls_checked: usize,
    /// Closest-hit calls among them.
    pub closest_calls: usize,
    /// Anyhit calls among them.
    pub anyhit_calls: usize,
    /// Calls on which both sides reported a hit.
    pub hits: usize,
}

/// Forensics dump of the first divergent ray of a scene × policy cell.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Scene under comparison.
    pub scene: SceneId,
    /// Preset label (see [`conformance_presets`]).
    pub policy: String,
    /// Workload task (pixel × sample) index.
    pub task: usize,
    /// Trace-call index within the task (bounce order).
    pub call: usize,
    /// The diverging trace call itself (ray, interval, query kind).
    pub trace: TraceCall,
    /// What the oracle computed.
    pub expected: OracleAnswer,
    /// What the simulator captured.
    pub got: Option<PrimHit>,
}

fn fmt_hit(hit: &Option<PrimHit>) -> String {
    match hit {
        Some(h) => format!("prim {} at t={} (bits {:#010x})", h.prim, h.t, h.t.to_bits()),
        None => "miss".to_string(),
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "hit divergence: scene {} policy {}", self.scene.name(), self.policy)?;
        writeln!(
            f,
            "  task {} call {} ({})",
            self.task,
            self.call,
            if self.trace.anyhit { "anyhit" } else { "closest" }
        )?;
        writeln!(f, "  ray: origin {:?} dir {:?}", self.trace.ray.origin, self.trace.ray.dir)?;
        writeln!(f, "  interval: ({TRACE_T_MIN}, {})", self.trace.t_max)?;
        match &self.expected {
            OracleAnswer::Closest(h) => writeln!(f, "  oracle:    {}", fmt_hit(h))?,
            OracleAnswer::Occluded(o) => {
                writeln!(f, "  oracle:    {}", if *o { "occluded" } else { "unoccluded" })?
            }
        }
        write!(f, "  simulator: {}", fmt_hit(&self.got))
    }
}

/// Compares a simulator [`HitCapture`] against the oracle, call by call.
///
/// Closest-hit calls must agree **bit for bit** on `(prim, t)`; anyhit
/// calls must agree on hit-vs-miss. The first disagreement aborts the
/// comparison with a [`Divergence`] dump.
///
/// # Errors
///
/// The first divergent call — including shape mismatches (a call the
/// capture is missing entirely).
pub fn compare_hits(
    scene: SceneId,
    policy: &str,
    workload: &Workload,
    oracle: &OracleRun,
    capture: &HitCapture,
) -> Result<Equivalence, Box<Divergence>> {
    let mut eq = Equivalence::default();
    for (task, calls) in workload.tasks.iter().enumerate() {
        for (call, trace) in calls.rays.iter().enumerate() {
            let expected = oracle.answers[task][call];
            let diverge = |got: Option<PrimHit>| {
                Box::new(Divergence {
                    scene,
                    policy: policy.to_string(),
                    task,
                    call,
                    trace: *trace,
                    expected,
                    got,
                })
            };
            let Some(got) = capture.get(task, call) else {
                return Err(diverge(None));
            };
            let agree = match expected {
                OracleAnswer::Closest(want) => match (want, got) {
                    (None, None) => true,
                    (Some(a), Some(b)) => a.prim == b.prim && a.t.to_bits() == b.t.to_bits(),
                    _ => false,
                },
                OracleAnswer::Occluded(want) => want == got.is_some(),
            };
            if !agree {
                return Err(diverge(got));
            }
            eq.calls_checked += 1;
            if trace.anyhit {
                eq.anyhit_calls += 1;
            } else {
                eq.closest_calls += 1;
            }
            if got.is_some() {
                eq.hits += 1;
            }
        }
    }
    Ok(eq)
}

// ---------------------------------------------------------------------------
// Differential runner (scene × policy sweep)
// ---------------------------------------------------------------------------

/// One labelled conformance preset: the traversal policy a cell runs
/// under, plus the BVH node format its scene is built with. Every preset
/// is checked against the *wide-node* oracle: policies may only change
/// traversal order, and quantized nodes only conservatively inflate
/// interior bounds (a superset of leaves visited; triangle tests are
/// exact and ties break identically), so closest-hit `(prim, t)` answers
/// must stay bit-equal either way.
#[derive(Debug, Clone, Copy)]
pub struct ConformancePreset {
    /// Stable label (`baseline`, `vtq-repack-8`, `predict`, `qnode`, ...).
    pub label: &'static str,
    /// Traversal architecture.
    pub policy: TraversalPolicy,
    /// BVH interior-node format the scene is built under.
    pub node_format: NodeFormat,
}

impl ConformancePreset {
    fn wide(label: &'static str, policy: TraversalPolicy) -> ConformancePreset {
        ConformancePreset { label, policy, node_format: NodeFormat::Wide }
    }

    /// The cell configuration this preset runs under: `base` with the
    /// preset's node format applied.
    pub fn config(&self, base: &ExperimentConfig) -> ExperimentConfig {
        match self.node_format {
            NodeFormat::Wide => *base,
            NodeFormat::Quantized => quantized_config(base),
        }
    }
}

/// The labelled preset matrix every scene is checked under: the paper's
/// three headline architectures, the grouping / repacking /
/// virtualization variants the figures sweep, ray-path prediction, and
/// the quantized-node build — each exercises a different scheduling
/// order or node encoding that must leave functional results untouched.
pub fn conformance_presets() -> Vec<ConformancePreset> {
    vec![
        ConformancePreset::wide("baseline", TraversalPolicy::Baseline),
        ConformancePreset::wide("prefetch", TraversalPolicy::TreeletPrefetch),
        ConformancePreset::wide("vtq", TraversalPolicy::Vtq(VtqParams::default())),
        ConformancePreset::wide("vtq-naive", TraversalPolicy::Vtq(naive_params())),
        ConformancePreset::wide("vtq-grouped-32", TraversalPolicy::Vtq(grouped_params(32))),
        ConformancePreset::wide("vtq-grouped-64", TraversalPolicy::Vtq(grouped_params(64))),
        ConformancePreset::wide("vtq-repack-8", TraversalPolicy::Vtq(repack_params(8))),
        ConformancePreset::wide("vtq-repack-16", TraversalPolicy::Vtq(repack_params(16))),
        ConformancePreset::wide("vtq-repack-24", TraversalPolicy::Vtq(repack_params(24))),
        ConformancePreset::wide("vtq-stationary", TraversalPolicy::Vtq(always_stationary_params())),
        ConformancePreset::wide(
            "vtq-free-virt",
            TraversalPolicy::Vtq(free_virtualization_params()),
        ),
        ConformancePreset::wide("predict", TraversalPolicy::Predict(PredictParams::default())),
        ConformancePreset {
            label: "qnode",
            policy: TraversalPolicy::Baseline,
            node_format: NodeFormat::Quantized,
        },
    ]
}

/// Outcome of one scene × policy differential cell.
#[derive(Debug, Clone)]
pub enum CellVerdict {
    /// Simulator and oracle agree on every call.
    Agree(Equivalence),
    /// First divergent ray, with forensics.
    Diverged(Box<Divergence>),
    /// The cell could not run (simulation error or worker panic).
    Error(String),
}

/// One row of a [`ConformanceReport`].
#[derive(Debug, Clone)]
pub struct ConformanceCell {
    /// Scene.
    pub scene: SceneId,
    /// Policy label.
    pub policy: &'static str,
    /// What happened.
    pub verdict: CellVerdict,
}

/// Every scene × policy verdict of one differential run, in matrix order.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// Per-cell verdicts (scene-major, [`conformance_presets`] order).
    pub cells: Vec<ConformanceCell>,
}

impl ConformanceReport {
    /// `true` when every cell agreed.
    pub fn is_clean(&self) -> bool {
        self.cells.iter().all(|c| matches!(c.verdict, CellVerdict::Agree(_)))
    }

    /// The cells that did not agree.
    pub fn failures(&self) -> impl Iterator<Item = &ConformanceCell> {
        self.cells.iter().filter(|c| !matches!(c.verdict, CellVerdict::Agree(_)))
    }

    /// Total calls checked across agreeing cells.
    pub fn calls_checked(&self) -> usize {
        self.cells
            .iter()
            .map(|c| match &c.verdict {
                CellVerdict::Agree(eq) => eq.calls_checked,
                _ => 0,
            })
            .sum()
    }
}

/// Runs the full differential matrix: one oracle pass per scene, then
/// every scene × policy simulation with hit capture, compared call by
/// call. All cells ride `engine`'s work-stealing pool; results come back
/// in deterministic matrix order regardless of `--jobs`.
pub fn run_differential(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> ConformanceReport {
    // Phase 1: the timing-free oracle, once per scene (parallel).
    let oracle_results =
        engine.run_scenes(scenes, cfg, |p| oracle_run(&p.bvh, p.scene.triangles(), &p.workload));
    let oracles: Vec<(SceneId, Result<OracleRun, String>)> = scenes
        .iter()
        .copied()
        .zip(oracle_results.into_iter().map(|r| r.map_err(|e| e.to_string())))
        .collect();

    // Phase 2: scene × policy simulations with hit capture, compared
    // against the scene's oracle inside the worker.
    let presets = conformance_presets();
    let mut matrix = RunMatrix::new();
    for &scene in scenes {
        for preset in &presets {
            matrix.push(Cell {
                scene,
                config: preset.config(cfg),
                policy: preset.policy,
                label: format!("{}/{}", scene.name(), preset.label),
            });
        }
    }
    let oracles_ref = &oracles;
    let verdicts = engine.run_map(&matrix, |cell, prepared| {
        let (_, oracle) = oracles_ref
            .iter()
            .find(|(s, _)| *s == cell.scene)
            .expect("oracle computed for every swept scene");
        let oracle = match oracle {
            Ok(o) => o,
            Err(e) => return CellVerdict::Error(format!("oracle failed: {e}")),
        };
        let policy_label = cell.label.split('/').nth(1).unwrap_or("?").to_string();
        match prepared.try_run_policy_with_hits(cell.policy) {
            Ok((_, capture)) => {
                match compare_hits(cell.scene, &policy_label, &prepared.workload, oracle, &capture)
                {
                    Ok(eq) => CellVerdict::Agree(eq),
                    Err(d) => CellVerdict::Diverged(d),
                }
            }
            Err(e) => CellVerdict::Error(e.to_string()),
        }
    });

    let mut cells = Vec::with_capacity(matrix.len());
    let mut it = verdicts.into_iter();
    for &scene in scenes {
        for preset in &presets {
            let verdict = match it.next().expect("one verdict per cell") {
                Ok(v) => v,
                Err(e) => CellVerdict::Error(e.to_string()),
            };
            cells.push(ConformanceCell { scene, policy: preset.label, verdict });
        }
    }
    ConformanceReport { cells }
}

// ---------------------------------------------------------------------------
// Golden-figure regression
// ---------------------------------------------------------------------------

/// One snapshotted statistic with its tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenEntry {
    /// Stable key, `scene/<name>/<stat>` or `agg/<stat>`.
    pub key: String,
    /// Snapshotted value.
    pub value: f64,
    /// Tolerance band half-width.
    pub tol: f64,
    /// `true`: `tol` is relative to `|value|`; `false`: absolute.
    pub rel: bool,
}

impl GoldenEntry {
    /// `true` when `current` lies within this entry's band.
    pub fn accepts(&self, current: f64) -> bool {
        let band = if self.rel { self.tol * self.value.abs() } else { self.tol };
        (current - self.value).abs() <= band
    }
}

/// A checked-in snapshot of one figure's headline statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenFigure {
    /// Figure name (`fig10`, `fig13`, `fig14`, `fig15`) = file stem.
    pub figure: String,
    /// Fingerprint of the [`ExperimentConfig`] the snapshot was taken
    /// under ([`config_fingerprint`]); values are only comparable between
    /// identical configurations.
    pub fingerprint: u64,
    /// Scene names the snapshot covers, in sweep order.
    pub scenes: Vec<String>,
    /// The snapshotted statistics.
    pub entries: Vec<GoldenEntry>,
}

/// Relative tolerance for cycle-derived ratios (speedups): simulation is
/// deterministic, so the band only absorbs intended perf-neutral changes
/// (reviewed via `--update-golden` diffs), not run-to-run noise.
pub const REL_TOL: f64 = 0.05;
/// Absolute tolerance for fraction-valued statistics (mode shares).
pub const ABS_TOL: f64 = 0.02;

fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn rel(key: String, value: f64) -> GoldenEntry {
    GoldenEntry { key, value, tol: REL_TOL, rel: true }
}

fn abs(key: String, value: f64) -> GoldenEntry {
    GoldenEntry { key, value, tol: ABS_TOL, rel: false }
}

/// Figure 10 snapshot: per-scene and geomean speedups of VTQ and
/// prefetching over the baseline.
pub fn golden_fig10(cfg: &ExperimentConfig, rows: &[Fig10Row]) -> GoldenFigure {
    let mut entries = Vec::new();
    for r in rows {
        entries.push(rel(format!("scene/{}/vtq_speedup", r.scene.name()), r.vtq_speedup()));
        entries
            .push(rel(format!("scene/{}/prefetch_speedup", r.scene.name()), r.prefetch_speedup()));
    }
    if !rows.is_empty() {
        let vtq: Vec<f64> = rows.iter().map(Fig10Row::vtq_speedup).collect();
        let pref: Vec<f64> = rows.iter().map(Fig10Row::prefetch_speedup).collect();
        entries.push(rel("agg/geomean_vtq_speedup".into(), geomean(&vtq)));
        entries.push(rel("agg/geomean_prefetch_speedup".into(), geomean(&pref)));
    }
    GoldenFigure {
        figure: "fig10".into(),
        fingerprint: config_fingerprint(cfg),
        scenes: rows.iter().map(|r| r.scene.name().to_string()).collect(),
        entries,
    }
}

/// Figure 13 snapshot: per-scene speedup over baseline at each repack
/// threshold (plus no-repack), SIMT efficiencies, and geomeans.
pub fn golden_fig13(cfg: &ExperimentConfig, rows: &[Fig13Row]) -> GoldenFigure {
    let mut entries = Vec::new();
    let mut agg: Vec<(String, Vec<f64>)> = Vec::new();
    let mut push_agg = |key: &str, v: f64| match agg.iter_mut().find(|(k, _)| k == key) {
        Some((_, vs)) => vs.push(v),
        None => agg.push((key.to_string(), vec![v])),
    };
    for r in rows {
        let base = r.baseline.0 as f64;
        let s0 = base / r.no_repack.0 as f64;
        entries.push(rel(format!("scene/{}/speedup_norepack", r.scene.name()), s0));
        entries.push(abs(format!("scene/{}/simt_norepack", r.scene.name()), r.no_repack.1));
        push_agg("speedup_norepack", s0);
        for (t, cycles, simt) in &r.repack {
            let s = base / *cycles as f64;
            entries.push(rel(format!("scene/{}/speedup_repack_{t}", r.scene.name()), s));
            entries.push(abs(format!("scene/{}/simt_repack_{t}", r.scene.name()), *simt));
            push_agg(&format!("speedup_repack_{t}"), s);
        }
    }
    for (key, values) in agg {
        entries.push(rel(format!("agg/geomean_{key}"), geomean(&values)));
    }
    GoldenFigure {
        figure: "fig13".into(),
        fingerprint: config_fingerprint(cfg),
        scenes: rows.iter().map(|r| r.scene.name().to_string()).collect(),
        entries,
    }
}

/// Policy-experiment snapshot: per-scene prediction and quantized-node
/// speedups, prediction hit rate and the quantized-over-wide BVH DRAM
/// traffic ratio, plus their aggregates.
pub fn golden_figpolicies(cfg: &ExperimentConfig, rows: &[PolicyFigRow]) -> GoldenFigure {
    let mut entries = Vec::new();
    for r in rows {
        let scene = r.scene.name();
        entries.push(rel(format!("scene/{scene}/predict_speedup"), r.predict_speedup()));
        entries.push(rel(format!("scene/{scene}/qnode_speedup"), r.qnode_speedup()));
        entries.push(abs(format!("scene/{scene}/predict_hit_rate"), r.predict_hit_rate));
        entries.push(rel(format!("scene/{scene}/qnode_traffic_ratio"), r.qnode_traffic_ratio()));
    }
    if !rows.is_empty() {
        let predict: Vec<f64> = rows.iter().map(PolicyFigRow::predict_speedup).collect();
        let qnode: Vec<f64> = rows.iter().map(PolicyFigRow::qnode_speedup).collect();
        let traffic: Vec<f64> = rows.iter().map(PolicyFigRow::qnode_traffic_ratio).collect();
        let hit: Vec<f64> = rows.iter().map(|r| r.predict_hit_rate).collect();
        entries.push(rel("agg/geomean_predict_speedup".into(), geomean(&predict)));
        entries.push(rel("agg/geomean_qnode_speedup".into(), geomean(&qnode)));
        entries.push(rel("agg/geomean_qnode_traffic_ratio".into(), geomean(&traffic)));
        entries.push(abs("agg/mean_predict_hit_rate".into(), mean(&hit)));
    }
    GoldenFigure {
        figure: "figpolicies".into(),
        fingerprint: config_fingerprint(cfg),
        scenes: rows.iter().map(|r| r.scene.name().to_string()).collect(),
        entries,
    }
}

/// Figures 14/15 snapshots: per-scene and mean per-mode cycle fractions
/// (`fig14`) and intersection-test shares (`fig15`).
pub fn golden_fig14_15(
    cfg: &ExperimentConfig,
    rows: &[ModeBreakdownRow],
) -> (GoldenFigure, GoldenFigure) {
    const MODES: [&str; 3] = ["initial", "treelet", "ray"];
    let scenes: Vec<String> = rows.iter().map(|r| r.scene.name().to_string()).collect();
    let fingerprint = config_fingerprint(cfg);
    let build = |figure: &str, fractions: &dyn Fn(&ModeBreakdownRow) -> [f64; 3]| {
        let mut entries = Vec::new();
        for r in rows {
            for (m, label) in MODES.iter().enumerate() {
                entries.push(abs(
                    format!("scene/{}/{label}_fraction", r.scene.name()),
                    fractions(r)[m],
                ));
            }
        }
        if !rows.is_empty() {
            for (m, label) in MODES.iter().enumerate() {
                let vs: Vec<f64> = rows.iter().map(|r| fractions(r)[m]).collect();
                entries.push(abs(format!("agg/mean_{label}_fraction"), mean(&vs)));
            }
        }
        GoldenFigure { figure: figure.to_string(), fingerprint, scenes: scenes.clone(), entries }
    };
    (build("fig14", &|r| r.cycle_fractions), build("fig15", &|r| r.isect_fractions))
}

/// Computes the current golden figures for Figures 10/13/14/15 plus the
/// policy-experiment figure by running the underlying sweeps (repack
/// thresholds 8/16/22/24, matching the `fig13` subcommand). Failed sweep
/// cells are dropped with a stderr notice, mirroring the harness
/// convention.
pub fn current_goldens(
    engine: &SweepEngine,
    scenes: &[SceneId],
    cfg: &ExperimentConfig,
) -> Vec<GoldenFigure> {
    fn keep_ok<T>(label: &str, results: Vec<CellResult<T>>) -> Vec<T> {
        results
            .into_iter()
            .filter_map(|r| match r {
                Ok(row) => Some(row),
                Err(e) => {
                    eprintln!("[conformance] {label} sweep cell failed: {e}");
                    None
                }
            })
            .collect()
    }
    let f10 = keep_ok("fig10", fig10_sweep(engine, scenes, cfg));
    let f13 = keep_ok("fig13", fig13_sweep(engine, scenes, cfg, &[8, 16, 22, 24]));
    let f1415 = keep_ok("fig14/15", fig14_15_sweep(engine, scenes, cfg));
    let fpol = keep_ok("figpolicies", figpolicies_sweep(engine, scenes, cfg));
    let (g14, g15) = golden_fig14_15(cfg, &f1415);
    vec![golden_fig10(cfg, &f10), golden_fig13(cfg, &f13), g14, g15, golden_figpolicies(cfg, &fpol)]
}

// ---------------------------------------------------------------------------
// Golden persistence (flat JSONL through `gpusim::frames`)
// ---------------------------------------------------------------------------

/// Serializes a golden figure to its JSONL file content: the shared
/// provenance header, a meta line, then one line per entry (flat
/// objects, lexical diff friendly). Every line is checksum-framed
/// ([`frame_lines`]); legacy unframed snapshots are still parseable.
pub fn golden_jsonl(g: &GoldenFigure) -> String {
    let head = [
        crate::provenance::provenance_line(Some(g.fingerprint), None),
        format!(
            "{{\"record\":\"golden_meta\",\"figure\":{},\"fingerprint\":\"{:#018x}\",\"scenes\":{}}}",
            quote(&g.figure),
            g.fingerprint,
            quote(&g.scenes.join(",")),
        ),
    ];
    frame_lines(head.into_iter().chain(g.entries.iter().map(|e| {
        format!(
            "{{\"record\":\"golden_entry\",\"key\":{},\"value\":{},\"tol\":{},\"rel\":{}}}",
            quote(&e.key),
            e.value,
            e.tol,
            e.rel,
        )
    })))
}

/// Parses [`golden_jsonl`] output back into a [`GoldenFigure`].
///
/// # Errors
///
/// The first malformed line or field.
pub fn parse_golden_jsonl(text: &str) -> Result<GoldenFigure, FlatError> {
    let mut figure: Option<GoldenFigure> = None;
    for rec in records(text) {
        let rec = rec?;
        match rec.str("record")? {
            // The shared artifact-provenance header: carries build
            // metadata, not golden data, so it is validated elsewhere
            // (config fingerprints compare via golden_meta) and skipped
            // here. Pre-stamp snapshots simply lack the line.
            crate::provenance::PROVENANCE_RECORD => {}
            "golden_meta" => {
                figure = Some(GoldenFigure {
                    figure: rec.str("figure")?.to_string(),
                    fingerprint: rec.str_with("fingerprint", |v| {
                        u64::from_str_radix(v.trim_start_matches("0x"), 16)
                            .map_err(|_| format!("bad fingerprint `{v}`"))
                    })?,
                    scenes: rec
                        .str("scenes")?
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(str::to_string)
                        .collect(),
                    entries: Vec::new(),
                });
            }
            "golden_entry" => {
                let fig =
                    figure.as_mut().ok_or_else(|| rec.error("record", "entry before meta"))?;
                fig.entries.push(GoldenEntry {
                    key: rec.str("key")?.to_string(),
                    value: rec.f64("value")?,
                    tol: rec.f64("tol")?,
                    rel: rec.bool("rel")?,
                });
            }
            other => return Err(rec.error("record", format!("unknown record {other:?}"))),
        }
    }
    figure.ok_or_else(|| FlatError::new(0, "no golden_meta record"))
}

/// Writes each figure's snapshot to `dir/<figure>.json`, creating `dir`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_golden(dir: &Path, goldens: &[GoldenFigure]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    for g in goldens {
        crate::diskfault::write_file_durable(
            &dir.join(format!("{}.json", g.figure)),
            golden_jsonl(g).as_bytes(),
        )?;
    }
    Ok(())
}

/// Outcome of validating one figure against its checked-in snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum GoldenOutcome {
    /// Every comparable entry is within its tolerance band.
    /// `checked`/`skipped` count entries (entries are skipped when the
    /// current run covers a scene subset of the snapshot).
    Match {
        /// Entries validated.
        checked: usize,
        /// Entries skipped for scene-subset runs.
        skipped: usize,
    },
    /// Out-of-band or missing entries; one description per violation.
    Mismatch(Vec<String>),
    /// No snapshot file exists for this figure.
    MissingFile,
    /// The snapshot was taken under a different [`ExperimentConfig`]
    /// (fingerprints differ), so values are not comparable.
    ConfigMismatch {
        /// Fingerprint recorded in the snapshot.
        golden: u64,
        /// Fingerprint of the current run.
        current: u64,
    },
    /// The snapshot file failed its per-line checksum frames: the bytes
    /// on disk are not the bytes that were written. Carries the
    /// forensic description. Distinct from [`Mismatch`](Self::Mismatch)
    /// because a damaged baseline is a usage/environment problem, not a
    /// regression — the harness exits 2, telling the operator to
    /// restore the file from version control or regenerate it.
    Corrupt(String),
}

impl GoldenOutcome {
    /// `true` for outcomes that should fail the harness. A missing file
    /// or config mismatch is reported but not fatal: snapshots only bind
    /// the configuration they were taken under. A corrupt snapshot is
    /// fatal too, but on the usage exit path (see
    /// [`Corrupt`](Self::Corrupt)), which callers branch on explicitly.
    pub fn is_failure(&self) -> bool {
        matches!(self, GoldenOutcome::Mismatch(_) | GoldenOutcome::Corrupt(_))
    }
}

/// Validates `current` (freshly computed) against `dir/<figure>.json`.
///
/// Per-scene entries are compared when the scene appears in the current
/// run; aggregate (`agg/`) entries only when the scene sets match
/// exactly, since geomeans over different scene subsets are not
/// comparable. Golden entries with no current counterpart (and vice
/// versa, for matching scene sets) are mismatches.
pub fn check_golden(dir: &Path, current: &GoldenFigure) -> GoldenOutcome {
    let path = dir.join(format!("{}.json", current.figure));
    let Ok(text) = fs::read_to_string(&path) else {
        return GoldenOutcome::MissingFile;
    };
    // Integrity gate before any comparison: a snapshot whose checksum
    // frames fail is corrupt on disk and must never be compared against
    // (forensically reported instead of surfacing as a figure
    // "regression").
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = check_line(line) {
            return GoldenOutcome::Corrupt(format!(
                "{}: line {}: {e} — restore the snapshot from version control or \
                 regenerate it with --update-golden",
                path.display(),
                no + 1,
            ));
        }
    }
    let golden = match parse_golden_jsonl(&text) {
        Ok(g) => g,
        Err(e) => return GoldenOutcome::Mismatch(vec![format!("{}: {e}", path.display())]),
    };
    if golden.fingerprint != current.fingerprint {
        return GoldenOutcome::ConfigMismatch {
            golden: golden.fingerprint,
            current: current.fingerprint,
        };
    }
    let full_cover = golden.scenes == current.scenes;
    let mut violations = Vec::new();
    let mut checked = 0;
    let mut skipped = 0;
    for g in &golden.entries {
        fn scene_of(key: &str) -> Option<&str> {
            key.strip_prefix("scene/").and_then(|k| k.split('/').next())
        }
        let comparable = if g.key.starts_with("agg/") {
            full_cover
        } else {
            scene_of(&g.key).is_some_and(|s| current.scenes.iter().any(|c| c == s))
        };
        if !comparable {
            skipped += 1;
            continue;
        }
        match current.entries.iter().find(|c| c.key == g.key) {
            None => violations.push(format!("{}: missing from current run", g.key)),
            Some(c) if !g.accepts(c.value) => violations.push(format!(
                "{}: current {} outside golden {} ± {}{}",
                g.key,
                c.value,
                g.value,
                g.tol,
                if g.rel { " (rel)" } else { "" },
            )),
            Some(_) => checked += 1,
        }
    }
    if full_cover {
        for c in &current.entries {
            if !golden.entries.iter().any(|g| g.key == c.key) {
                violations.push(format!("{}: not in golden snapshot (run --update-golden)", c.key));
            }
        }
    }
    if violations.is_empty() {
        GoldenOutcome::Match { checked, skipped }
    } else {
        GoldenOutcome::Mismatch(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Prepared;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick();
        cfg.resolution = 12;
        cfg.detail_divisor = 16;
        cfg
    }

    #[test]
    fn oracle_matches_simulator_on_bunny() {
        let cfg = tiny_cfg();
        let p = Prepared::build(SceneId::Bunny, &cfg);
        let oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
        assert_eq!(oracle.total_calls(), p.workload.total_rays());
        for (label, policy) in [
            ("baseline", TraversalPolicy::Baseline),
            ("vtq", TraversalPolicy::Vtq(VtqParams::default())),
        ] {
            let (_, capture) = p.try_run_policy_with_hits(policy).expect("runs");
            let eq = compare_hits(SceneId::Bunny, label, &p.workload, &oracle, &capture)
                .unwrap_or_else(|d| panic!("{d}"));
            assert_eq!(eq.calls_checked, p.workload.total_rays());
            assert!(eq.hits > 0, "bunny rays must hit something");
        }
    }

    #[test]
    fn oracle_checks_anyhit_shadow_rays() {
        let mut cfg = tiny_cfg();
        cfg.shadow_rays = true;
        let p = Prepared::build(SceneId::Bunny, &cfg);
        let oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
        let anyhit = oracle
            .answers
            .iter()
            .flatten()
            .filter(|a| matches!(a, OracleAnswer::Occluded(_)))
            .count();
        assert!(anyhit > 0, "NEE workload must contain occlusion queries");
        let (_, capture) = p.try_run_policy_with_hits(TraversalPolicy::Baseline).expect("runs");
        let eq = compare_hits(SceneId::Bunny, "baseline", &p.workload, &oracle, &capture)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(eq.anyhit_calls, anyhit);
    }

    #[test]
    fn prediction_misses_fall_back_to_full_traversal() {
        let cfg = tiny_cfg();
        let p = Prepared::build(SceneId::Bunny, &cfg);
        let oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
        // A 1-entry table thrashes, so almost every lookup misses; the
        // predict-miss path must fall back to full traversal and stay
        // bit-equal to the oracle.
        let params = PredictParams { table_entries: 1, ..Default::default() };
        let (report, capture) =
            p.try_run_policy_with_hits(TraversalPolicy::Predict(params)).expect("runs");
        assert!(report.stats.predict_lookups > 0, "prediction never consulted");
        let eq = compare_hits(SceneId::Bunny, "predict-miss", &p.workload, &oracle, &capture)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(eq.calls_checked, p.workload.total_rays());
    }

    #[test]
    fn trusted_predictions_are_caught_by_the_oracle() {
        // The sabotage hook: `trust_predictions` skips the real traversal
        // whenever the table predicts, which is intentionally unsound.
        // With very coarse quantization the table predicts constantly and
        // wrongly — the differential harness must catch it, proving a
        // bad prediction cannot slip through the oracle.
        let cfg = tiny_cfg();
        let p = Prepared::build(SceneId::Bunny, &cfg);
        let oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
        let params = PredictParams {
            origin_bits: 1,
            dir_bits: 1,
            trust_predictions: true,
            ..Default::default()
        };
        let (report, capture) =
            p.try_run_policy_with_hits(TraversalPolicy::Predict(params)).expect("runs");
        assert!(
            report.stats.predict_hits > 0,
            "sabotage needs the table to actually predict ({} lookups)",
            report.stats.predict_lookups
        );
        let d = compare_hits(SceneId::Bunny, "predict-trusted", &p.workload, &oracle, &capture)
            .expect_err("trusted (unverified) predictions must diverge from the oracle");
        assert_eq!(d.policy, "predict-trusted");
    }

    #[test]
    fn quantized_nodes_agree_with_wide_oracle() {
        let cfg = tiny_cfg();
        let wide = Prepared::build(SceneId::Bunny, &cfg);
        let oracle = oracle_run(&wide.bvh, wide.scene.triangles(), &wide.workload);
        // The quantized build decodes to conservative superset bounds:
        // extra interior visits are allowed, missed leaves are not, so
        // closest hits match the wide oracle bit for bit.
        let q = Prepared::build(SceneId::Bunny, &quantized_config(&cfg));
        let (_, capture) = q.try_run_policy_with_hits(TraversalPolicy::Baseline).expect("runs");
        let eq = compare_hits(SceneId::Bunny, "qnode", &q.workload, &oracle, &capture)
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(eq.calls_checked, wide.workload.total_rays());
        assert!(eq.hits > 0, "bunny rays must hit something");
    }

    #[test]
    fn preset_matrix_covers_the_new_policies() {
        let presets = conformance_presets();
        assert_eq!(presets.len(), 13);
        let labels: Vec<&str> = presets.iter().map(|p| p.label).collect();
        assert!(labels.contains(&"predict"));
        assert!(labels.contains(&"qnode"));
        // qnode is the only preset that changes the BVH build, and its
        // config override must survive into the cell configuration.
        let base = tiny_cfg();
        for p in &presets {
            let expect = match p.label {
                "qnode" => NodeFormat::Quantized,
                _ => NodeFormat::Wide,
            };
            assert_eq!(p.node_format, expect, "preset {}", p.label);
            assert_eq!(p.config(&base).bvh.node_format, expect, "preset {}", p.label);
        }
    }

    #[test]
    fn divergence_dump_is_forensic() {
        let cfg = tiny_cfg();
        let p = Prepared::build(SceneId::Bunny, &cfg);
        let mut oracle = oracle_run(&p.bvh, p.scene.triangles(), &p.workload);
        // Sabotage the oracle: flip its first recorded hit to a miss, so
        // the (correct) simulator capture must diverge from it.
        let sabotaged = oracle
            .answers
            .iter_mut()
            .flatten()
            .find(|a| matches!(a, OracleAnswer::Closest(Some(_))));
        *sabotaged.expect("bunny rays must hit something") = OracleAnswer::Closest(None);
        let (_, capture) = p.try_run_policy_with_hits(TraversalPolicy::Baseline).expect("runs");
        let d = compare_hits(SceneId::Bunny, "sabotaged", &p.workload, &oracle, &capture)
            .expect_err("must diverge");
        let dump = d.to_string();
        assert!(dump.contains("hit divergence"), "{dump}");
        assert!(dump.contains("origin"), "{dump}");
        assert!(dump.contains("oracle"), "{dump}");
        assert!(dump.contains("bits"), "{dump}");
    }

    #[test]
    fn golden_jsonl_round_trips() {
        let g = GoldenFigure {
            figure: "fig10".into(),
            fingerprint: 0xDEAD_BEEF_0123_4567,
            scenes: vec!["ref".into(), "spnza".into()],
            entries: vec![
                rel("scene/ref/vtq_speedup".into(), 1.9375),
                abs("agg/mean_initial_fraction".into(), 0.125),
            ],
        };
        let parsed = parse_golden_jsonl(&golden_jsonl(&g)).expect("parses");
        assert_eq!(parsed, g);
    }

    #[test]
    fn golden_tolerance_bands() {
        let e = rel("x".into(), 2.0);
        assert!(e.accepts(2.0) && e.accepts(2.09) && !e.accepts(2.2));
        let a = abs("y".into(), 0.5);
        assert!(a.accepts(0.519) && !a.accepts(0.53));
    }

    #[test]
    fn golden_check_paths() {
        let dir = std::env::temp_dir().join(format!("vtq-golden-test-{}", std::process::id()));
        let g = GoldenFigure {
            figure: "fig10".into(),
            fingerprint: 7,
            scenes: vec!["ref".into()],
            entries: vec![rel("scene/ref/vtq_speedup".into(), 2.0), rel("agg/g".into(), 2.0)],
        };
        assert_eq!(check_golden(&dir, &g), GoldenOutcome::MissingFile);
        write_golden(&dir, std::slice::from_ref(&g)).expect("writes");
        assert_eq!(check_golden(&dir, &g), GoldenOutcome::Match { checked: 2, skipped: 0 });
        // Out-of-band value fails.
        let mut bad = g.clone();
        bad.entries[0].value = 3.0;
        assert!(check_golden(&dir, &bad).is_failure());
        // Different config fingerprint: reported, not failed.
        let mut other_cfg = g.clone();
        other_cfg.fingerprint = 8;
        assert_eq!(
            check_golden(&dir, &other_cfg),
            GoldenOutcome::ConfigMismatch { golden: 7, current: 8 }
        );
        // Scene subset: aggregate entries skipped, not compared.
        let mut subset = g.clone();
        subset.scenes = vec!["other".into()];
        subset.entries = vec![rel("scene/other/vtq_speedup".into(), 9.0)];
        match check_golden(&dir, &subset) {
            GoldenOutcome::Match { checked: 0, skipped: 2 } => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}
