//! The cycle-level GPU + RT-unit simulator.
//!
//! One [`Simulator::try_run`] call simulates a full path-tracing kernel: every
//! [`PathTask`] is one raygen-shader thread that issues one `traceRayEXT`
//! per bounce. Threads are grouped into warps and CTAs, CTAs are scheduled
//! onto SMs, and each SM's RT unit traverses warps of rays through the BVH
//! with real cache/DRAM timing from [`gpumem`]. The engine advances with an
//! event-driven clock (it jumps to the next CTA-phase or warp-memory
//! completion), so big scenes simulate in seconds while remaining
//! cycle-accurate with respect to the modelled latencies.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use gpumem::{AccessKind, CachePolicy, MemStats, MemorySystem};
use rtbvh::{Bvh, NodeId, PrimHit, TreeletId};
use rtmath::Ray;
use rtscene::Triangle;

use crate::checkpoint::CHECKPOINT_VERSION;
use crate::checkpoint::{config_tag, Checkpoint, CtaState, RayState, RtUnitState, WarpState};
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::error::{ForensicsSnapshot, InvariantViolation, SimError, SmSnapshot};
use crate::hw_table::HwQueueTable;
use crate::observe::{SamplePoint, StallBreakdown, StallKind, TraceEvent, TraceSink};
use crate::predict::{predict_key, PredictTable};
use crate::queues::TreeletQueues;
use crate::ray::{NextNode, RayId, RayTraversal, StackArena};
use crate::{GpuConfig, PredictParams, SimStats, TraversalMode, TraversalPolicy, VtqParams};

/// Byte address regions (disjoint so cache tags never alias across kinds).
const RAY_REGION: u64 = 0x1_0000_0000;
const CTA_REGION: u64 = 0x2_0000_0000;
const QUEUE_REGION: u64 = 0x3_0000_0000;

/// Lower bound of every trace call's search interval (`tmin`): the fixed
/// self-intersection epsilon the simulator applies when building
/// [`RayTraversal`] state. The functional oracle in `vtq::conformance`
/// must use the same bound for bit-equal differential comparison.
pub const TRACE_T_MIN: f32 = 1e-3;

/// One `traceRayEXT` invocation: the ray plus its query semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCall {
    /// The geometric ray.
    pub ray: Ray,
    /// Upper bound of the search interval (`tmax`).
    pub t_max: f32,
    /// `true` for anyhit queries (shadow/occlusion rays): traversal
    /// terminates at the *first* accepted intersection instead of
    /// searching for the closest one (§2.1.2's anyhit shader stage).
    pub anyhit: bool,
}

impl TraceCall {
    /// A closest-hit query over `[tmin, ∞)` (the common case).
    pub fn closest(ray: Ray) -> TraceCall {
        TraceCall { ray, t_max: f32::INFINITY, anyhit: false }
    }

    /// An anyhit (occlusion) query over `[tmin, t_max)`.
    pub fn anyhit(ray: Ray, t_max: f32) -> TraceCall {
        TraceCall { ray, t_max, anyhit: true }
    }
}

impl From<Ray> for TraceCall {
    fn from(ray: Ray) -> TraceCall {
        TraceCall::closest(ray)
    }
}

/// One raygen-shader thread: the sequence of trace calls it makes, one per
/// bounce (produced by the workload driver's functional path tracer).
#[derive(Debug, Clone)]
pub struct PathTask {
    /// The trace calls this thread makes, in program order.
    pub rays: Vec<TraceCall>,
}

/// A complete kernel workload.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// One task per thread (pixel × sample).
    pub tasks: Vec<PathTask>,
}

impl Workload {
    /// Total trace calls across all tasks.
    pub fn total_rays(&self) -> usize {
        self.tasks.iter().map(|t| t.rays.len()).sum()
    }

    /// The longest bounce chain.
    pub fn max_bounces(&self) -> usize {
        self.tasks.iter().map(|t| t.rays.len()).max().unwrap_or(0)
    }

    /// Mean trace calls per thread (path length, counting shadow rays).
    pub fn mean_path_length(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.total_rays() as f64 / self.tasks.len() as f64
        }
    }

    /// Fraction of trace calls that are anyhit (occlusion) queries.
    pub fn anyhit_fraction(&self) -> f64 {
        let total = self.total_rays();
        if total == 0 {
            return 0.0;
        }
        let any = self.tasks.iter().flat_map(|t| &t.rays).filter(|c| c.anyhit).count();
        any as f64 / total as f64
    }
}

/// Everything a finished simulation reports.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulator counters (cycles, SIMT efficiency, per-mode breakdowns…).
    pub stats: SimStats,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// Energy estimate.
    pub energy: EnergyBreakdown,
    /// Closest hit per task per bounce (functional results, checked
    /// against the CPU reference in tests).
    pub hits: Vec<Vec<Option<PrimHit>>>,
}

impl SimReport {
    /// A compact human-readable summary (used by examples and debugging).
    ///
    /// # Example
    ///
    /// ```
    /// # use gpusim::{GpuConfig, PathTask, Simulator, Workload};
    /// # use rtbvh::{Bvh, BvhConfig};
    /// # use rtscene::lumibench::{self, SceneId};
    /// # let scene = lumibench::build_scaled(SceneId::Bunny, 64);
    /// # let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
    /// # let workload = Workload { tasks: vec![PathTask {
    /// #     rays: vec![scene.camera().primary_ray(4, 4, 8, 8, None).into()] }] };
    /// let sim = Simulator::new(&bvh, scene.triangles(), GpuConfig::default());
    /// let report = sim.try_run(&workload).unwrap();
    /// assert!(report.summary().contains("cycles"));
    /// ```
    pub fn summary(&self) -> String {
        use gpumem::AccessKind;
        format!(
            "cycles={} simt={:.3} l1_bvh_miss={:.3} rays={} peak_rays={} energy={:.2e}pJ",
            self.stats.cycles,
            self.stats.simt_efficiency(),
            self.mem.kind(AccessKind::Bvh).l1_miss_rate(),
            self.stats.rays_completed,
            self.stats.peak_rays_in_flight,
            self.energy.total_pj(),
        )
    }
}

/// Per-task, per-trace-call functional hit records captured from one run:
/// the explicit hit-capture handle consumed by the differential
/// conformance harness (`vtq::conformance`).
///
/// `records[task][call]` is the hit the simulator reported for the
/// `call`-th [`TraceCall`] of workload task `task`: the closest accepted
/// intersection for closest-hit queries, the terminating intersection for
/// anyhit queries, `None` for a miss. For closest-hit queries the record
/// is policy-invariant bit for bit (with ties broken by lowest prim id);
/// for anyhit queries only hit-vs-miss is policy-invariant — *which*
/// occluder terminated traversal depends on visit order by design.
#[derive(Debug, Clone, PartialEq)]
pub struct HitCapture {
    records: Vec<Vec<Option<PrimHit>>>,
}

impl HitCapture {
    /// Extracts the capture from a finished run's report.
    pub fn from_report(report: &SimReport) -> HitCapture {
        HitCapture { records: report.hits.clone() }
    }

    /// The hit record of one trace call, or `None` when `task`/`call` is
    /// out of range (a call the workload never made).
    pub fn get(&self, task: usize, call: usize) -> Option<Option<PrimHit>> {
        self.records.get(task).and_then(|t| t.get(call)).copied()
    }

    /// Number of tasks captured.
    pub fn tasks(&self) -> usize {
        self.records.len()
    }

    /// Total trace calls captured across all tasks.
    pub fn total_calls(&self) -> usize {
        self.records.iter().map(|t| t.len()).sum()
    }

    /// Total calls that reported a hit.
    pub fn total_hits(&self) -> usize {
        self.records.iter().flatten().filter(|h| h.is_some()).count()
    }

    /// Iterates `(task, call, record)` in workload order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Option<PrimHit>)> + '_ {
        self.records
            .iter()
            .enumerate()
            .flat_map(|(task, calls)| calls.iter().enumerate().map(move |(c, h)| (task, c, *h)))
    }
}

/// Per-run options for [`Simulator::try_run_with`]: the builder-style
/// replacement for the old positional-`Option` signature.
///
/// Every option is off by default except profiling spans (`prof`), which
/// match the historical always-on behaviour. Options borrow from the
/// caller for the duration of one run; chain the builder methods to
/// enable what the run needs:
///
/// ```
/// use gpusim::{CountingSink, GpuConfig, HitCapture, PathTask, RunOptions, Simulator, Workload};
/// use rtbvh::{Bvh, BvhConfig};
/// use rtscene::lumibench::{self, SceneId};
///
/// let scene = lumibench::build_scaled(SceneId::Bunny, 64);
/// let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
/// let workload = Workload {
///     tasks: (0..64)
///         .map(|i| PathTask {
///             rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
///         })
///         .collect(),
/// };
/// let sim = Simulator::new(&bvh, scene.triangles(), GpuConfig::default());
/// let mut sink = CountingSink::default();
/// let mut hits: Option<HitCapture> = None;
/// let report = sim
///     .try_run_with(&workload, RunOptions::new().trace(&mut sink).capture_hits(&mut hits))
///     .unwrap();
/// assert!(report.stats.cycles > 0);
/// assert!(hits.is_some());
/// ```
pub struct RunOptions<'r> {
    sink: Option<&'r mut dyn TraceSink>,
    hits: Option<&'r mut Option<HitCapture>>,
    checkpoint: Option<(u64, &'r mut dyn FnMut(Checkpoint))>,
    resume: Option<&'r Checkpoint>,
    audit: Option<crate::AuditMode>,
    prof: bool,
    sabotage: Option<Sabotage>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions::new()
    }
}

impl<'r> RunOptions<'r> {
    /// Options with everything off except profiling spans.
    pub fn new() -> RunOptions<'r> {
        RunOptions {
            sink: None,
            hits: None,
            checkpoint: None,
            resume: None,
            audit: None,
            prof: true,
            sabotage: None,
        }
    }

    /// Streams structured [`TraceEvent`]s into `sink` as the kernel
    /// executes. Tracing is pure observation: the traced run is
    /// cycle-identical to an untraced one.
    pub fn trace(mut self, sink: &'r mut dyn TraceSink) -> RunOptions<'r> {
        self.sink = Some(sink);
        self
    }

    /// Fills `slot` with the run's [`HitCapture`] — the functional-results
    /// hook of the differential conformance harness.
    pub fn capture_hits(mut self, slot: &'r mut Option<HitCapture>) -> RunOptions<'r> {
        self.hits = Some(slot);
        self
    }

    /// Captures a [`Checkpoint`] roughly every `every_cycles` simulated
    /// cycles (at the first clock advance past the mark) and hands it to
    /// `on_checkpoint`. Checkpointing is pure observation.
    pub fn checkpoint(
        mut self,
        every_cycles: u64,
        on_checkpoint: &'r mut dyn FnMut(Checkpoint),
    ) -> RunOptions<'r> {
        self.checkpoint = Some((every_cycles.max(1), on_checkpoint));
        self
    }

    /// Restores `snapshot` before cycling instead of starting from cycle 0.
    /// The snapshot must come from the same scene, workload and config.
    pub fn resume(mut self, snapshot: &'r Checkpoint) -> RunOptions<'r> {
        self.resume = Some(snapshot);
        self
    }

    /// Overrides the invariant-audit cadence configured by
    /// [`GpuConfig::audit`](crate::GpuConfig) for this run only.
    pub fn audit(mut self, mode: crate::AuditMode) -> RunOptions<'r> {
        self.audit = Some(mode);
        self
    }

    /// Enables or disables `prof` span instrumentation for this run
    /// (enabled by default).
    pub fn prof(mut self, enabled: bool) -> RunOptions<'r> {
        self.prof = enabled;
        self
    }

    /// Test hook: schedules a state corruption for auditor tests.
    #[doc(hidden)]
    pub fn sabotage(mut self, sabotage: Sabotage) -> RunOptions<'r> {
        self.sabotage = Some(sabotage);
        self
    }
}

/// The simulator: borrowings of the immutable scene + BVH plus a config.
///
/// # Example
///
/// ```
/// use gpusim::{GpuConfig, PathTask, Simulator, TraversalPolicy, Workload};
/// use rtbvh::{Bvh, BvhConfig};
/// use rtscene::lumibench::{self, SceneId};
///
/// let scene = lumibench::build_scaled(SceneId::Bunny, 64);
/// let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
/// let workload = Workload {
///     tasks: (0..64)
///         .map(|i| PathTask {
///             rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
///         })
///         .collect(),
/// };
/// let sim = Simulator::new(&bvh, scene.triangles(), GpuConfig::default());
/// let report = sim.try_run(&workload).unwrap();
/// assert!(report.stats.cycles > 0);
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    bvh: &'a Bvh,
    triangles: &'a [Triangle],
    config: GpuConfig,
    energy: EnergyModel,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a scene and its BVH.
    pub fn new(bvh: &'a Bvh, triangles: &'a [Triangle], config: GpuConfig) -> Simulator<'a> {
        Simulator { bvh, triangles, config, energy: EnergyModel::default() }
    }

    /// Overrides the energy model.
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Simulator<'a> {
        self.energy = energy;
        self
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Runs the kernel to completion, returning a typed error instead of
    /// panicking when the simulation cannot complete.
    ///
    /// The watchdog contract: if the engine reaches a state with no future
    /// event while CTAs are unfinished, the run ends with
    /// [`SimError::Deadlock`]; if the clock would pass the configured
    /// [`GpuConfig::max_cycles`] budget, it ends with
    /// [`SimError::CycleBudget`]. Both carry a [`ForensicsSnapshot`] of
    /// per-SM CTA slots, warp-buffer occupancy, treelet-queue depths,
    /// in-flight memory requests and last-progress cycles, serializable
    /// via [`export::snapshot_jsonl`](crate::export::snapshot_jsonl).
    ///
    /// # Errors
    ///
    /// [`SimError::Workload`] for an empty workload,
    /// [`SimError::Deadlock`] / [`SimError::CycleBudget`] for watchdog
    /// trips, and [`SimError::Invariant`] when the auditor (see
    /// [`AuditMode`](crate::AuditMode)) catches a conservation-law
    /// violation. Configuration validity is the builder's job —
    /// [`GpuConfigBuilder::build`](crate::GpuConfigBuilder) rejections
    /// convert into [`SimError::Config`] via `From`; a hand-assembled
    /// [`GpuConfig`] is trusted as-is, matching the legacy contract.
    pub fn try_run(&self, workload: &Workload) -> Result<SimReport, SimError> {
        self.try_run_with(workload, RunOptions::new())
    }

    /// [`Simulator::try_run`] plus an explicit [`HitCapture`] of the
    /// functional results — the hit-capture hook of the differential
    /// conformance harness (`vtq-bench conformance`), which asserts the
    /// capture agrees bit for bit with the timing-free oracle under every
    /// traversal policy.
    ///
    /// # Errors
    ///
    /// Identical to [`Simulator::try_run`].
    pub fn try_run_with_hits(
        &self,
        workload: &Workload,
    ) -> Result<(SimReport, HitCapture), SimError> {
        let mut capture = None;
        let report = self.try_run_with(workload, RunOptions::new().capture_hits(&mut capture))?;
        Ok((report, capture.expect("a completed run always fills the requested capture")))
    }

    /// [`Simulator::try_run`] with structured-event tracing.
    ///
    /// # Errors
    ///
    /// Identical to [`Simulator::try_run`].
    pub fn try_run_traced(
        &self,
        workload: &Workload,
        sink: &mut dyn TraceSink,
    ) -> Result<SimReport, SimError> {
        self.try_run_with(workload, RunOptions::new().trace(sink))
    }

    /// [`Simulator::try_run`] with periodic checkpointing: roughly every
    /// `every_cycles` simulated cycles (at the first clock advance past the
    /// mark) the complete architectural state is captured and handed to
    /// `on_checkpoint`. Persist it with [`Checkpoint::to_jsonl`] and later
    /// [`Simulator::resume_from`] it — the resumed run's final
    /// [`SimStats`] is bit-identical to the uninterrupted run's.
    ///
    /// Checkpointing is pure observation: the checkpointed run itself is
    /// cycle-identical to a plain [`Simulator::try_run`].
    ///
    /// # Errors
    ///
    /// Identical to [`Simulator::try_run`].
    pub fn try_run_checkpointed(
        &self,
        workload: &Workload,
        every_cycles: u64,
        on_checkpoint: &mut dyn FnMut(Checkpoint),
    ) -> Result<SimReport, SimError> {
        self.try_run_with(workload, RunOptions::new().checkpoint(every_cycles, on_checkpoint))
    }

    /// Restores `snapshot` (captured by [`Simulator::try_run_checkpointed`]
    /// on the *same* scene, workload and configuration) and runs the
    /// remainder of the kernel to completion. The final [`SimStats`] is
    /// bit-identical to the run the checkpoint was taken from.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] when the snapshot's version, config
    /// fingerprint, workload shape or machine geometry does not match this
    /// simulator; otherwise identical to [`Simulator::try_run`].
    pub fn resume_from(
        &self,
        workload: &Workload,
        snapshot: &Checkpoint,
    ) -> Result<SimReport, SimError> {
        self.try_run_with(workload, RunOptions::new().resume(snapshot))
    }

    /// Test hook: runs with a scheduled state corruption so the invariant
    /// auditor's detection path can be exercised end to end. Not part of
    /// the public API contract.
    #[doc(hidden)]
    pub fn try_run_sabotaged(
        &self,
        workload: &Workload,
        sabotage: Sabotage,
    ) -> Result<SimReport, SimError> {
        self.try_run_with(workload, RunOptions::new().sabotage(sabotage))
    }

    /// [`Simulator::try_run`] with explicit per-run [`RunOptions`]: trace
    /// sink, hit capture, checkpointing, resume, audit override and prof
    /// gating, all independently combinable in one run.
    ///
    /// # Errors
    ///
    /// Identical to [`Simulator::try_run`], plus [`SimError::Checkpoint`]
    /// when [`RunOptions::resume`] is set and the snapshot does not match
    /// this simulator.
    pub fn try_run_with<'s>(
        &'s self,
        workload: &'s Workload,
        options: RunOptions<'s>,
    ) -> Result<SimReport, SimError> {
        let RunOptions { sink, hits, checkpoint, resume, audit, prof: prof_on, sabotage } = options;
        if workload.tasks.is_empty() {
            return Err(SimError::Workload("empty workload: no tasks to simulate".to_string()));
        }
        // Profiling spans wrap whole phases (setup, cycle loop, report
        // assembly) and counters are bumped once per run, so the
        // per-cycle loop itself carries no instrumentation — the
        // disabled path costs nothing and the enabled path costs O(1)
        // per *run*, not per cycle.
        let _run = prof_on.then(|| prof::span("sim/run"));
        let mut engine = {
            let _setup = prof_on.then(|| prof::span("setup"));
            let mut engine = Engine::new(self.bvh, self.triangles, &self.config, workload, sink);
            if let Some(mode) = audit {
                engine.audit_every = mode.interval();
            }
            match resume {
                // The checkpoint carries the (possibly already applied)
                // sabotage schedule; a caller-supplied one is ignored so
                // the resumed run replays the original faithfully.
                Some(snapshot) => engine.restore(snapshot)?,
                None => engine.sabotage = sabotage,
            }
            engine
        };
        {
            let _cycles = prof_on.then(|| prof::span("cycles"));
            engine.run(checkpoint)?;
        }
        let _report = prof_on.then(|| prof::span("report"));
        if prof_on {
            prof::add(prof::Counter::CyclesSimulated, engine.stats.cycles);
            prof::add(prof::Counter::RaysTraced, engine.stats.rays_completed);
        }
        let energy = self.energy.evaluate(&engine.stats, engine.mem.stats());
        let report = SimReport {
            stats: engine.stats,
            mem: engine.mem.stats().clone(),
            energy,
            hits: engine.hits,
        };
        if let Some(slot) = hits {
            *slot = Some(HitCapture::from_report(&report));
        }
        Ok(report)
    }
}

/// A scheduled state corruption for auditor tests: at `at_cycle` the first
/// SM's treelet-queue ray counter is skewed by `queue_total_delta` without
/// touching the queues themselves, which a subsequent audit must catch as
/// a `queue-accounting` violation.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Sabotage {
    /// First cycle at (or after) which the corruption is applied.
    pub at_cycle: u64,
    /// Signed skew applied to SM 0's cached queue-ray counter.
    pub queue_total_delta: isize,
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Waiting for first launch.
    Pending,
    /// In a slot, running the raygen preamble; trace issues at `ready_at`.
    Raygen,
    /// In a slot, waiting for the RT unit (baseline only).
    WaitTraversal,
    /// Off-slot, rays in the RT unit (ray virtualization).
    Suspended,
    /// Rays finished at `ready_at`; waiting for a slot to resume into.
    ReadyToResume,
    /// In a slot, shading; advances to the next bounce at `ready_at`.
    Shade,
    /// All bounces complete.
    Done,
}

#[derive(Debug)]
struct Cta {
    first_task: usize,
    task_count: usize,
    bounce: usize,
    phase: Phase,
    ready_at: u64,
    sm: usize,
    outstanding: usize,
    resume_queued: bool,
}

#[derive(Debug)]
struct Warp {
    lanes: Vec<Option<RayId>>,
    mode: TraversalMode,
    restrict: Option<TreeletId>,
    ready_at: u64,
    /// When the warp's outstanding memory (node fetches, treelet load, ray
    /// records) completes; between `mem_ready_at` and `ready_at` the
    /// fixed-function intersection pipeline is executing. Used by stall
    /// attribution to split waiting-on-memory from busy cycles.
    mem_ready_at: u64,
}

#[derive(Debug)]
struct RtUnit {
    incoming: VecDeque<(u64, Vec<RayId>)>,
    /// Warp buffer (Table 1: one slot; configurable for sensitivity
    /// studies via [`GpuConfig::warp_buffer_slots`]).
    slots: Vec<Option<Warp>>,
    queues: TreeletQueues,
    current_queue: Option<TreeletId>,
    preloaded: Option<TreeletId>,
    last_prefetch_at: u64,
    /// line addr -> used? (TreeletPrefetch usefulness tracking)
    prefetched: std::collections::HashMap<u64, bool>,
    rays_in_flight: usize,
    /// Hardware queue-table shadow (validates §4.2/§6.5 sizing claims).
    hw_table: HwQueueTable,
    /// Ray-path prediction table (1-entry stub for non-Predict policies,
    /// mirroring how `hw_table` is degenerate outside Vtq).
    predict: PredictTable,
    /// Mode of the most recently installed warp, for mode-transition trace
    /// events.
    last_mode: Option<TraversalMode>,
}

impl RtUnit {
    fn new(
        warp_buffer_slots: usize,
        queue_table_entries: u32,
        warp_size: u32,
        predict_entries: u32,
    ) -> RtUnit {
        RtUnit {
            incoming: VecDeque::new(),
            slots: (0..warp_buffer_slots.max(1)).map(|_| None).collect(),
            queues: TreeletQueues::new(),
            current_queue: None,
            preloaded: None,
            last_prefetch_at: 0,
            prefetched: std::collections::HashMap::new(),
            rays_in_flight: 0,
            hw_table: HwQueueTable::new(queue_table_entries.max(1), warp_size.max(1)),
            predict: PredictTable::new(predict_entries.max(1)),
            last_mode: None,
        }
    }
}

struct RayMeta {
    cta: usize,
    task: usize,
    bounce: usize,
    sm: usize,
}

pub(crate) struct Engine<'a> {
    bvh: &'a Bvh,
    triangles: &'a [Triangle],
    cfg: &'a GpuConfig,
    vtq: Option<VtqParams>,
    predict: Option<PredictParams>,
    mem: MemorySystem,
    rays: Vec<RayTraversal>,
    ray_meta: Vec<RayMeta>,
    rt: Vec<RtUnit>,
    ctas: Vec<Cta>,
    pending: VecDeque<usize>,
    /// CTA phase timers: (ready_at, cta id). Entries may be stale; they are
    /// validated against the CTA's current `ready_at` when popped.
    timers: BinaryHeap<Reverse<(u64, usize)>>,
    /// CTAs whose rays are done and that are waiting for a free slot.
    resume_ready: Vec<usize>,
    /// Per-SM count of CTAs currently executing a shader phase (raygen or
    /// shading), for the optional CUDA-core contention model.
    shader_active: Vec<usize>,
    /// Per-SM rays reserved by admitted-but-not-yet-issued CTAs, so the
    /// virtualized-ray cap holds across the raygen/shade latency between
    /// admission and the actual trace issue.
    reserved_rays: Vec<usize>,
    /// Deferred slot releases: a suspending CTA's slot (and register file)
    /// is only reusable once its state save has drained to memory.
    slot_release: BinaryHeap<Reverse<(u64, usize)>>,
    free_slots: Vec<usize>,
    now: u64,
    pub(crate) stats: SimStats,
    pub(crate) hits: Vec<Vec<Option<PrimHit>>>,
    workload: &'a Workload,
    next_sm: usize,
    /// Optional structured-event sink. Events are only constructed when a
    /// sink is attached; observation never feeds back into timing.
    sink: Option<&'a mut dyn TraceSink>,
    /// Time-series window width in cycles (0 disables sampling).
    obs_window: u64,
    /// Per-SM cycle of the last RT-unit action (warp installed or stepped),
    /// reported in forensics snapshots.
    last_progress: Vec<u64>,
    /// Invariant-audit interval resolved from the config's `AuditMode`
    /// (`None` = auditing off for this build flavour).
    audit_every: Option<u64>,
    /// Cycle of the last audit.
    last_audit: u64,
    /// xorshift state for the scheduling-jitter draw (never zero).
    jitter_state: u64,
    /// Scheduled state corruption (auditor tests only).
    sabotage: Option<Sabotage>,
    /// Trace events recorded into the attached sink so far (0 when
    /// untraced); checkpointed so a resumed traced run continues the count.
    sink_events: u64,
    /// Stack arenas reclaimed from finished rays, reused for fresh ones so
    /// steady-state cycling never allocates. Pure scratch: never
    /// checkpointed (a restored engine simply re-warms the pool).
    arena_pool: Vec<StackArena>,
    /// Reusable `step_warp` scratch buffers (taken with `mem::take` for
    /// the duration of one step, then put back). Pure scratch.
    scratch_visits: Vec<(usize, RayId, NodeId)>,
    scratch_exits: Vec<(TreeletId, RayId)>,
    scratch_treelets: Vec<TreeletId>,
    scratch_fetched: Vec<NodeId>,
    /// Reusable `issue_trace` ray-id buffer. Pure scratch.
    scratch_new_rays: Vec<RayId>,
}

impl<'a> Engine<'a> {
    fn new(
        bvh: &'a Bvh,
        triangles: &'a [Triangle],
        cfg: &'a GpuConfig,
        workload: &'a Workload,
        sink: Option<&'a mut dyn TraceSink>,
    ) -> Engine<'a> {
        let vtq = match cfg.policy {
            TraversalPolicy::Vtq(p) => Some(p),
            _ => None,
        };
        let predict = match cfg.policy {
            TraversalPolicy::Predict(p) => Some(p),
            _ => None,
        };
        let num_sms = cfg.num_sms();
        let mut ctas = Vec::new();
        let mut pending = VecDeque::new();
        let mut first = 0;
        while first < workload.tasks.len() {
            let count = cfg.cta_size.min(workload.tasks.len() - first);
            pending.push_back(ctas.len());
            ctas.push(Cta {
                first_task: first,
                task_count: count,
                bounce: 0,
                phase: Phase::Pending,
                ready_at: 0,
                sm: 0,
                outstanding: 0,
                resume_queued: false,
            });
            first += count;
        }
        let hits = workload.tasks.iter().map(|t| vec![None; t.rays.len()]).collect();
        Engine {
            bvh,
            triangles,
            cfg,
            vtq,
            predict,
            mem: MemorySystem::new(&cfg.mem),
            rays: Vec::new(),
            ray_meta: Vec::new(),
            rt: (0..num_sms)
                .map(|_| {
                    RtUnit::new(
                        cfg.warp_buffer_slots,
                        match cfg.policy {
                            TraversalPolicy::Vtq(v) => v.queue_table_entries as u32,
                            _ => 1,
                        },
                        cfg.warp_size as u32,
                        match cfg.policy {
                            TraversalPolicy::Predict(p) => p.table_entries as u32,
                            _ => 1,
                        },
                    )
                })
                .collect(),
            ctas,
            pending,
            timers: BinaryHeap::new(),
            resume_ready: Vec::new(),
            shader_active: vec![0; num_sms],
            reserved_rays: vec![0; num_sms],
            slot_release: BinaryHeap::new(),
            free_slots: vec![cfg.max_ctas_per_sm; num_sms],
            now: 0,
            stats: SimStats {
                stall: vec![StallBreakdown::default(); num_sms],
                ..SimStats::default()
            },
            hits,
            workload,
            next_sm: 0,
            sink,
            obs_window: cfg.sample_window_cycles,
            last_progress: vec![0; num_sms],
            audit_every: cfg.audit.interval(),
            last_audit: 0,
            jitter_state: cfg
                .sched_jitter_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xD1B5_4A32_D192_ED03)
                | 1,
            sabotage: None,
            sink_events: 0,
            arena_pool: Vec::new(),
            scratch_visits: Vec::new(),
            scratch_exits: Vec::new(),
            scratch_treelets: Vec::new(),
            scratch_fetched: Vec::new(),
            scratch_new_rays: Vec::new(),
        }
    }

    /// Runs to completion. When `ckpt` is `Some((every, callback))` the
    /// engine hands a [`Checkpoint`] to the callback roughly every `every`
    /// cycles, captured at the quiescent point right after each clock
    /// advance (sabotage applied, audit passed) and before the fixed-point
    /// iteration at the new cycle — the exact state a resumed engine
    /// re-enters this loop with.
    fn run(&mut self, mut ckpt: Option<(u64, &mut dyn FnMut(Checkpoint))>) -> Result<(), SimError> {
        let mut next_ckpt_at =
            ckpt.as_ref().map_or(u64::MAX, |(every, _)| self.now.saturating_add(*every));
        loop {
            // Iterate to a fixed point at the current cycle.
            loop {
                let mut progress = false;
                progress |= self.schedule();
                progress |= self.process_cta_phases();
                progress |= self.step_rt_units();
                if !progress {
                    break;
                }
            }
            if self.ctas.iter().all(|c| c.phase == Phase::Done) {
                break;
            }
            match self.next_event() {
                Some(t) if t > self.now => {
                    // Watchdog: refuse to jump past the cycle budget.
                    if let Some(budget) = self.cfg.max_cycles {
                        if t > budget {
                            return Err(SimError::CycleBudget {
                                budget,
                                snapshot: self.snapshot(),
                            });
                        }
                    }
                    self.observe_interval(t);
                    self.now = t;
                    self.apply_sabotage();
                    if let Some(every) = self.audit_every {
                        if self.now - self.last_audit >= every {
                            self.last_audit = self.now;
                            self.audit_invariants()?;
                        }
                    }
                    if self.now >= next_ckpt_at {
                        if let Some((every, on_checkpoint)) = ckpt.as_mut() {
                            on_checkpoint(self.capture());
                            let every = (*every).max(1);
                            while next_ckpt_at <= self.now {
                                next_ckpt_at = next_ckpt_at.saturating_add(every);
                            }
                        }
                    }
                }
                // `next_event` only reports future events, so anything else
                // means no schedulable work remains: a true deadlock.
                _ => return Err(SimError::Deadlock { snapshot: self.snapshot() }),
            }
        }
        self.stats.cycles = self.now;
        for rt in &self.rt {
            let qt = rt.hw_table.stats();
            self.stats.queue_table_max_chain = self.stats.queue_table_max_chain.max(qt.max_chain);
            self.stats.queue_table_peak_entries =
                self.stats.queue_table_peak_entries.max(qt.peak_entries);
            self.stats.queue_table_overflows += qt.overflows;
            let ps = rt.predict.stats();
            self.stats.predict_lookups += ps.lookups;
            self.stats.predict_hits += ps.hits;
            self.stats.predict_inserts += ps.inserts;
            self.stats.predict_evictions += ps.evictions;
        }
        // Closing audit: the finished state must satisfy the conservation
        // laws too (all rays accounted for, stall buckets sum to the clock).
        if self.audit_every.is_some() {
            self.audit_invariants()?;
        }
        Ok(())
    }

    // -- checkpointing -------------------------------------------------------

    /// Serializes the complete architectural state into a [`Checkpoint`].
    /// Must be called at a clock-advance quiescent point (see
    /// [`Engine::run`]); [`Engine::restore`] + re-entering `run` then
    /// replays the remainder bit-identically.
    fn capture(&self) -> Checkpoint {
        let heap_sorted = |h: &BinaryHeap<Reverse<(u64, usize)>>| {
            let mut v: Vec<(u64, usize)> = h.iter().map(|Reverse(t)| *t).collect();
            v.sort_unstable();
            v
        };
        let rt = self
            .rt
            .iter()
            .map(|u| {
                let (queues, queue_total) = u.queues.export_state();
                let (hw_buckets, hw_live, hw_stats) = u.hw_table.export_state();
                let (predict_buckets, predict_stats) = u.predict.export_state();
                let mut prefetched: Vec<(u64, bool)> =
                    u.prefetched.iter().map(|(k, v)| (*k, *v)).collect();
                prefetched.sort_unstable();
                RtUnitState {
                    incoming: u
                        .incoming
                        .iter()
                        .map(|(t, rays)| (*t, rays.iter().map(|r| r.0).collect()))
                        .collect(),
                    slots: u
                        .slots
                        .iter()
                        .map(|s| {
                            s.as_ref().map(|w| WarpState {
                                lanes: w.lanes.iter().map(|l| l.map(|r| r.0)).collect(),
                                mode: w.mode.index() as u8,
                                restrict: w.restrict.map(|t| t.0),
                                ready_at: w.ready_at,
                                mem_ready_at: w.mem_ready_at,
                            })
                        })
                        .collect(),
                    queues,
                    queue_total,
                    current_queue: u.current_queue.map(|t| t.0),
                    preloaded: u.preloaded.map(|t| t.0),
                    last_prefetch_at: u.last_prefetch_at,
                    prefetched,
                    rays_in_flight: u.rays_in_flight,
                    hw_buckets,
                    hw_live,
                    hw_stats,
                    predict_buckets,
                    predict_stats,
                    last_mode: u.last_mode.map(|m| m.index() as u8),
                }
            })
            .collect();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            num_sms: self.rt.len(),
            tasks: self.workload.tasks.len(),
            total_rays: self.workload.total_rays(),
            config_tag: config_tag(self.cfg),
            now: self.now,
            next_sm: self.next_sm,
            last_audit: self.last_audit,
            jitter_state: self.jitter_state,
            sink_events: self.sink_events,
            sabotage: self.sabotage.map(|s| (s.at_cycle, s.queue_total_delta as i64)),
            pending: self.pending.iter().copied().collect(),
            timers: heap_sorted(&self.timers),
            resume_ready: self.resume_ready.clone(),
            shader_active: self.shader_active.clone(),
            reserved_rays: self.reserved_rays.clone(),
            slot_release: heap_sorted(&self.slot_release),
            free_slots: self.free_slots.clone(),
            last_progress: self.last_progress.clone(),
            stats: self.stats.clone(),
            ctas: self
                .ctas
                .iter()
                .map(|c| CtaState {
                    first_task: c.first_task,
                    task_count: c.task_count,
                    bounce: c.bounce,
                    phase: phase_to_u8(c.phase),
                    ready_at: c.ready_at,
                    sm: c.sm,
                    outstanding: c.outstanding,
                    resume_queued: c.resume_queued,
                })
                .collect(),
            rays: self
                .rays
                .iter()
                .zip(&self.ray_meta)
                .map(|(r, m)| RayState {
                    traversal: r.export_state(),
                    cta: m.cta,
                    task: m.task,
                    bounce: m.bounce,
                    sm: m.sm,
                })
                .collect(),
            hits: self
                .hits
                .iter()
                .map(|t| t.iter().map(|h| h.map(|h| (h.t.to_bits(), h.prim))).collect())
                .collect(),
            rt,
            mem: self.mem.snapshot(),
        }
    }

    /// Restores a freshly constructed engine (same scene, workload and
    /// config as the checkpointed run) to the captured state.
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), SimError> {
        let err = SimError::Checkpoint;
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(err(format!(
                "version {} unsupported (this build reads {CHECKPOINT_VERSION})",
                ckpt.version
            )));
        }
        if ckpt.config_tag != config_tag(self.cfg) {
            return Err(err(format!(
                "config fingerprint {:#x} does not match the simulator's {:#x}",
                ckpt.config_tag,
                config_tag(self.cfg)
            )));
        }
        if ckpt.num_sms != self.rt.len() {
            return Err(err(format!(
                "checkpoint has {} SMs, simulator has {}",
                ckpt.num_sms,
                self.rt.len()
            )));
        }
        if ckpt.tasks != self.workload.tasks.len() || ckpt.total_rays != self.workload.total_rays()
        {
            return Err(err(format!(
                "checkpoint workload shape ({} tasks, {} rays) does not match \
                 ({} tasks, {} rays)",
                ckpt.tasks,
                ckpt.total_rays,
                self.workload.tasks.len(),
                self.workload.total_rays()
            )));
        }
        if ckpt.ctas.len() != self.ctas.len() {
            return Err(err(format!(
                "checkpoint has {} CTAs, workload builds {}",
                ckpt.ctas.len(),
                self.ctas.len()
            )));
        }
        if ckpt.jitter_state == 0 {
            return Err(err("jitter RNG state must be non-zero".to_string()));
        }
        let n = self.rt.len();
        for (name, len) in [
            ("shader_active", ckpt.shader_active.len()),
            ("reserved_rays", ckpt.reserved_rays.len()),
            ("free_slots", ckpt.free_slots.len()),
            ("last_progress", ckpt.last_progress.len()),
            ("stall", ckpt.stats.stall.len()),
            ("rt", ckpt.rt.len()),
        ] {
            if len != n {
                return Err(err(format!("`{name}` has {len} entries, expected {n}")));
            }
        }
        let nctas = ckpt.ctas.len();
        for &id in ckpt.pending.iter().chain(&ckpt.resume_ready) {
            if id >= nctas {
                return Err(err(format!("CTA id {id} out of range ({nctas} CTAs)")));
            }
        }
        for &(_, id) in &ckpt.timers {
            if id >= nctas {
                return Err(err(format!("timer CTA id {id} out of range ({nctas} CTAs)")));
            }
        }
        for &(_, sm) in &ckpt.slot_release {
            if sm >= n {
                return Err(err(format!("slot-release SM {sm} out of range ({n} SMs)")));
            }
        }
        let nrays = ckpt.rays.len();
        for (sm, s) in ckpt.rt.iter().enumerate() {
            let referenced = s
                .incoming
                .iter()
                .flat_map(|(_, r)| r.iter())
                .chain(s.queues.iter().flat_map(|(_, r)| r.iter()))
                .chain(s.slots.iter().flatten().flat_map(|w| w.lanes.iter().flatten()));
            for &r in referenced {
                if r as usize >= nrays {
                    return Err(err(format!("sm {sm}: ray id {r} out of range ({nrays} rays)")));
                }
            }
        }
        if ckpt.hits.len() != self.workload.tasks.len() {
            return Err(err("hit-record shape does not match the workload".to_string()));
        }
        for (task, (calls, t)) in ckpt.hits.iter().zip(&self.workload.tasks).enumerate() {
            if calls.len() != t.rays.len() {
                return Err(err(format!(
                    "task {task} has {} hit records, workload makes {} calls",
                    calls.len(),
                    t.rays.len()
                )));
            }
        }

        self.now = ckpt.now;
        self.next_sm = ckpt.next_sm;
        self.last_audit = ckpt.last_audit;
        self.jitter_state = ckpt.jitter_state;
        self.sink_events = ckpt.sink_events;
        self.sabotage =
            ckpt.sabotage.map(|(at, d)| Sabotage { at_cycle: at, queue_total_delta: d as isize });
        self.pending = ckpt.pending.iter().copied().collect();
        self.timers = ckpt.timers.iter().map(|&t| Reverse(t)).collect();
        self.resume_ready = ckpt.resume_ready.clone();
        self.shader_active = ckpt.shader_active.clone();
        self.reserved_rays = ckpt.reserved_rays.clone();
        self.slot_release = ckpt.slot_release.iter().map(|&t| Reverse(t)).collect();
        self.free_slots = ckpt.free_slots.clone();
        self.last_progress = ckpt.last_progress.clone();
        self.stats = ckpt.stats.clone();
        for (id, (cta, s)) in self.ctas.iter_mut().zip(&ckpt.ctas).enumerate() {
            if s.first_task != cta.first_task || s.task_count != cta.task_count {
                return Err(err(format!(
                    "CTA {id} covers tasks {}+{} in the checkpoint but {}+{} here \
                     (different workload or cta_size)",
                    s.first_task, s.task_count, cta.first_task, cta.task_count
                )));
            }
            if s.sm >= n {
                return Err(err(format!("CTA {id} on SM {} out of range ({n} SMs)", s.sm)));
            }
            cta.bounce = s.bounce;
            cta.phase = phase_from_u8(s.phase)
                .ok_or_else(|| err(format!("CTA {id} has unknown phase code {}", s.phase)))?;
            cta.ready_at = s.ready_at;
            cta.sm = s.sm;
            cta.outstanding = s.outstanding;
            cta.resume_queued = s.resume_queued;
        }
        self.rays = ckpt.rays.iter().map(|r| RayTraversal::import_state(&r.traversal)).collect();
        self.ray_meta = ckpt
            .rays
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if r.cta >= nctas || r.task >= self.workload.tasks.len() || r.sm >= n {
                    return Err(err(format!("ray {i} references out-of-range cta/task/sm")));
                }
                Ok(RayMeta { cta: r.cta, task: r.task, bounce: r.bounce, sm: r.sm })
            })
            .collect::<Result<_, _>>()?;
        self.hits = ckpt
            .hits
            .iter()
            .map(|t| {
                t.iter()
                    .map(|h| h.map(|(bits, prim)| PrimHit { t: f32::from_bits(bits), prim }))
                    .collect()
            })
            .collect();
        for (sm, (unit, s)) in self.rt.iter_mut().zip(&ckpt.rt).enumerate() {
            if s.slots.len() != unit.slots.len() {
                return Err(err(format!(
                    "sm {sm}: checkpoint has {} warp-buffer slots, config builds {}",
                    s.slots.len(),
                    unit.slots.len()
                )));
            }
            unit.incoming = s
                .incoming
                .iter()
                .map(|(t, rays)| (*t, rays.iter().map(|r| RayId(*r)).collect()))
                .collect();
            unit.slots = s
                .slots
                .iter()
                .map(|w| {
                    w.as_ref()
                        .map(|w| {
                            Ok::<Warp, SimError>(Warp {
                                lanes: w.lanes.iter().map(|l| l.map(RayId)).collect(),
                                mode: mode_from_u8(w.mode).ok_or_else(|| {
                                    err(format!("sm {sm}: unknown mode code {}", w.mode))
                                })?,
                                restrict: w.restrict.map(TreeletId),
                                ready_at: w.ready_at,
                                mem_ready_at: w.mem_ready_at,
                            })
                        })
                        .transpose()
                })
                .collect::<Result<_, _>>()?;
            unit.queues = TreeletQueues::import_state(&s.queues, s.queue_total);
            unit.current_queue = s.current_queue.map(TreeletId);
            unit.preloaded = s.preloaded.map(TreeletId);
            unit.last_prefetch_at = s.last_prefetch_at;
            unit.prefetched = s.prefetched.iter().copied().collect();
            unit.rays_in_flight = s.rays_in_flight;
            unit.hw_table
                .import_state(&s.hw_buckets, s.hw_live, s.hw_stats)
                .map_err(|e| err(format!("sm {sm}: {e}")))?;
            unit.predict
                .import_state(&s.predict_buckets, s.predict_stats)
                .map_err(|e| err(format!("sm {sm}: {e}")))?;
            unit.last_mode = match s.last_mode {
                None => None,
                Some(m) => Some(
                    mode_from_u8(m)
                        .ok_or_else(|| err(format!("sm {sm}: unknown mode code {m}")))?,
                ),
            };
        }
        self.mem.restore(&ckpt.mem).map_err(err)?;
        Ok(())
    }

    // -- integrity -----------------------------------------------------------

    /// Captures the structured machine state for a watchdog forensics dump.
    fn snapshot(&self) -> ForensicsSnapshot {
        let sms = self
            .rt
            .iter()
            .enumerate()
            .map(|(sm, unit)| SmSnapshot {
                sm,
                free_cta_slots: self.free_slots[sm],
                resident_warps: unit.slots.iter().filter(|s| s.is_some()).count(),
                warp_buffer_slots: unit.slots.len(),
                incoming_warps: unit.incoming.len(),
                queued_rays: unit.queues.total_rays(),
                treelet_queues: unit.queues.queue_count(),
                rays_in_flight: unit.rays_in_flight,
                shader_active: self.shader_active[sm],
                reserved_rays: self.reserved_rays[sm],
                last_progress_cycle: self.last_progress[sm],
            })
            .collect();
        ForensicsSnapshot {
            cycle: self.now,
            rays_created: self.rays.len() as u64,
            rays_completed: self.stats.rays_completed,
            ctas_total: self.ctas.len(),
            ctas_unfinished: self.ctas.iter().filter(|c| c.phase != Phase::Done).count(),
            pending_ctas: self.pending.len(),
            resume_ready_ctas: self.resume_ready.len(),
            mem_in_flight: self.mem.in_flight_requests(self.now),
            sms,
        }
    }

    /// Applies a pending scheduled corruption (auditor tests only).
    fn apply_sabotage(&mut self) {
        let due = self.sabotage.is_some_and(|s| self.now >= s.at_cycle);
        if due {
            let s = self.sabotage.take().expect("checked above");
            self.rt[0].queues.corrupt_total(s.queue_total_delta);
        }
    }

    /// Re-derives the engine's conservation laws from first principles and
    /// reports the first violated one. See
    /// [`AuditMode`](crate::AuditMode) for when this runs.
    fn audit_invariants(&self) -> Result<(), InvariantViolation> {
        let fail = |site: &str, detail: String| InvariantViolation {
            cycle: self.now,
            site: site.to_string(),
            detail,
        };
        // Ray conservation: every ray ever created is either completed or
        // in flight on exactly one SM.
        let in_flight: usize = self.rt.iter().map(|r| r.rays_in_flight).sum();
        if self.rays.len() as u64 != self.stats.rays_completed + in_flight as u64 {
            return Err(fail(
                "ray-conservation",
                format!(
                    "{} rays created != {} completed + {} in flight",
                    self.rays.len(),
                    self.stats.rays_completed,
                    in_flight
                ),
            ));
        }
        for (sm, unit) in self.rt.iter().enumerate() {
            // The cached treelet-queue ray counter must match the queues.
            let recount = unit.queues.recount();
            if recount != unit.queues.total_rays() {
                return Err(fail(
                    "queue-accounting",
                    format!(
                        "sm {sm}: cached total {} != recounted {recount}",
                        unit.queues.total_rays()
                    ),
                ));
            }
            // Slot accounting can never exceed the hardware capacity.
            if self.free_slots[sm] > self.cfg.max_ctas_per_sm {
                return Err(fail(
                    "cta-slots",
                    format!(
                        "sm {sm}: {} free slots > capacity {}",
                        self.free_slots[sm], self.cfg.max_ctas_per_sm
                    ),
                ));
            }
            // No warp may be wider than the machine's warp width.
            for warp in unit.slots.iter().flatten() {
                if warp.lanes.len() > self.cfg.warp_size {
                    return Err(fail(
                        "warp-width",
                        format!(
                            "sm {sm}: warp of {} lanes > warp size {}",
                            warp.lanes.len(),
                            self.cfg.warp_size
                        ),
                    ));
                }
            }
            // Stall attribution is exhaustive: every elapsed cycle lands in
            // exactly one bucket, so the buckets sum to the clock.
            let attributed = self.stats.stall[sm].total();
            if attributed != self.now {
                return Err(fail(
                    "stall-sum",
                    format!("sm {sm}: {attributed} attributed cycles != clock {}", self.now),
                ));
            }
        }
        // Memory-hierarchy accounting (per-kind service levels, cache
        // hit/access ordering).
        if let Err(detail) = self.mem.audit() {
            return Err(fail("mem-accounting", detail));
        }
        Ok(())
    }

    // -- observation --------------------------------------------------------

    /// Attributes the quiescent interval `[self.now, until)` — the engine
    /// is at a fixed point, so no architectural state changes until the
    /// clock jumps — to stall buckets and time-series windows.
    ///
    /// Per RT unit the interval is classified from its quiescent state:
    /// with resident warps, cycles before the earliest outstanding memory
    /// completion are waiting-on-memory and the rest are busy (the
    /// intersection pipeline of the warp whose data arrived is executing
    /// through `until`, since every resident `ready_at >= until`); with no
    /// resident warp the whole interval is warp-buffer-empty (local rays
    /// queued or arriving), queue-drained (shader phases still running on
    /// this SM), or idle. Every cycle lands in exactly one bucket, so each
    /// unit's buckets sum to [`SimStats::cycles`].
    fn observe_interval(&mut self, until: u64) {
        let dt = until.saturating_sub(self.now);
        if dt == 0 {
            return;
        }
        // (first kind until `split`, second kind from `split` to `until`).
        let mut classes: Vec<(StallKind, u64, StallKind)> = Vec::with_capacity(self.rt.len());
        for (sm, unit) in self.rt.iter().enumerate() {
            let class = if unit.slots.iter().any(|s| s.is_some()) {
                let mem_done = unit
                    .slots
                    .iter()
                    .flatten()
                    .map(|w| w.mem_ready_at)
                    .min()
                    .expect("resident warp")
                    .clamp(self.now, until);
                (StallKind::WaitingMemory, mem_done, StallKind::Busy)
            } else if !unit.incoming.is_empty() || !unit.queues.is_empty() {
                (StallKind::WarpBufferEmpty, until, StallKind::WarpBufferEmpty)
            } else if self.shader_active[sm] > 0 {
                (StallKind::QueueDrained, until, StallKind::QueueDrained)
            } else {
                (StallKind::Idle, until, StallKind::Idle)
            };
            self.stats.stall[sm].add(class.0, class.1 - self.now);
            self.stats.stall[sm].add(class.2, until - class.1);
            classes.push(class);
        }

        if self.obs_window == 0 {
            return;
        }
        let window = self.obs_window;
        let rays: u64 = self.rt.iter().map(|r| r.rays_in_flight as u64).sum();
        let total_slots = (self.rt.len() * self.cfg.max_ctas_per_sm) as u64;
        let occupied =
            total_slots.saturating_sub(self.free_slots.iter().map(|f| *f as u64).sum::<u64>());
        // Split the interval at window boundaries; quantities are cycle
        // integrals, so each chunk contributes weight (b - a).
        let mut a = self.now;
        while a < until {
            let idx = (a / window) as usize;
            let b = until.min((idx as u64 + 1) * window);
            let point = self.window_mut(idx);
            point.covered_cycles += b - a;
            point.ray_cycles += rays * (b - a);
            point.occupied_slot_cycles += occupied * (b - a);
            for &(first, split, second) in &classes {
                let m = split.clamp(a, b);
                point.stall.add(first, m - a);
                point.stall.add(second, b - m);
            }
            a = b;
        }
    }

    /// The sample window containing window index `idx`, growing the series
    /// as the clock advances.
    fn window_mut(&mut self, idx: usize) -> &mut SamplePoint {
        while self.stats.series.len() <= idx {
            let start_cycle = self.stats.series.len() as u64 * self.obs_window;
            self.stats.series.push(SamplePoint { start_cycle, ..SamplePoint::default() });
        }
        &mut self.stats.series[idx]
    }

    /// Credits `cycles` of mode activity to the window containing `at`.
    fn sample_mode_cycles(&mut self, at: u64, mode: TraversalMode, cycles: u64) {
        if self.obs_window == 0 {
            return;
        }
        let idx = (at / self.obs_window) as usize;
        self.window_mut(idx).mode_cycles[mode.index()] += cycles;
    }

    /// Emits a mode-transition event when `mode` differs from the last warp
    /// installed on `sm`.
    fn note_mode(&mut self, sm: usize, mode: TraversalMode) {
        if self.rt[sm].last_mode != Some(mode) {
            let from = self.rt[sm].last_mode;
            let now = self.now;
            emit(&mut self.sink, &mut self.sink_events, || TraceEvent::ModeTransition {
                cycle: now,
                sm,
                from,
                to: mode,
            });
            self.rt[sm].last_mode = Some(mode);
        }
    }

    // -- scheduling ---------------------------------------------------------

    /// Launches pending CTAs and resumes suspended ones into free slots.
    fn schedule(&mut self) -> bool {
        let mut progress = false;
        // Deferred slot releases from suspending CTAs.
        while let Some(&Reverse((t, sm))) = self.slot_release.peek() {
            if t > self.now {
                break;
            }
            self.slot_release.pop();
            self.free_slots[sm] += 1;
            progress = true;
        }
        // Resumes take priority (§3.1: "We prioritize resuming CTAs that
        // have completed traversal").
        let mut i = 0;
        while i < self.resume_ready.len() {
            let id = self.resume_ready[i];
            {
                // Resumes take priority over fresh launches and are NOT
                // gated by the virtualized-ray cap: §4.1 applies the cap to
                // launching new raygen CTAs, while resuming drains pressure
                // (the resumed CTA finishes its bounce and retires or
                // re-suspends). Gating resumes here starves the pipeline.
                if let Some(sm) = self.find_free_slot() {
                    self.resume_ready.swap_remove(i);
                    self.ctas[id].resume_queued = false;
                    self.free_slots[sm] -= 1;
                    let charge = self.vtq.is_none_or(|v| v.charge_virtualization);
                    let restore_done = if charge {
                        let bytes = self.cfg.cta_state_bytes();
                        self.stats.cta_state_bytes += bytes as u64;
                        self.mem.access(
                            sm,
                            CTA_REGION + id as u64 * 0x1_0000,
                            bytes,
                            AccessKind::CtaState,
                            CachePolicy::DramOnly,
                            self.now,
                        )
                    } else {
                        self.now
                    };
                    self.stats.cta_resumes += 1;
                    let now = self.now;
                    emit(&mut self.sink, &mut self.sink_events, || TraceEvent::CtaResume {
                        cycle: now,
                        cta: id,
                        sm,
                    });
                    self.shader_active[sm] += 1;
                    let shade = self.shader_phase_cycles(sm, self.cfg.shade_cycles);
                    let cta = &mut self.ctas[id];
                    cta.sm = sm;
                    cta.phase = Phase::Shade;
                    cta.ready_at = restore_done + shade;
                    self.timers.push(Reverse((cta.ready_at, id)));
                    progress = true;
                } else {
                    i += 1;
                }
            }
        }
        // Fresh launches.
        while let Some(&id) = self.pending.front() {
            let Some(sm) = self.find_launch_slot() else {
                break;
            };
            self.pending.pop_front();
            let now = self.now;
            emit(&mut self.sink, &mut self.sink_events, || TraceEvent::CtaLaunch {
                cycle: now,
                cta: id,
                sm,
            });
            self.free_slots[sm] -= 1;
            self.shader_active[sm] += 1;
            let ready = self.now + self.shader_phase_cycles(sm, self.cfg.raygen_cycles);
            let cta = &mut self.ctas[id];
            cta.sm = sm;
            cta.phase = Phase::Raygen;
            cta.ready_at = ready;
            self.timers.push(Reverse((cta.ready_at, id)));
            progress = true;
        }
        progress
    }

    fn find_free_slot(&mut self) -> Option<usize> {
        let n = self.rt.len();
        for i in 0..n {
            let sm = (self.next_sm + i) % n;
            if self.free_slots[sm] > 0 {
                self.next_sm = (sm + 1) % n;
                return Some(sm);
            }
        }
        None
    }

    /// Like [`find_free_slot`] but also enforces the virtualized-ray cap,
    /// reserving the prospective CTA's rays on success.
    fn find_launch_slot(&mut self) -> Option<usize> {
        let n = self.rt.len();
        for i in 0..n {
            let sm = (self.next_sm + i) % n;
            let cap_ok = match self.vtq {
                Some(v) => {
                    self.rt[sm].rays_in_flight + self.reserved_rays[sm] + self.cfg.cta_size
                        <= v.max_virtual_rays
                }
                None => true,
            };
            if self.free_slots[sm] > 0 && cap_ok {
                if self.vtq.is_some() {
                    self.reserved_rays[sm] += self.cfg.cta_size;
                }
                self.next_sm = (sm + 1) % n;
                return Some(sm);
            }
        }
        None
    }

    /// Completes Raygen/Shade phases whose timers expired and queues
    /// CTAs whose traversal finished for resume.
    fn process_cta_phases(&mut self) -> bool {
        let mut progress = false;
        while let Some(&Reverse((t, id))) = self.timers.peek() {
            if t > self.now {
                break;
            }
            self.timers.pop();
            if self.ctas[id].ready_at != t {
                continue; // stale entry
            }
            match self.ctas[id].phase {
                Phase::Raygen => {
                    self.shader_active[self.ctas[id].sm] =
                        self.shader_active[self.ctas[id].sm].saturating_sub(1);
                    self.issue_trace(id);
                    progress = true;
                }
                Phase::Shade => {
                    self.shader_active[self.ctas[id].sm] =
                        self.shader_active[self.ctas[id].sm].saturating_sub(1);
                    self.ctas[id].bounce += 1;
                    self.issue_trace(id);
                    progress = true;
                }
                Phase::ReadyToResume if !self.ctas[id].resume_queued => {
                    self.ctas[id].resume_queued = true;
                    self.resume_ready.push(id);
                    progress = true;
                }
                _ => {}
            }
        }
        progress
    }

    /// The CTA's warps call traceRayEXT for the current bounce.
    fn issue_trace(&mut self, id: usize) {
        let (first, count, bounce, sm) = {
            let c = &self.ctas[id];
            (c.first_task, c.task_count, c.bounce, c.sm)
        };
        // Release this CTA's launch-admission reservation (resumed CTAs
        // never held one; saturating_sub makes the release idempotent
        // across bounces).
        if self.vtq.is_some() && self.ctas[id].bounce == 0 {
            self.reserved_rays[sm] = self.reserved_rays[sm].saturating_sub(self.cfg.cta_size);
        }
        // Collect live threads (tasks that still have a ray this bounce).
        let mut new_rays = std::mem::take(&mut self.scratch_new_rays);
        new_rays.clear();
        for t in first..first + count {
            if let Some(call) = self.workload.tasks[t].rays.get(bounce) {
                let rid = RayId(self.rays.len() as u32);
                // Recycle a reclaimed stack arena (allocation-free once the
                // pool has warmed up).
                let arena =
                    self.arena_pool.pop().unwrap_or_else(|| StackArena::with_capacity(16, 8));
                let mut traversal =
                    RayTraversal::new_in(rid, call.ray, self.bvh, TRACE_T_MIN, call.t_max, arena);
                if call.anyhit {
                    traversal.set_anyhit();
                }
                // Ray-path prediction: consult the per-unit table before
                // traversal starts. Rays that miss the scene bounds skip the
                // lookup (the RT unit rejects them before table access), so
                // hit-rate stats only count rays that actually traverse.
                if let Some(p) = self.predict {
                    if !traversal.is_done() {
                        let key = predict_key(
                            &self.bvh.root_bounds(),
                            &call.ray,
                            p.origin_bits,
                            p.dir_bits,
                        );
                        if let Some(leaf) = self.rt[sm].predict.lookup(key) {
                            if p.trust_predictions {
                                traversal.speculate_trusted(leaf);
                            } else {
                                traversal.speculate(leaf);
                            }
                        }
                    }
                }
                self.rays.push(traversal);
                self.ray_meta.push(RayMeta { cta: id, task: t, bounce, sm });
                new_rays.push(rid);
            }
        }
        if new_rays.is_empty() {
            self.scratch_new_rays = new_rays;
            // Path ended for every thread: CTA retires, slot freed.
            self.ctas[id].phase = Phase::Done;
            self.free_slots[sm] += 1;
            let now = self.now;
            emit(&mut self.sink, &mut self.sink_events, || TraceEvent::CtaRetire {
                cycle: now,
                cta: id,
                sm,
            });
            return;
        }

        self.ctas[id].outstanding = new_rays.len();
        self.rt[sm].rays_in_flight += new_rays.len();
        self.stats.peak_rays_in_flight =
            self.stats.peak_rays_in_flight.max(self.rt[sm].rays_in_flight);

        // With virtualization the ray records are written to the reserved
        // L2 region at issue (§4.2 ①).
        if self.vtq.is_some() {
            for r in &new_rays {
                self.mem.access(
                    sm,
                    ray_addr(self.cfg, *r),
                    self.cfg.ray_record_bytes,
                    AccessKind::Ray,
                    CachePolicy::RayReserve,
                    self.now,
                );
            }
        }

        // Group into shader warps and hand them to the RT unit. Under the
        // prediction policy each warp spends `lookup_latency` cycles in the
        // table pipeline before it can enter the warp buffer; the delay is
        // attributed to the WarpBufferEmpty stall bucket (the unit sits
        // warp-less while the lookup is in flight).
        let arrive = match self.predict {
            Some(p) => self.now + p.lookup_latency as u64,
            None => self.now,
        };
        for chunk in new_rays.chunks(self.cfg.warp_size) {
            self.rt[sm].incoming.push_back((arrive, chunk.to_vec()));
            self.stats.warps_issued += 1;
            let now = self.now;
            let rays = chunk.len();
            emit(&mut self.sink, &mut self.sink_events, || TraceEvent::WarpIssue {
                cycle: now,
                sm,
                cta: id,
                rays,
            });
        }

        let charge = self.vtq.is_some_and(|v| v.charge_virtualization);
        match self.vtq {
            Some(_) => {
                // Suspend: save CTA state and free the slot (§4.1). The
                // stores themselves drain asynchronously (their DRAM
                // traffic and bandwidth are charged), but the register
                // file backing the slot can only be reallocated once its
                // values have been read out into the store path — one
                // 64-byte register-file read per cycle.
                self.stats.cta_suspends += 1;
                let now = self.now;
                let rays = self.ctas[id].outstanding;
                emit(&mut self.sink, &mut self.sink_events, || TraceEvent::CtaSuspend {
                    cycle: now,
                    cta: id,
                    sm,
                    rays,
                });
                self.ctas[id].phase = Phase::Suspended;
                if charge {
                    let bytes = self.cfg.cta_state_bytes();
                    self.stats.cta_state_bytes += bytes as u64;
                    self.mem.access(
                        sm,
                        CTA_REGION + id as u64 * 0x1_0000,
                        bytes,
                        AccessKind::CtaState,
                        CachePolicy::DramOnly,
                        self.now,
                    );
                    let readout = self.now + (bytes as u64).div_ceil(64);
                    self.slot_release.push(Reverse((readout, sm)));
                } else {
                    self.free_slots[sm] += 1;
                }
            }
            None => {
                self.ctas[id].phase = Phase::WaitTraversal;
            }
        }
        self.scratch_new_rays = new_rays;
    }

    /// Duration of a shader phase of nominal `base` cycles on `sm`,
    /// stretched by CUDA-core contention when enabled and by the optional
    /// fault-injection scheduling jitter. Call *after* incrementing
    /// `shader_active[sm]` for the entering CTA.
    fn shader_phase_cycles(&mut self, sm: usize, base: u32) -> u64 {
        let nominal = match self.cfg.shader_slots_per_sm {
            0 => base as u64,
            slots => {
                let active = self.shader_active[sm].max(1) as u64;
                base as u64 * active.div_ceil(slots as u64)
            }
        };
        match self.cfg.sched_jitter_cycles {
            0 => nominal,
            jitter => nominal + self.next_jitter_draw() % (jitter as u64 + 1),
        }
    }

    /// One xorshift64 step of the scheduling-jitter RNG.
    fn next_jitter_draw(&mut self) -> u64 {
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        x
    }

    /// Enqueues a ray for a treelet, mirroring the hardware queue table.
    fn enqueue(&mut self, sm: usize, t: TreeletId, rid: RayId) {
        self.rt[sm].queues.push(t, rid);
        let (addr, _) = self.bvh.treelet_extent(t);
        let _resident = self.rt[sm].hw_table.push(addr);
    }

    /// Mirrors queue pops into the hardware queue table.
    fn dequeue_hw(&mut self, sm: usize, t: TreeletId, n: usize) {
        let (addr, _) = self.bvh.treelet_extent(t);
        for _ in 0..n {
            self.rt[sm].hw_table.pop(addr);
        }
    }

    /// A ray finished traversal at cycle `at`.
    fn complete_ray(&mut self, rid: RayId, at: u64) {
        let meta = &self.ray_meta[rid.index()];
        let (cta_id, task, bounce, sm) = (meta.cta, meta.task, meta.bounce, meta.sm);
        self.hits[task][bounce] = self.rays[rid.index()].best;
        // Train the prediction table: the leaf whose triangle produced this
        // ray's accepted hit becomes the prediction for every future ray
        // quantizing to the same cell.
        if let Some(p) = self.predict {
            if let Some(leaf) = self.rays[rid.index()].best_node {
                let call = &self.workload.tasks[task].rays[bounce];
                let key =
                    predict_key(&self.bvh.root_bounds(), &call.ray, p.origin_bits, p.dir_bits);
                self.rt[sm].predict.train(key, leaf);
            }
        }
        // Recycle the finished ray's stack storage for future rays.
        let arena = self.rays[rid.index()].reclaim();
        self.arena_pool.push(arena);
        self.stats.rays_completed += 1;
        self.rt[sm].rays_in_flight -= 1;
        let cta = &mut self.ctas[cta_id];
        cta.outstanding -= 1;
        if cta.outstanding == 0 {
            match cta.phase {
                Phase::WaitTraversal => {
                    // Baseline: shade in place.
                    let sm = cta.sm;
                    cta.phase = Phase::Shade;
                    self.shader_active[sm] += 1;
                    let shade = self.shader_phase_cycles(sm, self.cfg.shade_cycles);
                    let cta = &mut self.ctas[cta_id];
                    cta.ready_at = at + shade;
                    self.timers.push(Reverse((cta.ready_at, cta_id)));
                }
                Phase::Suspended => {
                    cta.phase = Phase::ReadyToResume;
                    cta.ready_at = at;
                    self.timers.push(Reverse((cta.ready_at, cta_id)));
                }
                other => panic!("rays completed while CTA in phase {other:?}"),
            }
        }
    }

    // -- RT units -----------------------------------------------------------

    fn step_rt_units(&mut self) -> bool {
        let mut progress = false;
        for sm in 0..self.rt.len() {
            for slot in 0..self.rt[sm].slots.len() {
                loop {
                    if self.rt[sm].slots[slot].is_none() {
                        if !self.acquire_work(sm, slot) {
                            break;
                        }
                        self.last_progress[sm] = self.now;
                    }
                    if self.rt[sm].slots[slot].as_ref().is_some_and(|w| w.ready_at > self.now) {
                        break;
                    }
                    self.step_warp(sm, slot);
                    self.last_progress[sm] = self.now;
                    progress = true;
                }
            }
            if matches!(self.cfg.policy, TraversalPolicy::TreeletPrefetch) {
                progress |= self.maybe_prefetch(sm);
            }
        }
        progress
    }

    /// Tries to fill one of the SM's warp-buffer slots; returns `true` if a
    /// warp was installed.
    fn acquire_work(&mut self, sm: usize, slot: usize) -> bool {
        // 1. Freshly issued warps (initial traversal phase).
        if self.rt[sm].incoming.front().is_some_and(|(arrive, _)| *arrive <= self.now) {
            let (_, rays) = self.rt[sm].incoming.pop_front().expect("checked non-empty");
            let mode = if self.vtq.is_some() {
                TraversalMode::Initial
            } else {
                TraversalMode::RayStationary
            };
            self.note_mode(sm, mode);
            self.rt[sm].slots[slot] = Some(Warp {
                lanes: rays.into_iter().map(Some).collect(),
                mode,
                restrict: None,
                ready_at: self.now,
                mem_ready_at: self.now,
            });
            return true;
        }
        let Some(vtq) = self.vtq else { return false };

        // 2. Treelet-stationary dispatch: the current queue, or the largest
        //    queue above the threshold.
        let target = match self.rt[sm].current_queue {
            Some(t) if self.rt[sm].queues.len_of(t) > 0 => Some(t),
            _ => {
                self.rt[sm].current_queue = None;
                let threshold = if vtq.group_underpopulated { vtq.queue_threshold } else { 1 };
                match self.rt[sm].queues.largest() {
                    Some((t, n)) if n >= threshold => Some(t),
                    _ => None,
                }
            }
        };
        if let Some(t) = target {
            let switching = self.rt[sm].current_queue != Some(t);
            self.rt[sm].current_queue = Some(t);
            let mut ready = self.now;
            if switching {
                self.stats.treelet_dispatches += 1;
                ready = ready.max(self.load_treelet(sm, t));
            }
            let rays = self.rt[sm].queues.pop_from(t, self.cfg.warp_size);
            self.dequeue_hw(sm, t, rays.len());
            self.charge_queue_overflow(sm, &vtq, rays.len());
            for r in &rays {
                self.rays[r.index()].enter_treelet(self.bvh, t);
                ready = ready.max(self.fetch_ray_record(sm, *r));
            }
            let now = self.now;
            let n_rays = rays.len();
            emit(&mut self.sink, &mut self.sink_events, || TraceEvent::TreeletDispatch {
                cycle: now,
                sm,
                treelet: t,
                rays: n_rays,
            });
            self.note_mode(sm, TraversalMode::TreeletStationary);
            self.rt[sm].slots[slot] = Some(Warp {
                lanes: rays.into_iter().map(Some).collect(),
                mode: TraversalMode::TreeletStationary,
                restrict: Some(t),
                ready_at: ready,
                mem_ready_at: ready,
            });
            self.maybe_preload(sm, &vtq);
            return true;
        }

        // 3. Underpopulated queues: group stray rays into ray-stationary
        //    warps (§4.4). Disabled in the naive configuration, where case 2
        //    already dispatched any non-empty queue.
        if vtq.group_underpopulated && !self.rt[sm].queues.is_empty() {
            let grabbed = self.rt[sm].queues.pop_any(self.cfg.warp_size);
            self.charge_queue_overflow(sm, &vtq, grabbed.len());
            let mut ready = self.now;
            let mut lanes = Vec::with_capacity(grabbed.len());
            for (t, r) in grabbed {
                self.dequeue_hw(sm, t, 1);
                self.rays[r.index()].enter_treelet(self.bvh, t);
                ready = ready.max(self.fetch_ray_record(sm, r));
                lanes.push(Some(r));
            }
            let now = self.now;
            let n_rays = lanes.len();
            emit(&mut self.sink, &mut self.sink_events, || TraceEvent::GroupDispatch {
                cycle: now,
                sm,
                rays: n_rays,
            });
            self.note_mode(sm, TraversalMode::RayStationary);
            self.rt[sm].slots[slot] = Some(Warp {
                lanes,
                mode: TraversalMode::RayStationary,
                restrict: None,
                ready_at: ready,
                mem_ready_at: ready,
            });
            return true;
        }
        false
    }

    /// One lockstep step of the resident warp.
    fn step_warp(&mut self, sm: usize, slot: usize) {
        let mut warp = self.rt[sm].slots[slot].take().expect("step_warp requires a resident warp");
        let vtq = self.vtq;

        // Initial-phase divergence check (§3.2 ①): terminate the warp into
        // the treelet queues once lanes spread over too many treelets.
        if warp.mode == TraversalMode::Initial {
            if let Some(v) = vtq {
                let mut treelets = std::mem::take(&mut self.scratch_treelets);
                treelets.clear();
                for lane in warp.lanes.iter().flatten() {
                    if let Some(t) = self.rays[lane.index()].pending_treelet(self.bvh) {
                        if !treelets.contains(&t) {
                            treelets.push(t);
                        }
                    }
                }
                let diverged = treelets.len() > v.divergence_treelets;
                let n_treelets = treelets.len();
                self.scratch_treelets = treelets;
                if diverged {
                    let lanes: Vec<RayId> = warp.lanes.iter().flatten().copied().collect();
                    let now = self.now;
                    let n_rays = lanes.len();
                    emit(&mut self.sink, &mut self.sink_events, || TraceEvent::DivergenceSplit {
                        cycle: now,
                        sm,
                        treelets: n_treelets,
                        rays: n_rays,
                    });
                    for lane in lanes {
                        match self.rays[lane.index()].pending_treelet(self.bvh) {
                            Some(t) => self.enqueue(sm, t, lane),
                            None => self.complete_ray(lane, self.now),
                        }
                    }
                    self.charge_queue_overflow(sm, &v, warp.lanes.len());
                    return; // slot stays empty; acquire_work continues
                }
            }
        }

        // Warp repacking (§4.5): refill a drain-mode warp that has gone
        // under-occupied with new rays from the queues.
        if warp.mode == TraversalMode::RayStationary {
            if let Some(v) = vtq {
                let active = warp.lanes.iter().flatten().count();
                if v.repack_threshold > 0
                    && active > 0
                    && active < v.repack_threshold
                    && !self.rt[sm].queues.is_empty()
                {
                    let want = self.cfg.warp_size - active;
                    let grabbed = self.rt[sm].queues.pop_any(want);
                    if !grabbed.is_empty() {
                        self.stats.repack_events += 1;
                        self.stats.repacked_rays += grabbed.len() as u64;
                        let now = self.now;
                        let added = grabbed.len();
                        emit(&mut self.sink, &mut self.sink_events, || TraceEvent::Repack {
                            cycle: now,
                            sm,
                            added,
                        });
                        for (t, _) in &grabbed {
                            self.dequeue_hw(sm, *t, 1);
                        }
                        let mut fetch_done = self.now;
                        let mut it = grabbed.into_iter();
                        for lane in warp.lanes.iter_mut() {
                            if lane.is_none() {
                                if let Some((t, r)) = it.next() {
                                    self.rays[r.index()].enter_treelet(self.bvh, t);
                                    fetch_done = fetch_done.max(self.fetch_ray_record(sm, r));
                                    *lane = Some(r);
                                }
                            }
                        }
                        warp.ready_at = warp.ready_at.max(fetch_done);
                        if warp.ready_at > self.now {
                            warp.mem_ready_at = warp.ready_at;
                            self.rt[sm].slots[slot] = Some(warp);
                            return;
                        }
                    }
                }
            }
        }

        // Gather each active lane's next node (into pooled scratch so the
        // steady-state step allocates nothing).
        let mut visits = std::mem::take(&mut self.scratch_visits);
        visits.clear();
        let mut exits = std::mem::take(&mut self.scratch_exits);
        exits.clear();
        for (i, lane) in warp.lanes.iter_mut().enumerate() {
            let Some(rid) = *lane else { continue };
            match self.rays[rid.index()].next_node(self.bvh, warp.restrict) {
                NextNode::Visit(n) => visits.push((i, rid, n)),
                NextNode::ExitTreelet(t) => {
                    exits.push((t, rid));
                    *lane = None;
                }
                NextNode::Done => {
                    self.complete_ray(rid, self.now);
                    *lane = None;
                }
            }
        }

        for &(t, rid) in &exits {
            self.enqueue(sm, t, rid);
        }
        self.scratch_exits = exits;

        if visits.is_empty() {
            self.scratch_visits = visits;
            // Warp drained: treelet warps refill from their queue;
            // everything else retires the warp.
            if warp.mode == TraversalMode::TreeletStationary {
                if let (Some(v), Some(t)) = (vtq, warp.restrict) {
                    let rays = self.rt[sm].queues.pop_from(t, self.cfg.warp_size);
                    if !rays.is_empty() {
                        self.dequeue_hw(sm, t, rays.len());
                        self.charge_queue_overflow(sm, &v, rays.len());
                        let mut ready = self.now;
                        for r in &rays {
                            self.rays[r.index()].enter_treelet(self.bvh, t);
                            ready = ready.max(self.fetch_ray_record(sm, *r));
                        }
                        let now = self.now;
                        let n_rays = rays.len();
                        emit(&mut self.sink, &mut self.sink_events, || {
                            TraceEvent::TreeletDispatch { cycle: now, sm, treelet: t, rays: n_rays }
                        });
                        warp.lanes = rays.into_iter().map(Some).collect();
                        warp.ready_at = ready;
                        warp.mem_ready_at = ready;
                        self.rt[sm].slots[slot] = Some(warp);
                        self.maybe_preload(sm, &v);
                        return;
                    }
                    self.rt[sm].current_queue = None;
                }
            }
            let now = self.now;
            let mode = warp.mode;
            emit(&mut self.sink, &mut self.sink_events, || TraceEvent::WarpRetire {
                cycle: now,
                sm,
                mode,
            });
            return; // warp retires
        }

        // SIMT accounting (Figure 1b / 13b).
        self.stats.active_lane_steps += visits.len() as u64;
        self.stats.total_lane_steps += self.cfg.warp_size as u64;

        // Memory: fetch every distinct node record; warp advances when the
        // slowest lane's data arrives (lockstep).
        let mut completion = self.now;
        let mut fetched = std::mem::take(&mut self.scratch_fetched);
        fetched.clear();
        for &(_, _, n) in &visits {
            if !fetched.contains(&n) {
                fetched.push(n);
            }
        }
        for (k, n) in fetched.iter().enumerate() {
            let addr = self.bvh.addr(*n);
            self.track_prefetch_use(sm, addr.offset, addr.size);
            // Optional memory-scheduler serialization: the k-th distinct
            // fetch of this step issues k/rate cycles after the first.
            let issue_at = match self.cfg.rt_mem_issue_per_cycle {
                0 => self.now,
                rate => self.now + (k as u64) / rate as u64,
            };
            completion = completion.max(self.mem.access(
                sm,
                addr.offset,
                addr.size,
                AccessKind::Bvh,
                CachePolicy::L1AndL2,
                issue_at,
            ));
        }

        // Intersection (fixed-function) and stack updates.
        let mut tests = 0u64;
        for &(_, rid, n) in &visits {
            let cost = self.rays[rid.index()].visit(self.bvh, self.triangles, n);
            self.stats.box_tests += cost.box_tests as u64;
            self.stats.tri_tests += cost.tri_tests as u64;
            tests += (cost.box_tests + cost.tri_tests) as u64;
        }
        self.stats.add_mode_isect(warp.mode, tests);
        self.scratch_visits = visits;

        // A step whose slowest line arrives well past L1 latency indicates a
        // burst of misses serialized behind DRAM; surface it to the sink.
        let stall = completion.saturating_sub(self.now);
        if stall > self.cfg.mem.l1.latency as u64 {
            let now = self.now;
            let (mode, lines) = (warp.mode, fetched.len());
            emit(&mut self.sink, &mut self.sink_events, || TraceEvent::MissBurst {
                cycle: now,
                sm,
                mode,
                lines,
                stall,
            });
        }
        self.scratch_fetched = fetched;

        let ready = completion + self.cfg.isect_latency as u64;
        self.stats.add_mode_cycles(warp.mode, ready - self.now);
        self.sample_mode_cycles(self.now, warp.mode, ready - self.now);
        warp.ready_at = ready;
        warp.mem_ready_at = completion;
        self.rt[sm].slots[slot] = Some(warp);
    }

    // -- VTQ helpers ----------------------------------------------------------

    /// Loads treelet `t`'s bytes into the SM's L1 (missing lines only) as a
    /// controller bulk transfer; returns the completion cycle.
    fn load_treelet(&mut self, sm: usize, t: TreeletId) -> u64 {
        if self.rt[sm].preloaded == Some(t) {
            self.rt[sm].preloaded = None;
            // Already resident (bandwidth was charged at preload time).
            return self.now;
        }
        // The controller streams the whole treelet into the L1 (§4.2 ⑤);
        // lines already resident come back at cache latency, the rest pay
        // DRAM latency and bandwidth.
        let (start, end) = self.bvh.treelet_extent(t);
        self.mem.access(
            sm,
            start,
            (end - start).max(1) as u32,
            AccessKind::Prefetch,
            CachePolicy::L1AndL2,
            self.now,
        )
    }

    /// Preload the *next* treelet while the current queue drains (§4.3):
    /// triggered once the current queue is in its final warp.
    fn maybe_preload(&mut self, sm: usize, vtq: &VtqParams) {
        if !vtq.preload {
            return;
        }
        let Some(current) = self.rt[sm].current_queue else {
            return;
        };
        if self.rt[sm].queues.len_of(current) > self.cfg.warp_size {
            return; // more than one warp left; too early
        }
        // Find the largest other queue worth preloading.
        let candidate = self.rt[sm]
            .queues
            .largest()
            .filter(|(t, n)| *t != current && *n >= vtq.queue_threshold)
            .map(|(t, _)| t);
        let Some(t) = candidate else { return };
        if self.rt[sm].preloaded == Some(t) {
            return;
        }
        let (start, end) = self.bvh.treelet_extent(t);
        self.mem.access(
            sm,
            start,
            (end - start) as u32,
            AccessKind::Prefetch,
            CachePolicy::L1AndL2,
            self.now,
        );
        self.rt[sm].preloaded = Some(t);
    }

    /// Fetches one ray record from the reserved L2 region into the warp
    /// buffer; returns the completion cycle.
    fn fetch_ray_record(&mut self, sm: usize, r: RayId) -> u64 {
        self.mem.access(
            sm,
            ray_addr(self.cfg, r),
            self.cfg.ray_record_bytes,
            AccessKind::Ray,
            CachePolicy::RayReserve,
            self.now,
        )
    }

    /// Charges queue-table / count-table spill traffic when the hardware
    /// capacities are exceeded (§4.2, §6.5).
    fn charge_queue_overflow(&mut self, sm: usize, vtq: &VtqParams, ops: usize) {
        let over_rays = self.rt[sm].queues.overflow_rays(vtq.queue_table_entries);
        let over_queues = self.rt[sm].queues.overflow_queues(vtq.count_table_entries);
        if over_rays > 0 || over_queues > 0 {
            let lines = ops.max(1) as u32;
            self.mem.access(
                sm,
                QUEUE_REGION + sm as u64 * 0x10_0000,
                lines * self.cfg.mem.l1.line_bytes,
                AccessKind::QueueMeta,
                CachePolicy::BypassL1,
                self.now,
            );
        }
    }

    // -- TreeletPrefetch policy (Chou et al. [8]) -----------------------------

    /// Periodically prefetches the most popular pending treelet of the
    /// resident warp's rays.
    fn maybe_prefetch(&mut self, sm: usize) -> bool {
        if self.now < self.rt[sm].last_prefetch_at + self.cfg.prefetch_interval as u64 {
            return false;
        }
        let lanes: Vec<RayId> = self.rt[sm]
            .slots
            .iter()
            .flatten()
            .flat_map(|w| w.lanes.iter().flatten().copied())
            .collect();
        if lanes.is_empty() {
            return false;
        }
        // Vote: most common pending treelet.
        let mut votes: Vec<(TreeletId, usize)> = Vec::new();
        for r in lanes {
            if let Some(t) = self.rays[r.index()].pending_treelet(self.bvh) {
                match votes.iter_mut().find(|(vt, _)| *vt == t) {
                    Some((_, n)) => *n += 1,
                    None => votes.push((t, 1)),
                }
            }
        }
        let Some((t, _)) = votes.into_iter().max_by_key(|(t, n)| (*n, std::cmp::Reverse(t.0)))
        else {
            return false;
        };
        self.rt[sm].last_prefetch_at = self.now;
        let (start, end) = self.bvh.treelet_extent(t);
        let line = self.cfg.mem.l1.line_bytes as u64;
        let mut addr = start / line * line;
        let mut issued = false;
        while addr < end {
            if self.mem.missing_l1_lines(sm, addr, 1) > 0 {
                self.mem.access(sm, addr, 1, AccessKind::Prefetch, CachePolicy::L1AndL2, self.now);
                self.rt[sm].prefetched.insert(addr, false);
                self.stats.prefetch_lines += 1;
                issued = true;
            }
            addr += line;
        }
        if issued {
            self.stats.prefetches_issued += 1;
        }
        issued
    }

    /// Marks prefetched lines that are now demanded (usefulness stat).
    fn track_prefetch_use(&mut self, sm: usize, addr: u64, size: u32) {
        if !matches!(self.cfg.policy, TraversalPolicy::TreeletPrefetch) {
            return;
        }
        let line = self.cfg.mem.l1.line_bytes as u64;
        let first = addr / line * line;
        let mut a = first;
        while a < addr + size as u64 {
            if let Some(used) = self.rt[sm].prefetched.get_mut(&a) {
                if !*used {
                    *used = true;
                    self.stats.prefetch_lines_used += 1;
                }
            }
            a += line;
        }
    }

    // -- clock ----------------------------------------------------------------

    /// Earliest future event across CTAs and RT units.
    fn next_event(&self) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > self.now {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        if let Some(&Reverse((t, _))) = self.timers.peek() {
            consider(t);
        }
        if let Some(&Reverse((t, _))) = self.slot_release.peek() {
            consider(t);
        }
        for rt in &self.rt {
            for w in rt.slots.iter().flatten() {
                consider(w.ready_at);
            }
            if let Some((arrive, _)) = rt.incoming.front() {
                consider(*arrive);
            }
        }
        next
    }
}

fn ray_addr(cfg: &GpuConfig, r: RayId) -> u64 {
    RAY_REGION + r.0 as u64 * cfg.ray_record_bytes as u64
}

/// Stable checkpoint encoding of [`Phase`] (the enum itself is private).
fn phase_to_u8(p: Phase) -> u8 {
    match p {
        Phase::Pending => 0,
        Phase::Raygen => 1,
        Phase::WaitTraversal => 2,
        Phase::Suspended => 3,
        Phase::ReadyToResume => 4,
        Phase::Shade => 5,
        Phase::Done => 6,
    }
}

fn phase_from_u8(b: u8) -> Option<Phase> {
    Some(match b {
        0 => Phase::Pending,
        1 => Phase::Raygen,
        2 => Phase::WaitTraversal,
        3 => Phase::Suspended,
        4 => Phase::ReadyToResume,
        5 => Phase::Shade,
        6 => Phase::Done,
        _ => return None,
    })
}

fn mode_from_u8(b: u8) -> Option<TraversalMode> {
    TraversalMode::ALL.get(b as usize).copied()
}

/// Records an event when a sink is attached, bumping the engine's recorded
/// event counter (`counter` is checkpointed so a resumed traced run
/// continues the count). The closure defers event construction so untraced
/// runs pay nothing at the call sites.
#[inline]
fn emit(
    sink: &mut Option<&mut dyn TraceSink>,
    counter: &mut u64,
    make: impl FnOnce() -> TraceEvent,
) {
    if let Some(sink) = sink.as_deref_mut() {
        *counter += 1;
        let event = make();
        sink.record(&event);
    }
}
