//! Observability: structured trace events, per-RT-unit stall attribution
//! and generalized time-series sampling.
//!
//! The simulator's aggregate counters ([`crate::SimStats`]) answer *what*
//! happened; this module answers *when* and *why*. Three mechanisms:
//!
//! 1. **Trace events** — the engine emits cycle-stamped [`TraceEvent`]s
//!    (CTA launch/suspend/resume, warp issue/retire, treelet dispatch,
//!    grouping, repacking, mode transitions, cache-miss bursts) into a
//!    [`TraceSink`]. When no sink is attached the event structs are never
//!    even constructed, so plain [`crate::Simulator::try_run`] pays nothing.
//! 2. **Stall attribution** — every simulated cycle of every RT unit is
//!    attributed to exactly one [`StallKind`] bucket of a
//!    [`StallBreakdown`]; per unit the buckets sum to the kernel's total
//!    cycles (an invariant the test suite asserts).
//! 3. **Time series** — interval-weighted samples ([`SamplePoint`]) of
//!    rays in flight, CTA-slot occupancy, per-mode activity and stall
//!    composition, bucketed into fixed windows
//!    ([`crate::GpuConfig::sample_window_cycles`]).
//!
//! All three are pure observation: they never feed back into timing, so a
//! traced run is cycle-identical to an untraced one.

use std::collections::VecDeque;

use rtbvh::TreeletId;

use crate::TraversalMode;

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// One structured, cycle-stamped event from the engine.
///
/// Events record scheduling decisions and memory behaviour; they carry ids
/// (CTA index, SM index, treelet id) rather than references so sinks can
/// buffer them past the simulation's lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A pending CTA was launched into a free slot on `sm`.
    CtaLaunch {
        /// Cycle of the event.
        cycle: u64,
        /// CTA index.
        cta: usize,
        /// SM the CTA was placed on.
        sm: usize,
    },
    /// A CTA issued its trace calls and suspended (ray virtualization).
    CtaSuspend {
        /// Cycle of the event.
        cycle: u64,
        /// CTA index.
        cta: usize,
        /// SM the CTA ran on.
        sm: usize,
        /// Rays the CTA handed to the RT unit this bounce.
        rays: usize,
    },
    /// A suspended CTA whose rays finished was resumed into a slot.
    CtaResume {
        /// Cycle of the event.
        cycle: u64,
        /// CTA index.
        cta: usize,
        /// SM the CTA resumed on.
        sm: usize,
    },
    /// A CTA finished its last bounce and retired.
    CtaRetire {
        /// Cycle of the event.
        cycle: u64,
        /// CTA index.
        cta: usize,
        /// SM the CTA retired from.
        sm: usize,
    },
    /// A shader warp of fresh trace calls was handed to the RT unit.
    WarpIssue {
        /// Cycle of the event.
        cycle: u64,
        /// Destination SM.
        sm: usize,
        /// Issuing CTA.
        cta: usize,
        /// Rays in the warp.
        rays: usize,
    },
    /// A warp drained (all lanes done or re-queued) and left its slot.
    WarpRetire {
        /// Cycle of the event.
        cycle: u64,
        /// SM of the warp.
        sm: usize,
        /// Traversal mode the warp ran in.
        mode: TraversalMode,
    },
    /// A treelet queue was dispatched as a treelet-stationary warp.
    TreeletDispatch {
        /// Cycle of the event.
        cycle: u64,
        /// SM of the dispatch.
        sm: usize,
        /// The dispatched treelet.
        treelet: TreeletId,
        /// Rays popped into the warp.
        rays: usize,
    },
    /// Underpopulated queues were grouped into a ray-stationary warp
    /// (§4.4).
    GroupDispatch {
        /// Cycle of the event.
        cycle: u64,
        /// SM of the dispatch.
        sm: usize,
        /// Rays gathered.
        rays: usize,
    },
    /// A drain-mode warp was repacked with queued rays (§4.5).
    Repack {
        /// Cycle of the event.
        cycle: u64,
        /// SM of the warp.
        sm: usize,
        /// Rays inserted into empty lanes.
        added: usize,
    },
    /// An initial-phase warp diverged over too many treelets and was
    /// terminated into the treelet queues (§3.2 ①).
    DivergenceSplit {
        /// Cycle of the event.
        cycle: u64,
        /// SM of the warp.
        sm: usize,
        /// Distinct treelets the lanes spread over.
        treelets: usize,
        /// Lanes enqueued or completed.
        rays: usize,
    },
    /// The RT unit's active traversal mode changed.
    ModeTransition {
        /// Cycle of the event.
        cycle: u64,
        /// SM of the transition.
        sm: usize,
        /// Previous mode (`None` at the first warp of the kernel).
        from: Option<TraversalMode>,
        /// New mode.
        to: TraversalMode,
    },
    /// A warp step's node fetches stalled past the L1 latency — at least
    /// one lane missed and the whole warp waits (lockstep).
    MissBurst {
        /// Cycle the fetches issued.
        cycle: u64,
        /// SM of the warp.
        sm: usize,
        /// Mode of the stalled warp.
        mode: TraversalMode,
        /// Distinct node records fetched.
        lines: usize,
        /// Cycles until the slowest line arrives.
        stall: u64,
    },
}

impl TraceEvent {
    /// The cycle the event is stamped with.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::CtaLaunch { cycle, .. }
            | TraceEvent::CtaSuspend { cycle, .. }
            | TraceEvent::CtaResume { cycle, .. }
            | TraceEvent::CtaRetire { cycle, .. }
            | TraceEvent::WarpIssue { cycle, .. }
            | TraceEvent::WarpRetire { cycle, .. }
            | TraceEvent::TreeletDispatch { cycle, .. }
            | TraceEvent::GroupDispatch { cycle, .. }
            | TraceEvent::Repack { cycle, .. }
            | TraceEvent::DivergenceSplit { cycle, .. }
            | TraceEvent::ModeTransition { cycle, .. }
            | TraceEvent::MissBurst { cycle, .. } => cycle,
        }
    }

    /// Short machine-readable tag (the `event` field of the JSONL export).
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::CtaLaunch { .. } => "cta_launch",
            TraceEvent::CtaSuspend { .. } => "cta_suspend",
            TraceEvent::CtaResume { .. } => "cta_resume",
            TraceEvent::CtaRetire { .. } => "cta_retire",
            TraceEvent::WarpIssue { .. } => "warp_issue",
            TraceEvent::WarpRetire { .. } => "warp_retire",
            TraceEvent::TreeletDispatch { .. } => "treelet_dispatch",
            TraceEvent::GroupDispatch { .. } => "group_dispatch",
            TraceEvent::Repack { .. } => "repack",
            TraceEvent::DivergenceSplit { .. } => "divergence_split",
            TraceEvent::ModeTransition { .. } => "mode_transition",
            TraceEvent::MissBurst { .. } => "miss_burst",
        }
    }
}

/// Receives trace events from the engine.
///
/// Implementations must be cheap: the engine calls [`TraceSink::record`]
/// from its hot loops. The engine only *constructs* events when a sink is
/// attached, so an unattached run pays neither allocation nor formatting.
pub trait TraceSink {
    /// Called once per event, in nondecreasing `cycle` order per SM (the
    /// global order interleaves SMs within a cycle deterministically).
    fn record(&mut self, event: &TraceEvent);
}

/// A bounded ring buffer of the most recent events.
///
/// When full, the oldest event is dropped and [`RingSink::dropped`]
/// incremented — tracing never aborts or reallocates unboundedly.
///
/// # Example
///
/// ```
/// use gpusim::{RingSink, TraceEvent, TraceSink};
/// let mut sink = RingSink::new(2);
/// for cycle in 0..3 {
///     sink.record(&TraceEvent::CtaLaunch { cycle, cta: 0, sm: 0 });
/// }
/// assert_eq!(sink.len(), 2);
/// assert_eq!(sink.dropped(), 1);
/// assert_eq!(sink.events().next().unwrap().cycle(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// Creates a sink holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> RingSink {
        RingSink { capacity: capacity.max(1), events: VecDeque::new(), dropped: 0 }
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(*event);
    }
}

/// A sink that counts events per tag without storing them — for overhead
/// measurements and smoke tests.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Total events seen.
    pub total: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, _event: &TraceEvent) {
        self.total += 1;
    }
}

// ---------------------------------------------------------------------------
// Stall attribution
// ---------------------------------------------------------------------------

/// What one RT unit was doing during one simulated cycle.
///
/// Classification of the unit's quiescent state (after the engine's
/// fixed-point iteration, before the clock advances):
///
/// * [`Busy`](StallKind::Busy) — a resident warp's memory arrived and its
///   fixed-function intersection step is executing.
/// * [`WaitingMemory`](StallKind::WaitingMemory) — warps are resident but
///   every one is waiting for node/ray data.
/// * [`WarpBufferEmpty`](StallKind::WarpBufferEmpty) — no resident warp,
///   but local work exists (queued rays or an in-flight shader hand-off):
///   the warp buffer starved while the queues accumulate.
/// * [`QueueDrained`](StallKind::QueueDrained) — no resident warp and no
///   queued rays, but a shader phase (raygen/shading) is running on this
///   SM: the unit drained everything and waits for the next trace call.
/// * [`Idle`](StallKind::Idle) — nothing resident, queued or upcoming on
///   this SM (kernel tail, or all work is on other SMs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Intersection pipeline executing.
    Busy,
    /// All resident warps waiting on memory.
    WaitingMemory,
    /// Warp buffer empty while local rays are queued or arriving.
    WarpBufferEmpty,
    /// Queues drained; waiting on shader phases to issue more rays.
    QueueDrained,
    /// No local work at all.
    Idle,
}

impl StallKind {
    /// All kinds, in report order.
    pub const ALL: [StallKind; 5] = [
        StallKind::Busy,
        StallKind::WaitingMemory,
        StallKind::WarpBufferEmpty,
        StallKind::QueueDrained,
        StallKind::Idle,
    ];

    /// Stable lowercase label (used by the CSV/JSON exports).
    pub fn label(self) -> &'static str {
        match self {
            StallKind::Busy => "busy",
            StallKind::WaitingMemory => "waiting_memory",
            StallKind::WarpBufferEmpty => "warp_buffer_empty",
            StallKind::QueueDrained => "queue_drained",
            StallKind::Idle => "idle",
        }
    }
}

impl std::fmt::Display for StallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycles of one RT unit attributed to each [`StallKind`].
///
/// Invariant (asserted by the test suite): after a run, `total()` equals
/// [`crate::SimStats::cycles`] for every unit — each simulated cycle lands
/// in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles with the intersection pipeline executing.
    pub busy: u64,
    /// Cycles with all resident warps waiting on memory.
    pub waiting_memory: u64,
    /// Cycles starved with local rays queued or arriving.
    pub warp_buffer_empty: u64,
    /// Cycles drained, waiting on shader phases.
    pub queue_drained: u64,
    /// Cycles with no local work.
    pub idle: u64,
}

impl StallBreakdown {
    /// Adds `cycles` to the bucket of `kind`.
    pub fn add(&mut self, kind: StallKind, cycles: u64) {
        *self.bucket_mut(kind) += cycles;
    }

    /// Cycles attributed to `kind`.
    pub fn get(&self, kind: StallKind) -> u64 {
        match kind {
            StallKind::Busy => self.busy,
            StallKind::WaitingMemory => self.waiting_memory,
            StallKind::WarpBufferEmpty => self.warp_buffer_empty,
            StallKind::QueueDrained => self.queue_drained,
            StallKind::Idle => self.idle,
        }
    }

    fn bucket_mut(&mut self, kind: StallKind) -> &mut u64 {
        match kind {
            StallKind::Busy => &mut self.busy,
            StallKind::WaitingMemory => &mut self.waiting_memory,
            StallKind::WarpBufferEmpty => &mut self.warp_buffer_empty,
            StallKind::QueueDrained => &mut self.queue_drained,
            StallKind::Idle => &mut self.idle,
        }
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        StallKind::ALL.iter().map(|k| self.get(*k)).sum()
    }

    /// Fraction of the total in `kind`, or `None` when nothing was
    /// attributed yet.
    pub fn fraction(&self, kind: StallKind) -> Option<f64> {
        match self.total() {
            0 => None,
            t => Some(self.get(kind) as f64 / t as f64),
        }
    }

    /// Accumulates `other` into `self` (saturating).
    pub fn merge(&mut self, other: &StallBreakdown) {
        for kind in StallKind::ALL {
            *self.bucket_mut(kind) = self.get(kind).saturating_add(other.get(kind));
        }
    }
}

// ---------------------------------------------------------------------------
// Time series
// ---------------------------------------------------------------------------

/// One fixed-width window of the simulator's time series.
///
/// Quantities are *cycle integrals* over the window: divide by
/// [`SamplePoint::covered_cycles`] for time-weighted means (windows at the
/// kernel tail may be partially covered).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplePoint {
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Simulated cycles of this window actually covered by the run.
    pub covered_cycles: u64,
    /// Integral of total rays in flight (all RT units) over the window.
    pub ray_cycles: u64,
    /// Integral of occupied CTA slots (all SMs) over the window.
    pub occupied_slot_cycles: u64,
    /// RT-unit busy cycles attributed to each traversal mode, for steps
    /// that *began* in this window (initial, treelet, ray order).
    pub mode_cycles: [u64; 3],
    /// Stall attribution summed over all RT units for this window.
    pub stall: StallBreakdown,
}

impl SamplePoint {
    /// Time-weighted mean rays in flight, or `None` for an uncovered
    /// window.
    pub fn mean_rays_in_flight(&self) -> Option<f64> {
        match self.covered_cycles {
            0 => None,
            c => Some(self.ray_cycles as f64 / c as f64),
        }
    }

    /// Time-weighted mean occupied CTA slots, or `None` for an uncovered
    /// window.
    pub fn mean_occupied_slots(&self) -> Option<f64> {
        match self.covered_cycles {
            0 => None,
            c => Some(self.occupied_slot_cycles as f64 / c as f64),
        }
    }

    /// Accumulates `other` (a window with the same `start_cycle` from
    /// another run) into `self`, saturating every integral.
    pub fn merge(&mut self, other: &SamplePoint) {
        debug_assert_eq!(self.start_cycle, other.start_cycle);
        self.covered_cycles = self.covered_cycles.max(other.covered_cycles);
        self.ray_cycles = self.ray_cycles.saturating_add(other.ray_cycles);
        self.occupied_slot_cycles =
            self.occupied_slot_cycles.saturating_add(other.occupied_slot_cycles);
        for (a, b) in self.mode_cycles.iter_mut().zip(other.mode_cycles) {
            *a = a.saturating_add(b);
        }
        self.stall.merge(&other.stall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sink_bounds_and_drops() {
        let mut sink = RingSink::new(3);
        assert!(sink.is_empty());
        for cycle in 0..10 {
            sink.record(&TraceEvent::WarpRetire { cycle, sm: 0, mode: TraversalMode::Initial });
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 7);
        let cycles: Vec<u64> = sink.events().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_ring_clamps_to_one() {
        let mut sink = RingSink::new(0);
        sink.record(&TraceEvent::CtaLaunch { cycle: 1, cta: 0, sm: 0 });
        sink.record(&TraceEvent::CtaLaunch { cycle: 2, cta: 1, sm: 0 });
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn stall_breakdown_buckets_and_total() {
        let mut s = StallBreakdown::default();
        s.add(StallKind::Busy, 10);
        s.add(StallKind::WaitingMemory, 30);
        s.add(StallKind::Idle, 60);
        assert_eq!(s.total(), 100);
        assert_eq!(s.get(StallKind::WaitingMemory), 30);
        assert_eq!(s.fraction(StallKind::Idle), Some(0.6));
        assert_eq!(StallBreakdown::default().fraction(StallKind::Busy), None);
    }

    #[test]
    fn stall_breakdown_merge_saturates() {
        let mut a = StallBreakdown { busy: u64::MAX - 1, ..Default::default() };
        let b = StallBreakdown { busy: 5, idle: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.busy, u64::MAX);
        assert_eq!(a.idle, 2);
    }

    #[test]
    fn sample_point_means() {
        let p = SamplePoint {
            start_cycle: 0,
            covered_cycles: 100,
            ray_cycles: 250,
            occupied_slot_cycles: 400,
            ..Default::default()
        };
        assert_eq!(p.mean_rays_in_flight(), Some(2.5));
        assert_eq!(p.mean_occupied_slots(), Some(4.0));
        assert_eq!(SamplePoint::default().mean_rays_in_flight(), None);
    }

    #[test]
    fn event_tags_and_cycles() {
        let e = TraceEvent::TreeletDispatch { cycle: 42, sm: 1, treelet: TreeletId(7), rays: 32 };
        assert_eq!(e.tag(), "treelet_dispatch");
        assert_eq!(e.cycle(), 42);
        assert_eq!(StallKind::WaitingMemory.to_string(), "waiting_memory");
    }
}
