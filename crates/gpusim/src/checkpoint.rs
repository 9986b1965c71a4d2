//! Versioned, bit-exact simulator checkpoints.
//!
//! A [`Checkpoint`] is a complete serialization of the engine's
//! architectural state at a quiescent point of the event-driven clock:
//! per-SM CTA slots and warp buffers, RT-unit treelet queues and the
//! hardware queue-table shadow, in-flight ray traversal stacks (every
//! `f32` as raw bits), the memory hierarchy (cache tags, MSHRs, the
//! fractional DRAM service-queue head, fault RNG), scheduler heaps, the
//! jitter RNG, accumulated statistics and trace-sink counters. Resuming
//! from a checkpoint with
//! [`Simulator::resume_from`](crate::Simulator::resume_from) produces a
//! final [`SimStats`] bit-identical to the uninterrupted run.
//!
//! The on-disk form ([`Checkpoint::to_jsonl`]) is flat JSONL in the same
//! dialect as [`export::snapshot_jsonl`](crate::export::snapshot_jsonl):
//! one record per line, scalar values only, lists as space-separated
//! strings, `a:b` pair tokens, `-` for `None`. A terminal `ckpt_end`
//! record guards against truncation; [`Checkpoint::from_jsonl`] returns a
//! typed [`FlatError`] for any corruption and never panics.

use std::fmt::Write as _;

use gpumem::{
    AccessKind, CacheSnapshot, CacheStats, KindStats, LineState, MemSnapshot, WindowPoint,
};

use crate::frames::{frame_lines, records, FlatError, FlatRecord};
use crate::hw_table::QueueTableStats;
use crate::observe::{SamplePoint, StallBreakdown, StallKind};
use crate::predict::PredictTableStats;
use crate::ray::{RayTraversalState, StackEntry};
use crate::{GpuConfig, SimStats};

/// Format version written into every checkpoint header; bumped on any
/// schema change so stale snapshots are rejected instead of misread.
/// Version 2 added the ray-path prediction table (per-unit buckets +
/// stats, per-ray `best_node`) and the predict counters in `ckpt_stats`.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Fingerprint of a [`GpuConfig`] (FNV-1a over its debug form), stored in
/// the checkpoint header so a resume against a different configuration is
/// rejected up front.
pub fn config_tag(cfg: &GpuConfig) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in format!("{cfg:?}").bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serialized CTA scheduling state (one per CTA).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CtaState {
    pub first_task: usize,
    pub task_count: usize,
    pub bounce: usize,
    /// Encoded phase: 0 Pending, 1 Raygen, 2 WaitTraversal, 3 Suspended,
    /// 4 ReadyToResume, 5 Shade, 6 Done.
    pub phase: u8,
    pub ready_at: u64,
    pub sm: usize,
    pub outstanding: usize,
    pub resume_queued: bool,
}

/// One in-flight ray: its traversal state plus scheduling metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RayState {
    pub traversal: RayTraversalState,
    pub cta: usize,
    pub task: usize,
    pub bounce: usize,
    pub sm: usize,
}

/// One occupied warp-buffer slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WarpState {
    pub lanes: Vec<Option<u32>>,
    /// [`TraversalMode::index`](crate::TraversalMode::index) of the mode.
    pub mode: u8,
    pub restrict: Option<u32>,
    pub ready_at: u64,
    pub mem_ready_at: u64,
}

/// Complete state of one SM's RT unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RtUnitState {
    /// `(arrival cycle, ray ids)` per issued-but-not-installed warp, in
    /// queue order.
    pub incoming: Vec<(u64, Vec<u32>)>,
    /// One entry per warp-buffer slot.
    pub slots: Vec<Option<WarpState>>,
    /// `(treelet, rays in FIFO order)`, ascending by treelet.
    pub queues: Vec<(u32, Vec<u32>)>,
    /// Cached queue-ray total, verbatim (may be skewed mid-sabotage).
    pub queue_total: usize,
    pub current_queue: Option<u32>,
    pub preloaded: Option<u32>,
    pub last_prefetch_at: u64,
    /// `(line addr, used)` usefulness markers, ascending by address.
    pub prefetched: Vec<(u64, bool)>,
    pub rays_in_flight: usize,
    /// Hardware queue-table buckets as `(tag, rays)`, in-bucket order
    /// preserved.
    pub hw_buckets: Vec<Vec<(u64, u32)>>,
    pub hw_live: u32,
    pub hw_stats: QueueTableStats,
    /// Prediction-table buckets as `(key, leaf)`, in-bucket insertion
    /// order preserved (it determines eviction behaviour).
    pub predict_buckets: Vec<Vec<(u64, u32)>>,
    pub predict_stats: PredictTableStats,
    /// Encoded [`TraversalMode`](crate::TraversalMode) of the last
    /// installed warp.
    pub last_mode: Option<u8>,
}

impl RtUnitState {
    fn empty() -> RtUnitState {
        RtUnitState {
            incoming: Vec::new(),
            slots: Vec::new(),
            queues: Vec::new(),
            queue_total: 0,
            current_queue: None,
            preloaded: None,
            last_prefetch_at: 0,
            prefetched: Vec::new(),
            rays_in_flight: 0,
            hw_buckets: Vec::new(),
            hw_live: 0,
            hw_stats: QueueTableStats::default(),
            predict_buckets: Vec::new(),
            predict_stats: PredictTableStats::default(),
            last_mode: None,
        }
    }
}

/// A complete, bit-exact snapshot of the engine's architectural state at
/// a quiescent cycle.
///
/// Produced by
/// [`Simulator::try_run_checkpointed`](crate::Simulator::try_run_checkpointed),
/// consumed by [`Simulator::resume_from`](crate::Simulator::resume_from),
/// persisted via [`Checkpoint::to_jsonl`] / [`Checkpoint::from_jsonl`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub(crate) version: u32,
    pub(crate) num_sms: usize,
    pub(crate) tasks: usize,
    pub(crate) total_rays: usize,
    pub(crate) config_tag: u64,
    pub(crate) now: u64,
    pub(crate) next_sm: usize,
    pub(crate) last_audit: u64,
    pub(crate) jitter_state: u64,
    pub(crate) sink_events: u64,
    pub(crate) sabotage: Option<(u64, i64)>,
    pub(crate) pending: Vec<usize>,
    /// CTA phase timers (possibly stale entries included), sorted
    /// ascending — heap pops always return the tuple minimum, so the
    /// multiset determines behaviour.
    pub(crate) timers: Vec<(u64, usize)>,
    /// Iteration order preserved exactly (`swap_remove` scanning).
    pub(crate) resume_ready: Vec<usize>,
    pub(crate) shader_active: Vec<usize>,
    pub(crate) reserved_rays: Vec<usize>,
    pub(crate) slot_release: Vec<(u64, usize)>,
    pub(crate) free_slots: Vec<usize>,
    pub(crate) last_progress: Vec<u64>,
    pub(crate) stats: SimStats,
    pub(crate) ctas: Vec<CtaState>,
    pub(crate) rays: Vec<RayState>,
    /// Per task, per trace call: `(t bits, prim)` or `None`.
    pub(crate) hits: Vec<Vec<Option<(u32, u32)>>>,
    pub(crate) rt: Vec<RtUnitState>,
    pub(crate) mem: MemSnapshot,
}

impl Checkpoint {
    /// The format version this checkpoint was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The simulated cycle the checkpoint was taken at.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// The config fingerprint recorded at capture (see [`config_tag`]).
    pub fn config_tag(&self) -> u64 {
        self.config_tag
    }

    /// Serializes to flat JSONL; inverse of [`Checkpoint::from_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let o = &mut out;
        let _ = writeln!(
            o,
            "{{\"record\":\"checkpoint\",\"version\":{},\"cycle\":{},\"num_sms\":{},\
             \"tasks\":{},\"total_rays\":{},\"config_tag\":{}}}",
            self.version, self.now, self.num_sms, self.tasks, self.total_rays, self.config_tag
        );
        let _ = writeln!(
            o,
            "{{\"record\":\"ckpt_engine\",\"next_sm\":{},\"last_audit\":{},\
             \"jitter_state\":{},\"sink_events\":{},\"sabotage\":\"{}\",\"pending\":\"{}\",\
             \"timers\":\"{}\",\"resume_ready\":\"{}\",\"shader_active\":\"{}\",\
             \"reserved_rays\":\"{}\",\"slot_release\":\"{}\",\"free_slots\":\"{}\",\
             \"last_progress\":\"{}\"}}",
            self.next_sm,
            self.last_audit,
            self.jitter_state,
            self.sink_events,
            match self.sabotage {
                Some((at, delta)) => format!("{at}:{delta}"),
                None => "-".to_string(),
            },
            join(self.pending.iter()),
            join_pairs(self.timers.iter().map(|&(t, i)| (t, i as u64))),
            join(self.resume_ready.iter()),
            join(self.shader_active.iter()),
            join(self.reserved_rays.iter()),
            join_pairs(self.slot_release.iter().map(|&(t, i)| (t, i as u64))),
            join(self.free_slots.iter()),
            join(self.last_progress.iter()),
        );
        let s = &self.stats;
        let _ = writeln!(
            o,
            "{{\"record\":\"ckpt_stats\",\"cycles\":{},\"active_lane_steps\":{},\
             \"total_lane_steps\":{},\"mode_cycles\":\"{}\",\"mode_isect_tests\":\"{}\",\
             \"box_tests\":{},\"tri_tests\":{},\"warps_issued\":{},\"repack_events\":{},\
             \"repacked_rays\":{},\"treelet_dispatches\":{},\"cta_suspends\":{},\
             \"cta_resumes\":{},\"cta_state_bytes\":{},\"peak_rays_in_flight\":{},\
             \"prefetches_issued\":{},\"prefetch_lines\":{},\"prefetch_lines_used\":{},\
             \"rays_completed\":{},\"queue_table_max_chain\":{},\
             \"queue_table_peak_entries\":{},\"queue_table_overflows\":{},\
             \"predict_lookups\":{},\"predict_hits\":{},\"predict_inserts\":{},\
             \"predict_evictions\":{}}}",
            s.cycles,
            s.active_lane_steps,
            s.total_lane_steps,
            join(s.mode_cycles.iter()),
            join(s.mode_isect_tests.iter()),
            s.box_tests,
            s.tri_tests,
            s.warps_issued,
            s.repack_events,
            s.repacked_rays,
            s.treelet_dispatches,
            s.cta_suspends,
            s.cta_resumes,
            s.cta_state_bytes,
            s.peak_rays_in_flight,
            s.prefetches_issued,
            s.prefetch_lines,
            s.prefetch_lines_used,
            s.rays_completed,
            s.queue_table_max_chain,
            s.queue_table_peak_entries,
            s.queue_table_overflows,
            s.predict_lookups,
            s.predict_hits,
            s.predict_inserts,
            s.predict_evictions,
        );
        for (sm, b) in s.stall.iter().enumerate() {
            let _ = writeln!(o, "{{\"record\":\"ckpt_stall\",\"sm\":{sm},{}}}", stall_fields(b));
        }
        for w in &s.series {
            let _ = writeln!(
                o,
                "{{\"record\":\"ckpt_series\",\"start_cycle\":{},\"covered_cycles\":{},\
                 \"ray_cycles\":{},\"occupied_slot_cycles\":{},\"mode_cycles\":\"{}\",{}}}",
                w.start_cycle,
                w.covered_cycles,
                w.ray_cycles,
                w.occupied_slot_cycles,
                join(w.mode_cycles.iter()),
                stall_fields(&w.stall),
            );
        }
        for (id, c) in self.ctas.iter().enumerate() {
            let _ = writeln!(
                o,
                "{{\"record\":\"ckpt_cta\",\"id\":{id},\"first_task\":{},\"task_count\":{},\
                 \"bounce\":{},\"phase\":{},\"ready_at\":{},\"sm\":{},\"outstanding\":{},\
                 \"resume_queued\":{}}}",
                c.first_task,
                c.task_count,
                c.bounce,
                c.phase,
                c.ready_at,
                c.sm,
                c.outstanding,
                c.resume_queued as u8,
            );
        }
        for r in &self.rays {
            let t = &r.traversal;
            let _ = writeln!(
                o,
                "{{\"record\":\"ckpt_ray\",\"id\":{},\"origin\":\"{}\",\"dir\":\"{}\",\
                 \"inv_dir\":\"{}\",\"treelet\":{},\"cur_stack\":\"{}\",\"tre_stack\":\"{}\",\
                 \"best\":\"{}\",\"best_node\":\"{}\",\"t_min\":{},\"t_max\":{},\"limit\":{},\
                 \"anyhit\":{},\"nodes\":{},\"cta\":{},\"task\":{},\"bounce\":{},\"sm\":{}}}",
                t.id,
                join(t.origin_bits.iter()),
                join(t.dir_bits.iter()),
                join(t.inv_dir_bits.iter()),
                t.current_treelet,
                join_pairs(t.current_stack.iter().map(|e| (e.node as u64, e.t_bits as u64))),
                join_pairs(t.treelet_stack.iter().map(|e| (e.node as u64, e.t_bits as u64))),
                opt_pair(t.best.map(|(a, b)| (a as u64, b as u64))),
                opt_tok(t.best_node),
                t.t_min_bits,
                t.t_max_bits,
                t.limit_bits,
                t.anyhit as u8,
                t.nodes_visited,
                r.cta,
                r.task,
                r.bounce,
                r.sm,
            );
        }
        for (task, calls) in self.hits.iter().enumerate() {
            let toks: Vec<String> =
                calls.iter().map(|h| opt_pair(h.map(|(a, b)| (a as u64, b as u64)))).collect();
            let _ = writeln!(
                o,
                "{{\"record\":\"ckpt_hits\",\"task\":{task},\"hits\":\"{}\"}}",
                toks.join(" ")
            );
        }
        for (sm, u) in self.rt.iter().enumerate() {
            let _ = writeln!(
                o,
                "{{\"record\":\"ckpt_rt\",\"sm\":{sm},\"current_queue\":\"{}\",\
                 \"preloaded\":\"{}\",\"last_prefetch_at\":{},\"rays_in_flight\":{},\
                 \"last_mode\":\"{}\",\"queue_total\":{},\"hw_live\":{},\"hw_max_chain\":{},\
                 \"hw_peak\":{},\"hw_overflows\":{},\"hw_inserts\":{},\"hw_buckets\":{},\
                 \"pt_lookups\":{},\"pt_hits\":{},\"pt_inserts\":{},\"pt_evictions\":{},\
                 \"pt_buckets\":{},\"slots\":{}}}",
                opt_tok(u.current_queue),
                opt_tok(u.preloaded),
                u.last_prefetch_at,
                u.rays_in_flight,
                opt_tok(u.last_mode),
                u.queue_total,
                u.hw_live,
                u.hw_stats.max_chain,
                u.hw_stats.peak_entries,
                u.hw_stats.overflows,
                u.hw_stats.inserts,
                u.hw_buckets.len(),
                u.predict_stats.lookups,
                u.predict_stats.hits,
                u.predict_stats.inserts,
                u.predict_stats.evictions,
                u.predict_buckets.len(),
                u.slots.len(),
            );
            for (arrive, rays) in &u.incoming {
                let _ = writeln!(
                    o,
                    "{{\"record\":\"ckpt_inc\",\"sm\":{sm},\"arrive\":{arrive},\
                     \"rays\":\"{}\"}}",
                    join(rays.iter())
                );
            }
            for (slot, w) in u.slots.iter().enumerate() {
                let Some(w) = w else { continue };
                let lanes: Vec<String> = w.lanes.iter().map(|l| opt_tok(*l)).collect();
                let _ = writeln!(
                    o,
                    "{{\"record\":\"ckpt_slot\",\"sm\":{sm},\"slot\":{slot},\
                     \"lanes\":\"{}\",\"mode\":{},\"restrict\":\"{}\",\"ready_at\":{},\
                     \"mem_ready_at\":{}}}",
                    lanes.join(" "),
                    w.mode,
                    opt_tok(w.restrict),
                    w.ready_at,
                    w.mem_ready_at,
                );
            }
            for (treelet, rays) in &u.queues {
                let _ = writeln!(
                    o,
                    "{{\"record\":\"ckpt_queue\",\"sm\":{sm},\"treelet\":{treelet},\
                     \"rays\":\"{}\"}}",
                    join(rays.iter())
                );
            }
            for (bucket, entries) in u.hw_buckets.iter().enumerate() {
                if entries.is_empty() {
                    continue;
                }
                let _ = writeln!(
                    o,
                    "{{\"record\":\"ckpt_hw\",\"sm\":{sm},\"bucket\":{bucket},\
                     \"entries\":\"{}\"}}",
                    join_pairs(entries.iter().map(|&(t, r)| (t, r as u64)))
                );
            }
            for (bucket, entries) in u.predict_buckets.iter().enumerate() {
                if entries.is_empty() {
                    continue;
                }
                let _ = writeln!(
                    o,
                    "{{\"record\":\"ckpt_pt\",\"sm\":{sm},\"bucket\":{bucket},\
                     \"entries\":\"{}\"}}",
                    join_pairs(entries.iter().map(|&(k, n)| (k, n as u64)))
                );
            }
            if !u.prefetched.is_empty() {
                let _ = writeln!(
                    o,
                    "{{\"record\":\"ckpt_pref\",\"sm\":{sm},\"lines\":\"{}\"}}",
                    join_pairs(u.prefetched.iter().map(|&(a, used)| (a, used as u64)))
                );
            }
        }
        let m = &self.mem;
        let _ = writeln!(
            o,
            "{{\"record\":\"ckpt_mem\",\"dram_free_at_bits\":{},\"fault_rng\":{}}}",
            m.dram_free_at_bits, m.fault_rng
        );
        for (sm, pool) in m.mshrs.iter().enumerate() {
            let _ = writeln!(
                o,
                "{{\"record\":\"ckpt_mshr\",\"sm\":{sm},\"free_at\":\"{}\"}}",
                join(pool.iter())
            );
        }
        for (kind, k) in m.per_kind.iter().enumerate() {
            let _ = writeln!(
                o,
                "{{\"record\":\"ckpt_kind\",\"kind\":{kind},\"lines\":{},\"l1_hits\":{},\
                 \"l2_hits\":{},\"dram\":{},\"l1_lookups\":{}}}",
                k.lines, k.l1_hits, k.l2_hits, k.dram, k.l1_lookups
            );
        }
        for w in &m.windows {
            let _ = writeln!(
                o,
                "{{\"record\":\"ckpt_memwin\",\"start_cycle\":{},\"accesses\":{},\
                 \"misses\":{}}}",
                w.start_cycle, w.accesses, w.misses
            );
        }
        for (name, cache) in self.caches() {
            let lines: Vec<String> = cache
                .lines
                .iter()
                .map(|l| format!("{}:{}:{}", l.tag, l.last_used, l.valid as u8))
                .collect();
            let _ = writeln!(
                o,
                "{{\"record\":\"ckpt_cache\",\"cache\":\"{name}\",\"accesses\":{},\
                 \"hits\":{},\"lines\":\"{}\"}}",
                cache.stats.accesses,
                cache.stats.hits,
                lines.join(" ")
            );
        }
        let _ = writeln!(o, "{{\"record\":\"ckpt_end\",\"cycle\":{}}}", self.now);
        // Integrity pass: every persisted line carries its CRC32 frame
        // so `from_jsonl` can reject torn writes and bit flips as typed
        // errors instead of mis-restoring state.
        frame_lines(out.lines())
    }

    fn caches(&self) -> Vec<(String, &CacheSnapshot)> {
        let mut v: Vec<(String, &CacheSnapshot)> =
            self.mem.l1s.iter().enumerate().map(|(i, c)| (format!("l1@{i}"), c)).collect();
        v.push(("l2".to_string(), &self.mem.l2));
        v.push(("ray".to_string(), &self.mem.ray_reserve));
        v
    }

    /// Parses a checkpoint written by [`Checkpoint::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`FlatError`] locating the first malformed line,
    /// missing field, geometry contradiction, or a missing terminal
    /// `ckpt_end` record (truncated file). Never panics.
    #[allow(clippy::too_many_lines)]
    pub fn from_jsonl(text: &str) -> Result<Checkpoint, FlatError> {
        let mut lines = records(text);
        let header = lines.next().ok_or_else(|| FlatError::new(0, "empty checkpoint"))??;
        let at = |r: String| FlatError::new(header.line(), r);
        if header.str("record")? != "checkpoint" {
            return Err(at("expected a `checkpoint` header record".to_string()));
        }
        let version = header.u64("version")? as u32;
        if version != CHECKPOINT_VERSION {
            return Err(at(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let num_sms = header.u64("num_sms")? as usize;
        let tasks = header.u64("tasks")? as usize;
        if num_sms == 0 || num_sms > 1 << 16 || tasks > 1 << 28 {
            return Err(at(format!("implausible geometry: {num_sms} SMs, {tasks} tasks")));
        }
        let mut ckpt = Checkpoint {
            version,
            num_sms,
            tasks,
            total_rays: header.u64("total_rays")? as usize,
            config_tag: header.u64("config_tag")?,
            now: header.u64("cycle")?,
            next_sm: 0,
            last_audit: 0,
            jitter_state: 1,
            sink_events: 0,
            sabotage: None,
            pending: Vec::new(),
            timers: Vec::new(),
            resume_ready: Vec::new(),
            shader_active: Vec::new(),
            reserved_rays: Vec::new(),
            slot_release: Vec::new(),
            free_slots: Vec::new(),
            last_progress: Vec::new(),
            stats: SimStats::default(),
            ctas: Vec::new(),
            rays: Vec::new(),
            hits: vec![Vec::new(); tasks],
            rt: (0..num_sms).map(|_| RtUnitState::empty()).collect(),
            mem: MemSnapshot {
                l1s: (0..num_sms)
                    .map(|_| CacheSnapshot { lines: Vec::new(), stats: CacheStats::default() })
                    .collect(),
                l2: CacheSnapshot { lines: Vec::new(), stats: CacheStats::default() },
                ray_reserve: CacheSnapshot { lines: Vec::new(), stats: CacheStats::default() },
                dram_free_at_bits: 0,
                mshrs: vec![Vec::new(); num_sms],
                per_kind: [KindStats::default(); AccessKind::ALL.len()],
                windows: Vec::new(),
                fault_rng: 1,
            },
        };
        let mut ended = false;
        for p in lines {
            let p = p?;
            let at = |r: String| FlatError::new(p.line(), r);
            if ended {
                return Err(at("data after `ckpt_end`".to_string()));
            }
            let u = |key: &str| p.u64(key);
            let sm_of = |key: &str| -> Result<usize, FlatError> {
                let sm = p.u64(key)? as usize;
                if sm >= num_sms {
                    return Err(
                        p.error(key, format!("SM index {sm} out of range (num_sms {num_sms})"))
                    );
                }
                Ok(sm)
            };
            match p.str("record")? {
                "ckpt_engine" => {
                    ckpt.next_sm = u("next_sm")? as usize;
                    ckpt.last_audit = u("last_audit")?;
                    ckpt.jitter_state = u("jitter_state")?;
                    ckpt.sink_events = u("sink_events")?;
                    ckpt.sabotage = p.str_with("sabotage", |tok| match tok {
                        "-" => Ok(None),
                        tok => {
                            let (a, d) = split_pair(tok)?;
                            let delta =
                                d.parse::<i64>().map_err(|_| format!("bad sabotage delta: {d}"))?;
                            Ok(Some((a, delta)))
                        }
                    })?;
                    ckpt.pending = p.str_with("pending", parse_list)?;
                    ckpt.timers = p
                        .str_with("timers", parse_pair_list)?
                        .into_iter()
                        .map(|(t, i)| (t, i as usize))
                        .collect();
                    ckpt.resume_ready = p.str_with("resume_ready", parse_list)?;
                    ckpt.shader_active = p.str_with("shader_active", parse_list)?;
                    ckpt.reserved_rays = p.str_with("reserved_rays", parse_list)?;
                    ckpt.slot_release = p
                        .str_with("slot_release", parse_pair_list)?
                        .into_iter()
                        .map(|(t, i)| (t, i as usize))
                        .collect();
                    ckpt.free_slots = p.str_with("free_slots", parse_list)?;
                    ckpt.last_progress = p.str_with("last_progress", parse_list)?;
                    for (name, len) in [
                        ("shader_active", ckpt.shader_active.len()),
                        ("reserved_rays", ckpt.reserved_rays.len()),
                        ("free_slots", ckpt.free_slots.len()),
                        ("last_progress", ckpt.last_progress.len()),
                    ] {
                        if len != num_sms {
                            return Err(at(format!(
                                "`{name}` has {len} entries, expected {num_sms}"
                            )));
                        }
                    }
                }
                "ckpt_stats" => {
                    let s = &mut ckpt.stats;
                    s.cycles = u("cycles")?;
                    s.active_lane_steps = u("active_lane_steps")?;
                    s.total_lane_steps = u("total_lane_steps")?;
                    s.mode_cycles = p.str_with("mode_cycles", parse_triple)?;
                    s.mode_isect_tests = p.str_with("mode_isect_tests", parse_triple)?;
                    s.box_tests = u("box_tests")?;
                    s.tri_tests = u("tri_tests")?;
                    s.warps_issued = u("warps_issued")?;
                    s.repack_events = u("repack_events")?;
                    s.repacked_rays = u("repacked_rays")?;
                    s.treelet_dispatches = u("treelet_dispatches")?;
                    s.cta_suspends = u("cta_suspends")?;
                    s.cta_resumes = u("cta_resumes")?;
                    s.cta_state_bytes = u("cta_state_bytes")?;
                    s.peak_rays_in_flight = u("peak_rays_in_flight")? as usize;
                    s.prefetches_issued = u("prefetches_issued")?;
                    s.prefetch_lines = u("prefetch_lines")?;
                    s.prefetch_lines_used = u("prefetch_lines_used")?;
                    s.rays_completed = u("rays_completed")?;
                    s.queue_table_max_chain = u("queue_table_max_chain")? as u32;
                    s.queue_table_peak_entries = u("queue_table_peak_entries")? as u32;
                    s.queue_table_overflows = u("queue_table_overflows")?;
                    s.predict_lookups = u("predict_lookups")?;
                    s.predict_hits = u("predict_hits")?;
                    s.predict_inserts = u("predict_inserts")?;
                    s.predict_evictions = u("predict_evictions")?;
                }
                "ckpt_stall" => {
                    let sm = u("sm")? as usize;
                    if ckpt.stats.stall.len() != sm {
                        return Err(at(format!(
                            "ckpt_stall records out of order: got sm {sm}, expected {}",
                            ckpt.stats.stall.len()
                        )));
                    }
                    ckpt.stats.stall.push(parse_stall(&p)?);
                }
                "ckpt_series" => {
                    ckpt.stats.series.push(SamplePoint {
                        start_cycle: u("start_cycle")?,
                        covered_cycles: u("covered_cycles")?,
                        ray_cycles: u("ray_cycles")?,
                        occupied_slot_cycles: u("occupied_slot_cycles")?,
                        mode_cycles: p.str_with("mode_cycles", parse_triple)?,
                        stall: parse_stall(&p)?,
                    });
                }
                "ckpt_cta" => {
                    let id = u("id")? as usize;
                    if ckpt.ctas.len() != id {
                        return Err(at(format!(
                            "ckpt_cta records out of order: got id {id}, expected {}",
                            ckpt.ctas.len()
                        )));
                    }
                    ckpt.ctas.push(CtaState {
                        first_task: u("first_task")? as usize,
                        task_count: u("task_count")? as usize,
                        bounce: u("bounce")? as usize,
                        phase: u("phase")? as u8,
                        ready_at: u("ready_at")?,
                        sm: sm_of("sm")?,
                        outstanding: u("outstanding")? as usize,
                        resume_queued: u("resume_queued")? != 0,
                    });
                }
                "ckpt_ray" => {
                    let stack = |key: &str| -> Result<Vec<StackEntry>, FlatError> {
                        Ok(p.str_with(key, parse_pair_list)?
                            .into_iter()
                            .map(|(n, b)| StackEntry { node: n as u32, t_bits: b as u32 })
                            .collect())
                    };
                    ckpt.rays.push(RayState {
                        traversal: RayTraversalState {
                            id: u("id")? as u32,
                            origin_bits: p.str_with("origin", parse_triple32)?,
                            dir_bits: p.str_with("dir", parse_triple32)?,
                            inv_dir_bits: p.str_with("inv_dir", parse_triple32)?,
                            current_treelet: u("treelet")? as u32,
                            current_stack: stack("cur_stack")?,
                            treelet_stack: stack("tre_stack")?,
                            best: p
                                .str_with("best", parse_opt_pair)?
                                .map(|(a, b)| (a as u32, b as u32)),
                            best_node: p.str_with("best_node", parse_opt_u64)?.map(|v| v as u32),
                            t_min_bits: u("t_min")? as u32,
                            t_max_bits: u("t_max")? as u32,
                            limit_bits: u("limit")? as u32,
                            anyhit: u("anyhit")? != 0,
                            nodes_visited: u("nodes")? as u32,
                        },
                        cta: u("cta")? as usize,
                        task: u("task")? as usize,
                        bounce: u("bounce")? as usize,
                        sm: sm_of("sm")?,
                    });
                }
                "ckpt_hits" => {
                    let task = u("task")? as usize;
                    if task >= tasks {
                        return Err(at(format!("task {task} out of range ({tasks} tasks)")));
                    }
                    ckpt.hits[task] = p.str_with("hits", |s| {
                        s.split_whitespace()
                            .map(|tok| {
                                parse_opt_pair(tok).map(|h| h.map(|(a, b)| (a as u32, b as u32)))
                            })
                            .collect()
                    })?;
                }
                "ckpt_rt" => {
                    let sm = sm_of("sm")?;
                    let unit = &mut ckpt.rt[sm];
                    unit.current_queue =
                        p.str_with("current_queue", parse_opt_u64)?.map(|v| v as u32);
                    unit.preloaded = p.str_with("preloaded", parse_opt_u64)?.map(|v| v as u32);
                    unit.last_prefetch_at = u("last_prefetch_at")?;
                    unit.rays_in_flight = u("rays_in_flight")? as usize;
                    unit.last_mode = p.str_with("last_mode", parse_opt_u64)?.map(|v| v as u8);
                    unit.queue_total = u("queue_total")? as usize;
                    unit.hw_live = u("hw_live")? as u32;
                    unit.hw_stats = QueueTableStats {
                        max_chain: u("hw_max_chain")? as u32,
                        peak_entries: u("hw_peak")? as u32,
                        overflows: u("hw_overflows")?,
                        inserts: u("hw_inserts")?,
                    };
                    unit.predict_stats = PredictTableStats {
                        lookups: u("pt_lookups")?,
                        hits: u("pt_hits")?,
                        inserts: u("pt_inserts")?,
                        evictions: u("pt_evictions")?,
                    };
                    let buckets = u("hw_buckets")? as usize;
                    let pt_buckets = u("pt_buckets")? as usize;
                    let slots = u("slots")? as usize;
                    if buckets > 1 << 24 || pt_buckets > 1 << 24 || slots > 1 << 16 {
                        return Err(at(format!(
                            "implausible RT-unit geometry: {buckets} buckets, \
                             {pt_buckets} predict buckets, {slots} slots"
                        )));
                    }
                    unit.hw_buckets = vec![Vec::new(); buckets];
                    unit.predict_buckets = vec![Vec::new(); pt_buckets];
                    unit.slots = vec![None; slots];
                }
                "ckpt_inc" => {
                    let sm = sm_of("sm")?;
                    let rays: Vec<u64> = p.str_with("rays", parse_list)?;
                    ckpt.rt[sm]
                        .incoming
                        .push((u("arrive")?, rays.into_iter().map(|r| r as u32).collect()));
                }
                "ckpt_slot" => {
                    let sm = sm_of("sm")?;
                    let slot = u("slot")? as usize;
                    if slot >= ckpt.rt[sm].slots.len() {
                        return Err(at(format!(
                            "slot {slot} out of range ({} slots; is ckpt_rt missing?)",
                            ckpt.rt[sm].slots.len()
                        )));
                    }
                    let lanes = p.str_with("lanes", |s| {
                        s.split_whitespace()
                            .map(|tok| parse_opt_u64(tok).map(|v| v.map(|v| v as u32)))
                            .collect()
                    })?;
                    ckpt.rt[sm].slots[slot] = Some(WarpState {
                        lanes,
                        mode: u("mode")? as u8,
                        restrict: p.str_with("restrict", parse_opt_u64)?.map(|v| v as u32),
                        ready_at: u("ready_at")?,
                        mem_ready_at: u("mem_ready_at")?,
                    });
                }
                "ckpt_queue" => {
                    let sm = sm_of("sm")?;
                    let rays: Vec<u64> = p.str_with("rays", parse_list)?;
                    ckpt.rt[sm]
                        .queues
                        .push((u("treelet")? as u32, rays.into_iter().map(|r| r as u32).collect()));
                }
                "ckpt_hw" => {
                    let sm = sm_of("sm")?;
                    let bucket = u("bucket")? as usize;
                    if bucket >= ckpt.rt[sm].hw_buckets.len() {
                        return Err(at(format!(
                            "bucket {bucket} out of range ({} buckets; is ckpt_rt missing?)",
                            ckpt.rt[sm].hw_buckets.len()
                        )));
                    }
                    ckpt.rt[sm].hw_buckets[bucket] = p
                        .str_with("entries", parse_pair_list)?
                        .into_iter()
                        .map(|(t, r)| (t, r as u32))
                        .collect();
                }
                "ckpt_pt" => {
                    let sm = sm_of("sm")?;
                    let bucket = u("bucket")? as usize;
                    if bucket >= ckpt.rt[sm].predict_buckets.len() {
                        return Err(at(format!(
                            "predict bucket {bucket} out of range ({} buckets; is ckpt_rt \
                             missing?)",
                            ckpt.rt[sm].predict_buckets.len()
                        )));
                    }
                    ckpt.rt[sm].predict_buckets[bucket] = p
                        .str_with("entries", parse_pair_list)?
                        .into_iter()
                        .map(|(k, n)| (k, n as u32))
                        .collect();
                }
                "ckpt_pref" => {
                    let sm = sm_of("sm")?;
                    ckpt.rt[sm].prefetched = p
                        .str_with("lines", parse_pair_list)?
                        .into_iter()
                        .map(|(a, used)| (a, used != 0))
                        .collect();
                }
                "ckpt_mem" => {
                    ckpt.mem.dram_free_at_bits = u("dram_free_at_bits")?;
                    ckpt.mem.fault_rng = u("fault_rng")?;
                }
                "ckpt_mshr" => {
                    let sm = sm_of("sm")?;
                    ckpt.mem.mshrs[sm] = p.str_with("free_at", parse_list)?;
                }
                "ckpt_kind" => {
                    let kind = u("kind")? as usize;
                    if kind >= ckpt.mem.per_kind.len() {
                        return Err(at(format!("access kind {kind} out of range")));
                    }
                    ckpt.mem.per_kind[kind] = KindStats {
                        lines: u("lines")?,
                        l1_hits: u("l1_hits")?,
                        l2_hits: u("l2_hits")?,
                        dram: u("dram")?,
                        l1_lookups: u("l1_lookups")?,
                    };
                }
                "ckpt_memwin" => {
                    ckpt.mem.windows.push(WindowPoint {
                        start_cycle: u("start_cycle")?,
                        accesses: u("accesses")?,
                        misses: u("misses")?,
                    });
                }
                "ckpt_cache" => {
                    let lines = p.str_with("lines", |s| {
                        s.split_whitespace().map(parse_line_state).collect()
                    })?;
                    let snap = CacheSnapshot {
                        lines,
                        stats: CacheStats { accesses: u("accesses")?, hits: u("hits")? },
                    };
                    match p.str("cache")? {
                        "l2" => ckpt.mem.l2 = snap,
                        "ray" => ckpt.mem.ray_reserve = snap,
                        name => {
                            match name.strip_prefix("l1@").and_then(|i| i.parse::<usize>().ok()) {
                                Some(i) if i < num_sms => ckpt.mem.l1s[i] = snap,
                                _ => return Err(at(format!("unknown cache `{name}`"))),
                            }
                        }
                    }
                }
                "ckpt_end" => {
                    if u("cycle")? != ckpt.now {
                        return Err(at("`ckpt_end` cycle disagrees with header".to_string()));
                    }
                    ended = true;
                }
                other => return Err(at(format!("unknown checkpoint record `{other}`"))),
            }
        }
        if !ended {
            return Err(FlatError::new(0, "truncated checkpoint: no `ckpt_end` record"));
        }
        if ckpt.stats.stall.len() != num_sms {
            return Err(FlatError::new(
                0,
                format!("{} ckpt_stall records, expected {num_sms}", ckpt.stats.stall.len()),
            ));
        }
        Ok(ckpt)
    }
}

fn stall_fields(b: &StallBreakdown) -> String {
    format!(
        "\"busy\":{},\"waiting_memory\":{},\"warp_buffer_empty\":{},\"queue_drained\":{},\
         \"idle\":{}",
        b.busy, b.waiting_memory, b.warp_buffer_empty, b.queue_drained, b.idle
    )
}

fn parse_stall(p: &FlatRecord) -> Result<StallBreakdown, FlatError> {
    let mut b = StallBreakdown::default();
    b.add(StallKind::Busy, p.u64("busy")?);
    b.add(StallKind::WaitingMemory, p.u64("waiting_memory")?);
    b.add(StallKind::WarpBufferEmpty, p.u64("warp_buffer_empty")?);
    b.add(StallKind::QueueDrained, p.u64("queue_drained")?);
    b.add(StallKind::Idle, p.u64("idle")?);
    Ok(b)
}

fn join<T: std::fmt::Display>(items: impl Iterator<Item = T>) -> String {
    items.map(|v| v.to_string()).collect::<Vec<_>>().join(" ")
}

fn join_pairs(items: impl Iterator<Item = (u64, u64)>) -> String {
    items.map(|(a, b)| format!("{a}:{b}")).collect::<Vec<_>>().join(" ")
}

fn opt_pair(v: Option<(u64, u64)>) -> String {
    match v {
        Some((a, b)) => format!("{a}:{b}"),
        None => "-".to_string(),
    }
}

fn opt_tok<T: std::fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    }
}

fn parse_list<T: TryFrom<u64>>(s: &str) -> Result<Vec<T>, String> {
    s.split_whitespace()
        .map(|tok| {
            let v: u64 = tok.parse().map_err(|_| format!("not an integer: {tok}"))?;
            T::try_from(v).map_err(|_| format!("out of range: {tok}"))
        })
        .collect()
}

fn split_pair(tok: &str) -> Result<(u64, &str), String> {
    let (a, b) = tok.split_once(':').ok_or_else(|| format!("malformed pair: {tok}"))?;
    let a = a.parse().map_err(|_| format!("not an integer: {a}"))?;
    Ok((a, b))
}

fn parse_pair(tok: &str) -> Result<(u64, u64), String> {
    let (a, b) = split_pair(tok)?;
    let b = b.parse().map_err(|_| format!("not an integer: {b}"))?;
    Ok((a, b))
}

fn parse_pair_list(s: &str) -> Result<Vec<(u64, u64)>, String> {
    s.split_whitespace().map(parse_pair).collect()
}

fn parse_opt_pair(tok: &str) -> Result<Option<(u64, u64)>, String> {
    match tok {
        "-" => Ok(None),
        tok => parse_pair(tok).map(Some),
    }
}

fn parse_opt_u64(tok: &str) -> Result<Option<u64>, String> {
    match tok {
        "-" => Ok(None),
        tok => tok.parse().map(Some).map_err(|_| format!("not an integer: {tok}")),
    }
}

fn parse_triple(s: &str) -> Result<[u64; 3], String> {
    let v: Vec<u64> = parse_list(s)?;
    v.try_into().map_err(|_| format!("expected 3 values, got: {s}"))
}

fn parse_triple32(s: &str) -> Result<[u32; 3], String> {
    let v: Vec<u32> = parse_list(s)?;
    v.try_into().map_err(|_| format!("expected 3 values, got: {s}"))
}

fn parse_line_state(tok: &str) -> Result<LineState, String> {
    let mut it = tok.splitn(3, ':');
    let mut next = || it.next().ok_or_else(|| format!("malformed cache line: {tok}"));
    let tag = next()?.parse().map_err(|_| format!("malformed cache line: {tok}"))?;
    let last_used = next()?.parse().map_err(|_| format!("malformed cache line: {tok}"))?;
    let valid = next()?.parse::<u8>().map_err(|_| format!("malformed cache line: {tok}"))? != 0;
    Ok(LineState { tag, last_used, valid })
}
