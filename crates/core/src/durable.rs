//! Durable sweeps: cooperative cancellation, a crash-tolerant cell
//! journal, and minimal-reproducer shrinking for failed cells.
//!
//! Three pieces, designed to compose with [`SweepEngine`](crate::sweep):
//!
//! * **Cancellation** — a process-global flag ([`request_cancel`]) that a
//!   SIGINT handler can set (it is async-signal-safe: a single atomic
//!   store). The engine checks it before starting each cell, so in-flight
//!   cells drain and unstarted ones are journaled as `interrupted`.
//! * **[`SweepJournal`]** — an append-only `journal.jsonl` of cell
//!   dispositions keyed by a stable cell key (command scope + wave +
//!   index + label + config fingerprint). Re-running with the journal in
//!   *resume* mode skips every cell already journaled `done`, so a killed
//!   sweep continues where it left off instead of starting over.
//! * **Shrinking** — [`shrink_workload`] delta-debugs a failing ray
//!   stream down to a minimal reproducer, and [`Repro`] serializes that
//!   reproducer (scene provenance + exact config + bit-exact rays) to a
//!   JSONL file that `vtq-bench repro` replays.

use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gpusim::frames::{frame_line, frame_lines, quote, records, FlatError, FlatRecord};
use gpusim::{
    AuditMode, GpuConfig, PathTask, Sabotage, SimError, SimReport, Simulator, TraceCall,
    TraversalPolicy, VtqParams, Workload,
};
use rtbvh::{Bvh, BvhConfig};
use rtmath::Ray;
use rtscene::lumibench::{self, SceneId};

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

static CANCEL: AtomicBool = AtomicBool::new(false);

/// Requests cooperative cancellation of in-progress sweeps. Safe to call
/// from a signal handler: it performs a single atomic store and nothing
/// else.
pub fn request_cancel() {
    CANCEL.store(true, Ordering::SeqCst);
}

/// Whether cancellation has been requested (and not since reset).
pub fn cancel_requested() -> bool {
    CANCEL.load(Ordering::SeqCst)
}

/// Clears a pending cancellation request (tests and multi-phase drivers).
pub fn reset_cancel() {
    CANCEL.store(false, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Per-job cancellation tokens with deadlines
// ---------------------------------------------------------------------------

/// Sentinel for "no deadline" in [`CancelToken`]'s atomic deadline slot.
const NO_DEADLINE: u64 = u64::MAX;

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    /// The token's birth instant; the deadline is stored as nanoseconds
    /// after it so the whole token stays lock-free.
    epoch: Instant,
    /// Nanoseconds after `epoch` at which the token auto-cancels;
    /// [`NO_DEADLINE`] when unset.
    deadline_ns: AtomicU64,
}

/// A clonable, per-job cooperative cancellation token with an optional
/// deadline.
///
/// Unlike the process-global [`request_cancel`] flag (which a SIGINT
/// handler sets to drain *everything*), a token scopes cancellation to
/// one job: the sweep engine checks its token (if attached via
/// [`SweepEngine::with_cancel`](crate::sweep::SweepEngine::with_cancel))
/// at every cell boundary, so a cancelled or deadline-expired job stops
/// cleanly — in-flight cells drain, unstarted cells journal
/// `interrupted` — without disturbing other jobs sharing the process.
///
/// Checking is a relaxed atomic load plus (with a deadline armed) one
/// monotonic-clock read; safe to call at any frequency.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh token: not cancelled, no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                epoch: Instant::now(),
                deadline_ns: AtomicU64::new(NO_DEADLINE),
            }),
        }
    }

    /// A token that auto-cancels `deadline` from now.
    pub fn with_deadline(deadline: Duration) -> CancelToken {
        let token = CancelToken::new();
        token.set_deadline(deadline);
        token
    }

    /// Arms (or re-arms) the deadline at `deadline` from now.
    pub fn set_deadline(&self, deadline: Duration) {
        let from_epoch = self.inner.epoch.elapsed().saturating_add(deadline);
        let ns = u64::try_from(from_epoch.as_nanos()).unwrap_or(NO_DEADLINE - 1);
        self.inner.deadline_ns.store(ns.min(NO_DEADLINE - 1), Ordering::SeqCst);
    }

    /// Cancels the token explicitly. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// `true` once [`cancel`](Self::cancel) was called or the deadline
    /// passed.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        let deadline = self.inner.deadline_ns.load(Ordering::SeqCst);
        deadline != NO_DEADLINE && self.inner.epoch.elapsed().as_nanos() as u64 >= deadline
    }

    /// `true` when the token is cancelled *because its deadline passed*
    /// (distinguishes "expired" from "cancelled by request" in job
    /// status reporting). An explicit cancel takes precedence.
    pub fn deadline_expired(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return false;
        }
        let deadline = self.inner.deadline_ns.load(Ordering::SeqCst);
        deadline != NO_DEADLINE && self.inner.epoch.elapsed().as_nanos() as u64 >= deadline
    }

    /// Time remaining until the deadline; `None` without one, zero when
    /// already past.
    pub fn remaining(&self) -> Option<Duration> {
        let deadline = self.inner.deadline_ns.load(Ordering::SeqCst);
        if deadline == NO_DEADLINE {
            return None;
        }
        let elapsed = self.inner.epoch.elapsed().as_nanos() as u64;
        Some(Duration::from_nanos(deadline.saturating_sub(elapsed)))
    }
}

// ---------------------------------------------------------------------------
// Crash-tolerant sweep journal
// ---------------------------------------------------------------------------

/// File name of the journal inside a sweep's output directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Final disposition of one sweep cell, as journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellDisposition {
    /// The cell ran to completion; resume skips it.
    Done,
    /// The cell panicked (or its payload was a typed failure the caller
    /// chose to journal as failed); resume re-runs it.
    Failed,
    /// Cancellation arrived before the cell started; resume re-runs it.
    Interrupted,
    /// The cell was retried with a doubled budget (satellite record, not
    /// a final disposition); resume re-runs it unless a later `done`
    /// record exists.
    Retry,
}

impl CellDisposition {
    /// Stable status string used in the journal.
    pub fn label(self) -> &'static str {
        match self {
            CellDisposition::Done => "done",
            CellDisposition::Failed => "failed",
            CellDisposition::Interrupted => "interrupted",
            CellDisposition::Retry => "retry",
        }
    }
}

#[derive(Debug)]
struct JournalInner {
    file: BufWriter<File>,
    done: HashSet<String>,
    /// Records since the last `sync_data` (see [`JOURNAL_SYNC_EVERY`]).
    unsynced: u32,
}

/// Every record is flushed to the OS immediately; every this-many
/// records the journal additionally `sync_data`s so a power loss (not
/// just a process kill) bounds the lost suffix.
const JOURNAL_SYNC_EVERY: u32 = 8;

/// Append-only journal of sweep-cell dispositions, one flat-JSON record
/// per line (checksum-framed via [`frame_line`]), flushed
/// after every write so a `kill -9` loses at most the cell that was in
/// flight, and fsynced every few records so power loss is bounded too.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    inner: Mutex<JournalInner>,
    /// Writes that failed and were dropped (full disk, revoked
    /// permissions): the sweep survives, but resume data is incomplete —
    /// see [`note_drop`](Self::note_drop).
    drops: AtomicU64,
    /// Bytes cut from a corrupt/torn tail at [`resume`](Self::resume)
    /// time (`None` when the journal was intact).
    truncated: Option<u64>,
}

impl SweepJournal {
    /// Starts a fresh journal at `dir/journal.jsonl`, truncating any
    /// previous one. Used for clean (non-resumed) runs so stale `done`
    /// records can never mask re-execution.
    pub fn start(dir: &Path) -> io::Result<SweepJournal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let file = File::create(&path)?;
        let journal = SweepJournal {
            path,
            inner: Mutex::new(JournalInner {
                file: BufWriter::new(file),
                done: HashSet::new(),
                unsynced: 0,
            }),
            drops: AtomicU64::new(0),
            truncated: None,
        };
        journal.session_header("start")?;
        Ok(journal)
    }

    /// Opens `dir/journal.jsonl` for appending and loads the set of cells
    /// already journaled `done`, which [`completed`](Self::completed)
    /// then reports so the engine can skip them.
    ///
    /// Recovery policy: the journal is valid up to the first torn or
    /// corrupt line (a record missing its newline, not one complete
    /// [`FlatRecord`] passing its checksum, or a `cell` record whose
    /// key/status cannot be parsed). Everything from that line on is
    /// physically truncated — with a forensic warning on stderr — so the
    /// affected cells simply re-run: exactly-once is preserved because
    /// their superseded records no longer exist. Legacy journals without
    /// checksums remain accepted.
    pub fn resume(dir: &Path) -> io::Result<SweepJournal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut done = HashSet::new();
        let mut truncated = None;
        match File::open(&path) {
            Ok(mut f) => {
                let mut text = String::new();
                f.read_to_string(&mut text)?;
                let (good_end, complaint) = scan_journal(&text, &mut done);
                if good_end < text.len() {
                    let cut = (text.len() - good_end) as u64;
                    eprintln!(
                        "vtq: journal {}: {} — truncating {cut} corrupt/torn tail byte(s); \
                         affected cells will re-run",
                        path.display(),
                        complaint.as_deref().unwrap_or("torn tail"),
                    );
                    let fixup = OpenOptions::new().write(true).open(&path)?;
                    fixup.set_len(good_end as u64)?;
                    fixup.sync_data()?;
                    truncated = Some(cut);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let journal = SweepJournal {
            path,
            inner: Mutex::new(JournalInner { file: BufWriter::new(file), done, unsynced: 0 }),
            drops: AtomicU64::new(0),
            truncated,
        };
        journal.session_header("resume")?;
        Ok(journal)
    }

    /// Bytes truncated from a corrupt/torn tail when this journal was
    /// [`resume`](Self::resume)d; `None` if the journal was intact (or
    /// freshly [`start`](Self::start)ed).
    pub fn truncated_tail(&self) -> Option<u64> {
        self.truncated
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether `key` was journaled `done` (in a prior session, or earlier
    /// in this one).
    pub fn completed(&self, key: &str) -> bool {
        self.inner.lock().unwrap().done.contains(key)
    }

    /// Number of distinct cells journaled `done`.
    pub fn completed_count(&self) -> usize {
        self.inner.lock().unwrap().done.len()
    }

    /// Records that one journal write failed and its record was dropped.
    /// Callers that swallow a [`record`](Self::record) error (a full disk
    /// must not kill a sweep) call this so the loss stays *visible*: the
    /// CLI surfaces a nonzero count in the end-of-run summary and on the
    /// interrupted-exit path instead of silently losing durability.
    pub fn note_drop(&self) {
        self.drops.fetch_add(1, Ordering::Relaxed);
    }

    /// How many journal writes were dropped (see [`note_drop`](Self::note_drop)).
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Appends one checksum-framed cell record, flushes it, and
    /// `sync_data`s every `JOURNAL_SYNC_EVERY` records. Faults from
    /// the [`crate::diskfault`] shim land here when armed.
    pub fn record(
        &self,
        key: &str,
        disposition: CellDisposition,
        retries: u32,
        detail: &str,
    ) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        let line = format!(
            "{{\"record\":\"cell\",\"key\":{},\"status\":\"{}\",\"retries\":{},\"detail\":{}}}",
            quote(key),
            disposition.label(),
            retries,
            quote(detail),
        );
        let framed = format!("{}\n", frame_line(&line));
        crate::diskfault::guarded_write(&mut inner.file, framed.as_bytes())?;
        inner.file.flush()?;
        inner.unsynced += 1;
        if inner.unsynced >= JOURNAL_SYNC_EVERY {
            inner.file.get_ref().sync_data()?;
            inner.unsynced = 0;
        }
        if disposition == CellDisposition::Done {
            inner.done.insert(key.to_string());
        }
        Ok(())
    }

    fn session_header(&self, mode: &str) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        // The shared provenance header precedes the journal's own
        // session record. A journal spans a whole run matrix, so it has
        // no single config fingerprint or seed; resume() skips both
        // lines (it only replays "cell" records).
        let line = frame_lines([
            crate::provenance::provenance_line(None, None),
            format!("{{\"record\":\"journal\",\"version\":1,\"mode\":{}}}", quote(mode)),
        ]);
        inner.file.write_all(line.as_bytes())?;
        inner.file.flush()?;
        inner.file.get_ref().sync_data()
    }
}

/// Scans journal `text` line by line, accumulating `done` keys, and
/// returns the byte offset of the end of the last fully-valid line plus
/// a description of what stopped the scan (if anything did). A line is
/// valid when it is newline-terminated and one complete flat record that
/// passes its checksum frame, and — for `cell` records — has a string key
/// and status.
fn scan_journal(text: &str, done: &mut HashSet<String>) -> (usize, Option<String>) {
    let mut good_end = 0usize;
    for raw in text.split_inclusive('\n') {
        if !raw.ends_with('\n') {
            return (good_end, Some("record missing trailing newline (torn write)".to_string()));
        }
        let line = raw.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            good_end += raw.len();
            continue;
        }
        let rec = match FlatRecord::parse(line) {
            Ok(rec) => rec,
            Err(e) => return (good_end, Some(e.to_string())),
        };
        if rec.opt_str("record") == Ok(Some("cell")) {
            let (Ok(key), Ok(status)) = (rec.str("key"), rec.str("status")) else {
                return (good_end, Some("cell record with unparseable key/status".to_string()));
            };
            if status == CellDisposition::Done.label() {
                done.insert(key.to_string());
            }
        }
        good_end += raw.len();
    }
    (good_end, None)
}

// ---------------------------------------------------------------------------
// Delta-debugging shrinker
// ---------------------------------------------------------------------------

/// Result of [`shrink_workload`].
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized workload (equal to the input if it never failed).
    pub workload: Workload,
    /// How many times the failure oracle ran.
    pub oracle_calls: usize,
}

/// Shrinks `workload` to a (locally) minimal sub-workload for which
/// `still_fails` returns true, using ddmin over the task list followed by
/// per-task bounce-prefix truncation.
///
/// Only *prefixes* of each task's ray chain are tried — later bounces of
/// a path depend on earlier ones, so an arbitrary subset would not be a
/// semantically honest reproducer. If the oracle does not fail on the
/// input workload, the input is returned unchanged.
pub fn shrink_workload(
    workload: &Workload,
    still_fails: &mut dyn FnMut(&Workload) -> bool,
) -> ShrinkOutcome {
    let mut calls = 0usize;
    calls += 1;
    if !still_fails(workload) {
        return ShrinkOutcome { workload: workload.clone(), oracle_calls: calls };
    }

    // Stage 1: classic ddmin over the task list. Try removing each
    // chunk-complement; on success restart at coarse granularity, else
    // refine until chunks are single tasks.
    let mut tasks = workload.tasks.clone();
    let mut n = 2usize;
    while tasks.len() >= 2 && n <= tasks.len() {
        let chunk = tasks.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < tasks.len() {
            let end = (start + chunk).min(tasks.len());
            if end - start == tasks.len() {
                break; // removing everything is not a reproducer
            }
            let mut candidate: Vec<PathTask> = Vec::with_capacity(tasks.len() - (end - start));
            candidate.extend_from_slice(&tasks[..start]);
            candidate.extend_from_slice(&tasks[end..]);
            let w = Workload { tasks: candidate };
            calls += 1;
            if still_fails(&w) {
                tasks = w.tasks;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= tasks.len() {
                break;
            }
            n = (n * 2).min(tasks.len());
        }
    }

    // Stage 2: shorten each surviving task's bounce chain, greedily
    // popping trailing rays while the failure persists.
    for i in 0..tasks.len() {
        while tasks[i].rays.len() > 1 {
            let mut candidate = tasks.clone();
            candidate[i].rays.pop();
            let w = Workload { tasks: candidate };
            calls += 1;
            if still_fails(&w) {
                tasks = w.tasks;
            } else {
                break;
            }
        }
    }

    ShrinkOutcome { workload: Workload { tasks }, oracle_calls: calls }
}

// ---------------------------------------------------------------------------
// Replayable reproducers
// ---------------------------------------------------------------------------

/// Version of the reproducer JSONL format.
pub const REPRO_VERSION: u32 = 1;

/// A self-contained, replayable reproducer for one simulation failure:
/// scene provenance, the exact (representable) GPU configuration, an
/// optional sabotage schedule, and the minimized ray stream with
/// bit-exact `f32` payloads.
#[derive(Debug, Clone)]
pub struct Repro {
    /// Scene the failing cell ran on.
    pub scene: SceneId,
    /// Geometry detail divisor passed to `lumibench::build_scaled`.
    pub detail_divisor: u32,
    /// Treelet byte budget of the BVH build (all other [`BvhConfig`]
    /// fields must be at their defaults; enforced by [`Repro::for_cell`]).
    pub treelet_bytes: u32,
    /// Exact GPU configuration of the failing run.
    pub gpu: GpuConfig,
    /// Scheduled state corruption, for auditor-sabotage reproducers.
    pub sabotage: Option<Sabotage>,
    /// [`SimError::kind`] the reproducer is expected to hit on replay.
    pub error_kind: String,
    /// The minimized ray stream.
    pub workload: Workload,
}

/// The GPU presets a reproducer can be expressed against. Overridable
/// fields on top of a preset: SM count, memory faults, cycle budget,
/// audit mode, scheduler jitter and the traversal policy.
const GPU_BASES: [&str; 2] = ["table1", "scale_model"];

fn gpu_base_config(name: &str) -> Option<GpuConfig> {
    match name {
        "table1" => Some(GpuConfig::default()),
        "scale_model" => Some(GpuConfig::scale_model()),
        _ => None,
    }
}

/// Copies the serializable override fields of `gpu` onto `base`.
fn apply_gpu_overrides(mut base: GpuConfig, gpu: &GpuConfig) -> GpuConfig {
    base.mem.num_sms = gpu.mem.num_sms;
    base.mem.faults = gpu.mem.faults;
    base.max_cycles = gpu.max_cycles;
    base.audit = gpu.audit;
    base.sched_jitter_cycles = gpu.sched_jitter_cycles;
    base.sched_jitter_seed = gpu.sched_jitter_seed;
    base.policy = gpu.policy;
    base
}

/// Finds the preset that, with the supported overrides applied, rebuilds
/// `gpu` exactly (checked with `PartialEq`, so round-tripping is correct
/// by construction). `None` means the config is not representable.
fn gpu_base_of(gpu: &GpuConfig) -> Option<&'static str> {
    GPU_BASES
        .into_iter()
        .find(|name| apply_gpu_overrides(gpu_base_config(name).unwrap(), gpu) == *gpu)
}

impl Repro {
    /// Builds a reproducer after verifying it round-trips: the GPU config
    /// must be a known preset plus supported overrides, and the BVH
    /// config must be default apart from `treelet_bytes`. Returns a
    /// human-readable reason when the cell is not representable.
    pub fn for_cell(
        scene: SceneId,
        detail_divisor: u32,
        bvh: &BvhConfig,
        gpu: &GpuConfig,
        sabotage: Option<Sabotage>,
        error_kind: &str,
        workload: Workload,
    ) -> Result<Repro, String> {
        if gpu_base_of(gpu).is_none() {
            return Err("gpu config is not a known preset plus supported overrides; \
                 cannot serialize a faithful reproducer"
                .to_string());
        }
        if (BvhConfig { treelet_bytes: bvh.treelet_bytes, ..Default::default() }) != *bvh {
            return Err("bvh config deviates from defaults beyond treelet_bytes; \
                 cannot serialize a faithful reproducer"
                .to_string());
        }
        Ok(Repro {
            scene,
            detail_divisor,
            treelet_bytes: bvh.treelet_bytes,
            gpu: *gpu,
            sabotage,
            error_kind: error_kind.to_string(),
            workload,
        })
    }

    /// Total rays in the reproducer's workload.
    pub fn total_rays(&self) -> usize {
        self.workload.total_rays()
    }

    /// Serializes the reproducer as JSONL: a header record, one
    /// `repro_task` record per path task (rays as bit-exact `f32` words),
    /// and a terminal `repro_end` record for truncation detection.
    pub fn to_jsonl(&self) -> String {
        let base = gpu_base_of(&self.gpu).expect("Repro::for_cell verified representability");
        let f = &self.gpu.mem.faults;
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"record\":\"repro\",\"version\":{},\"scene\":\"{}\",\"detail_divisor\":{},\
             \"treelet_bytes\":{},\"gpu_base\":\"{}\",\"num_sms\":{},\"max_cycles\":\"{}\",\
             \"audit\":\"{}\",\"jitter\":\"{}:{}\",\"faults\":\"{}:{}:{}:{}\",\
             \"policy\":\"{}\",\"vtq\":\"{}\",\"sabotage\":\"{}\",\"error_kind\":{},\
             \"tasks\":{}}}\n",
            REPRO_VERSION,
            self.scene.name(),
            self.detail_divisor,
            self.treelet_bytes,
            base,
            self.gpu.mem.num_sms,
            match self.gpu.max_cycles {
                Some(c) => c.to_string(),
                None => "-".to_string(),
            },
            match self.gpu.audit {
                AuditMode::Auto => "auto".to_string(),
                AuditMode::Off => "off".to_string(),
                AuditMode::Every(n) => format!("every:{n}"),
            },
            self.gpu.sched_jitter_cycles,
            self.gpu.sched_jitter_seed,
            f.spike_per_mille,
            f.spike_extra_cycles,
            f.bandwidth_divisor,
            f.seed,
            self.gpu.policy.label(),
            match self.gpu.policy {
                TraversalPolicy::Vtq(v) => format!(
                    "{}:{}:{}:{}:{}:{}:{}:{}:{}",
                    v.max_virtual_rays,
                    v.divergence_treelets,
                    v.queue_threshold,
                    v.repack_threshold,
                    v.preload as u8,
                    v.group_underpopulated as u8,
                    v.charge_virtualization as u8,
                    v.count_table_entries,
                    v.queue_table_entries,
                ),
                _ => "-".to_string(),
            },
            match self.sabotage {
                Some(s) => format!("{}:{}", s.at_cycle, s.queue_total_delta),
                None => "-".to_string(),
            },
            quote(&self.error_kind),
            self.workload.tasks.len(),
        ));
        for task in &self.workload.tasks {
            let rays: Vec<String> = task.rays.iter().map(ray_blob).collect();
            out.push_str(&format!(
                "{{\"record\":\"repro_task\",\"rays\":\"{}\"}}\n",
                rays.join(" ")
            ));
        }
        out.push_str("{\"record\":\"repro_end\"}\n");
        out
    }

    /// Parses a reproducer serialized by [`to_jsonl`](Self::to_jsonl).
    ///
    /// # Errors
    ///
    /// The first malformed line or field, a version skew, or a
    /// truncated file.
    pub fn from_jsonl(text: &str) -> Result<Repro, FlatError> {
        let mut lines = records(text);
        let h = lines.next().ok_or_else(|| FlatError::new(0, "empty reproducer file"))??;
        if h.opt_str("record")? != Some("repro") {
            return Err(h.error("record", "first record is not a `repro` header"));
        }
        let u32_of = |key: &str| {
            u32::try_from(h.u64(key)?).map_err(|_| h.error(key, format!("`{key}` out of range")))
        };
        let version = u32_of("version")?;
        if version != REPRO_VERSION {
            return Err(h.error(
                "version",
                format!("unsupported reproducer version {version} (expected {REPRO_VERSION})"),
            ));
        }

        let scene = h.str_with("scene", |name| {
            SceneId::ALL_WITH_EXTRAS
                .into_iter()
                .find(|s| s.name() == name)
                .ok_or_else(|| format!("unknown scene `{name}`"))
        })?;
        let detail_divisor = u32_of("detail_divisor")?;
        let treelet_bytes = u32_of("treelet_bytes")?;

        let mut gpu = h.str_with("gpu_base", |name| {
            gpu_base_config(name).ok_or_else(|| format!("unknown gpu base `{name}`"))
        })?;
        gpu.mem.num_sms = h.u64("num_sms")? as usize;
        gpu.max_cycles = h.str_with("max_cycles", |c| match c {
            "-" => Ok(None),
            c => c.parse().map(Some).map_err(|_| format!("bad max_cycles `{c}`")),
        })?;
        gpu.audit = h.str_with("audit", |a| match a {
            "auto" => Ok(AuditMode::Auto),
            "off" => Ok(AuditMode::Off),
            other => other
                .strip_prefix("every:")
                .and_then(|n| n.parse().ok())
                .map(AuditMode::Every)
                .ok_or_else(|| format!("bad audit mode `{other}`")),
        })?;
        (gpu.sched_jitter_cycles, gpu.sched_jitter_seed) = h.str_with("jitter", |j| {
            let [c, s] = colon_fields(j)?;
            Ok((num(c)?, num(s)?))
        })?;
        let f = &mut gpu.mem.faults;
        (f.spike_per_mille, f.spike_extra_cycles, f.bandwidth_divisor, f.seed) =
            h.str_with("faults", |faults| {
                let [spike, extra, divisor, seed] = colon_fields(faults)?;
                Ok((num(spike)?, num(extra)?, num(divisor)?, num(seed)?))
            })?;

        let vtq = h.str("vtq")?;
        gpu.policy = h.str_with("policy", |policy| match policy {
            "baseline" => Ok(TraversalPolicy::Baseline),
            "prefetch" => Ok(TraversalPolicy::TreeletPrefetch),
            "vtq" => {
                let t: [&str; 9] = colon_fields(vtq)?;
                Ok(TraversalPolicy::Vtq(VtqParams {
                    max_virtual_rays: num(t[0])?,
                    divergence_treelets: num(t[1])?,
                    queue_threshold: num(t[2])?,
                    repack_threshold: num(t[3])?,
                    preload: t[4] == "1",
                    group_underpopulated: t[5] == "1",
                    charge_virtualization: t[6] == "1",
                    count_table_entries: num(t[7])?,
                    queue_table_entries: num(t[8])?,
                }))
            }
            other => Err(format!("unknown policy `{other}`")),
        })?;

        let sabotage = h.str_with("sabotage", |s| {
            if s == "-" {
                return Ok(None);
            }
            let [at_cycle, delta] = colon_fields(s)?;
            Ok(Some(Sabotage { at_cycle: num(at_cycle)?, queue_total_delta: num(delta)? }))
        })?;
        let error_kind = h.str("error_kind")?.to_string();
        let task_count = h.u64("tasks")? as usize;

        let mut tasks = Vec::new();
        let mut ended = false;
        for rec in lines {
            let rec = rec?;
            match rec.opt_str("record")? {
                Some("repro_task") if !ended => {
                    let rays = rec.str_with("rays", |blob| {
                        blob.split_whitespace()
                            .map(|tok| {
                                parse_ray_blob(tok).ok_or_else(|| format!("bad ray `{tok}`"))
                            })
                            .collect()
                    })?;
                    tasks.push(PathTask { rays });
                }
                Some("repro_task") => return Err(rec.error("record", "data after `repro_end`")),
                Some("repro_end") => ended = true,
                other => return Err(rec.error("record", format!("unexpected record {other:?}"))),
            }
        }
        if !ended {
            return Err(FlatError::new(0, "truncated reproducer: no `repro_end` record"));
        }
        if tasks.len() != task_count {
            return Err(FlatError::new(
                0,
                format!("header declared {task_count} tasks but {} records followed", tasks.len()),
            ));
        }

        Ok(Repro {
            scene,
            detail_divisor,
            treelet_bytes,
            gpu,
            sabotage,
            error_kind,
            workload: Workload { tasks },
        })
    }

    /// Rebuilds the scene and BVH from the recorded provenance and
    /// re-runs the minimized workload (with the recorded sabotage, if
    /// any). A faithful reproducer returns the journaled failure as
    /// `Err`; `Ok` means the failure no longer reproduces.
    pub fn replay(&self) -> Result<SimReport, SimError> {
        let scene = lumibench::build_scaled(self.scene, self.detail_divisor);
        let bvh = Bvh::build(
            scene.triangles(),
            &BvhConfig { treelet_bytes: self.treelet_bytes, ..Default::default() },
        );
        let sim = Simulator::new(&bvh, scene.triangles(), self.gpu);
        match self.sabotage {
            Some(s) => sim.try_run_sabotaged(&self.workload, s),
            None => sim.try_run(&self.workload),
        }
    }
}

/// Splits `s` into exactly `N` colon-separated tokens.
fn colon_fields<const N: usize>(s: &str) -> Result<[&str; N], String> {
    let tokens: Vec<&str> = s.split(':').collect();
    tokens.try_into().map_err(|_| format!("expected {N} `:`-separated values in `{s}`"))
}

fn num<T: std::str::FromStr>(token: &str) -> Result<T, String> {
    token.parse().map_err(|_| format!("bad number `{token}`"))
}

/// One ray as eleven colon-separated tokens: origin, direction and
/// cached inverse direction as `f32` bit patterns, then `t_max` bits and
/// the any-hit flag. Bit patterns make the round trip exact for every
/// value, NaN and negative zero included.
fn ray_blob(call: &TraceCall) -> String {
    let r = &call.ray;
    format!(
        "{}:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}",
        r.origin.x.to_bits(),
        r.origin.y.to_bits(),
        r.origin.z.to_bits(),
        r.dir.x.to_bits(),
        r.dir.y.to_bits(),
        r.dir.z.to_bits(),
        r.inv_dir.x.to_bits(),
        r.inv_dir.y.to_bits(),
        r.inv_dir.z.to_bits(),
        call.t_max.to_bits(),
        call.anyhit as u8,
    )
}

fn parse_ray_blob(tok: &str) -> Option<TraceCall> {
    let words: [&str; 11] = colon_fields(tok).ok()?;
    let mut bits = [0u32; 10];
    for (slot, word) in bits.iter_mut().zip(&words[..10]) {
        *slot = word.parse().ok()?;
    }
    let f = |i: usize| f32::from_bits(bits[i]);
    let mut ray =
        Ray::new(rtmath::Vec3::new(f(0), f(1), f(2)), rtmath::Vec3::new(f(3), f(4), f(5)));
    // Restore the cached inverse exactly as recorded rather than trusting
    // the reconstruction — bit-exactness must not depend on `recip()`.
    ray.inv_dir = rtmath::Vec3::new(f(6), f(7), f(8));
    let anyhit = match words[10] {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    Some(TraceCall { ray, t_max: f32::from_bits(bits[9]), anyhit })
}

// ---------------------------------------------------------------------------
// High-level shrink driver
// ---------------------------------------------------------------------------

/// Result of [`shrink_failure`]: the reproducer plus shrink telemetry.
#[derive(Debug, Clone)]
pub struct ShrinkReport {
    /// The serialized-ready reproducer.
    pub repro: Repro,
    /// Ray count of the original failing workload.
    pub original_rays: usize,
    /// Ray count after shrinking.
    pub shrunk_rays: usize,
    /// Oracle invocations the shrink spent.
    pub oracle_calls: usize,
}

impl fmt::Display for ShrinkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shrunk {} -> {} rays ({} oracle calls) for `{}` on {}",
            self.original_rays,
            self.shrunk_rays,
            self.oracle_calls,
            self.repro.error_kind,
            self.repro.scene.name(),
        )
    }
}

/// Shrinks a failing cell to a minimal reproducer: rebuilds the scene
/// and BVH from provenance, delta-debugs the workload against "same
/// [`SimError::kind`] as `expected_kind`", and packages the result as a
/// [`Repro`]. Errors if the failure does not reproduce under the oracle
/// or the configuration is not serializable.
pub fn shrink_failure(
    scene: SceneId,
    detail_divisor: u32,
    bvh_cfg: &BvhConfig,
    gpu: &GpuConfig,
    sabotage: Option<Sabotage>,
    workload: &Workload,
    expected_kind: &str,
) -> Result<ShrinkReport, String> {
    // Fail fast on unserializable cells before paying for scene builds.
    Repro::for_cell(
        scene,
        detail_divisor,
        bvh_cfg,
        gpu,
        sabotage,
        expected_kind,
        Workload::default(),
    )?;

    let built = lumibench::build_scaled(scene, detail_divisor);
    let bvh = Bvh::build(built.triangles(), bvh_cfg);
    let sim = Simulator::new(&bvh, built.triangles(), *gpu);
    let mut oracle = |w: &Workload| {
        let run = match sabotage {
            Some(s) => sim.try_run_sabotaged(w, s),
            None => sim.try_run(w),
        };
        matches!(run, Err(ref e) if e.kind() == expected_kind)
    };
    if !oracle(workload) {
        return Err(format!(
            "failure of kind `{expected_kind}` does not reproduce on the original workload; \
             nothing to shrink"
        ));
    }

    let outcome = shrink_workload(workload, &mut oracle);
    let repro = Repro::for_cell(
        scene,
        detail_divisor,
        bvh_cfg,
        gpu,
        sabotage,
        expected_kind,
        outcome.workload,
    )?;
    Ok(ShrinkReport {
        original_rays: workload.total_rays(),
        shrunk_rays: repro.total_rays(),
        oracle_calls: outcome.oracle_calls + 1,
        repro,
    })
}

/// Serializes tests that touch the process-global cancel flag (the sweep
/// engine's cancellation test lives in another module).
#[cfg(test)]
pub(crate) static CANCEL_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_flag_round_trips() {
        let _guard = CANCEL_TEST_LOCK.lock().unwrap();
        reset_cancel();
        assert!(!cancel_requested());
        request_cancel();
        assert!(cancel_requested());
        reset_cancel();
        assert!(!cancel_requested());
    }

    #[test]
    fn journal_start_truncates_and_resume_loads_done() {
        let dir = std::env::temp_dir().join(format!("vtq-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let j = SweepJournal::start(&dir).expect("start");
        j.record("a/0", CellDisposition::Done, 0, "").unwrap();
        j.record("a/1", CellDisposition::Failed, 1, "boom, with a comma").unwrap();
        j.record("a/2", CellDisposition::Interrupted, 0, "").unwrap();
        assert!(j.completed("a/0"));
        assert!(!j.completed("a/1"));
        drop(j);

        let j = SweepJournal::resume(&dir).expect("resume");
        assert!(j.completed("a/0"), "done cell survives restart");
        assert!(!j.completed("a/1"), "failed cell is re-run");
        assert!(!j.completed("a/2"), "interrupted cell is re-run");
        assert_eq!(j.completed_count(), 1);
        j.record("a/1", CellDisposition::Done, 0, "").unwrap();
        drop(j);

        // A torn trailing line (hard kill mid-write) is skipped, not fatal.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(dir.join(JOURNAL_FILE)).unwrap();
            write!(f, "{{\"record\":\"cell\",\"key\":\"a/2\",\"sta").unwrap();
        }
        let j = SweepJournal::resume(&dir).expect("resume over torn tail");
        assert_eq!(j.completed_count(), 2);
        assert!(j.completed("a/0") && j.completed("a/1"));
        drop(j);

        let fresh = SweepJournal::start(&dir).expect("fresh start truncates");
        assert_eq!(fresh.completed_count(), 0, "start() must not resume");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn one_ray_task(seed: u32) -> PathTask {
        let ray =
            Ray::new(rtmath::Vec3::new(seed as f32, 0.0, 0.0), rtmath::Vec3::new(0.0, 0.0, 1.0));
        PathTask { rays: vec![TraceCall::closest(ray)] }
    }

    #[test]
    fn ddmin_finds_a_single_culprit_task() {
        let tasks: Vec<PathTask> = (0..64).map(one_ray_task).collect();
        let workload = Workload { tasks };
        // Failure iff task with origin.x == 37 is present.
        let mut oracle = |w: &Workload| {
            w.tasks.iter().any(|t| t.rays[0].ray.origin.x.to_bits() == 37f32.to_bits())
        };
        let out = shrink_workload(&workload, &mut oracle);
        assert_eq!(out.workload.tasks.len(), 1, "ddmin should isolate the culprit");
        assert_eq!(out.workload.tasks[0].rays[0].ray.origin.x, 37.0);
        assert!(out.oracle_calls > 1);
    }

    #[test]
    fn ddmin_handles_coupled_culprits_and_prefix_truncation() {
        // Failure needs BOTH task 3 and task 50 present, and only the
        // first ray of each matters.
        let tasks: Vec<PathTask> = (0..64)
            .map(|i| {
                let mut t = one_ray_task(i);
                t.rays.push(TraceCall::closest(Ray::new(
                    rtmath::Vec3::new(0.0, i as f32, 0.0),
                    rtmath::Vec3::new(1.0, 0.0, 0.0),
                )));
                t
            })
            .collect();
        let workload = Workload { tasks };
        let has = |w: &Workload, x: f32| {
            w.tasks.iter().any(|t| t.rays.first().map(|r| r.ray.origin.x == x).unwrap_or(false))
        };
        let mut oracle = |w: &Workload| has(w, 3.0) && has(w, 50.0);
        let out = shrink_workload(&workload, &mut oracle);
        assert_eq!(out.workload.tasks.len(), 2);
        assert!(out.workload.tasks.iter().all(|t| t.rays.len() == 1), "bounce chains truncated");
    }

    #[test]
    fn non_failing_workload_is_returned_unchanged() {
        let workload = Workload { tasks: (0..8).map(one_ray_task).collect() };
        let out = shrink_workload(&workload, &mut |_| false);
        assert_eq!(out.workload.tasks.len(), 8);
        assert_eq!(out.oracle_calls, 1);
    }

    #[test]
    fn repro_round_trips_bit_exactly() {
        let mut gpu = GpuConfig::scale_model().with_policy(TraversalPolicy::Vtq(VtqParams {
            max_virtual_rays: 48,
            ..Default::default()
        }));
        gpu.mem.num_sms = 2;
        gpu.max_cycles = Some(123_456);
        gpu.audit = AuditMode::Every(512);
        gpu.sched_jitter_cycles = 3;
        gpu.sched_jitter_seed = 99;
        gpu.mem.faults.spike_per_mille = 7;
        gpu.mem.faults.seed = 0xDEAD;

        // Exercise NaN / negative-zero payloads to prove bit-exactness.
        let mut weird = Ray::new(
            rtmath::Vec3::new(-0.0, 1.5e-40, f32::INFINITY),
            rtmath::Vec3::new(1.0, -2.0, 0.5),
        );
        weird.inv_dir.y = f32::from_bits(0x7fc0_1234); // payload NaN
        let workload = Workload {
            tasks: vec![
                PathTask { rays: vec![TraceCall { ray: weird, t_max: f32::MAX, anyhit: true }] },
                one_ray_task(5),
            ],
        };

        let repro = Repro::for_cell(
            SceneId::Ship,
            16,
            &BvhConfig { treelet_bytes: 1024, ..Default::default() },
            &gpu,
            Some(Sabotage { at_cycle: 777, queue_total_delta: -4 }),
            "invariant",
            workload,
        )
        .expect("representable");

        let text = repro.to_jsonl();
        let back = Repro::from_jsonl(&text).expect("parse own output");
        assert_eq!(back.scene, repro.scene);
        assert_eq!(back.detail_divisor, repro.detail_divisor);
        assert_eq!(back.treelet_bytes, repro.treelet_bytes);
        assert_eq!(back.gpu, repro.gpu, "gpu config must round-trip exactly");
        assert_eq!(back.error_kind, "invariant");
        let s = back.sabotage.expect("sabotage survives");
        assert_eq!((s.at_cycle, s.queue_total_delta), (777, -4));
        assert_eq!(back.workload.tasks.len(), 2);
        let orig = &repro.workload.tasks[0].rays[0];
        let got = &back.workload.tasks[0].rays[0];
        assert_eq!(got.ray.origin.x.to_bits(), orig.ray.origin.x.to_bits());
        assert_eq!(got.ray.inv_dir.y.to_bits(), 0x7fc0_1234, "NaN payload preserved");
        assert_eq!(got.t_max.to_bits(), orig.t_max.to_bits());
        assert!(got.anyhit);
    }

    #[test]
    fn repro_rejects_unrepresentable_configs_and_corrupt_dumps() {
        // cta_size is not an override the format carries.
        let exotic = GpuConfig { cta_size: 32, ..GpuConfig::default() };
        let err = Repro::for_cell(
            SceneId::Ref,
            16,
            &BvhConfig::default(),
            &exotic,
            None,
            "deadlock",
            Workload::default(),
        )
        .expect_err("exotic gpu config must be rejected");
        assert!(err.contains("not a known preset"), "got: {err}");

        let custom_bvh = BvhConfig { sah_bins: 4, ..Default::default() };
        let err = Repro::for_cell(
            SceneId::Ref,
            16,
            &custom_bvh,
            &GpuConfig::default(),
            None,
            "deadlock",
            Workload::default(),
        )
        .expect_err("custom bvh config must be rejected");
        assert!(err.contains("bvh config"), "got: {err}");

        let good = Repro::for_cell(
            SceneId::Ref,
            16,
            &BvhConfig::default(),
            &GpuConfig::default(),
            None,
            "deadlock",
            Workload { tasks: vec![one_ray_task(1)] },
        )
        .unwrap();
        let text = good.to_jsonl();

        let torn = text.replace("{\"record\":\"repro_end\"}\n", "");
        let err = Repro::from_jsonl(&torn).expect_err("truncated dump");
        assert!(err.to_string().contains("truncated"), "got: {err}");

        let skewed = text.replacen("\"version\":1", "\"version\":9", 1);
        let err = Repro::from_jsonl(&skewed).expect_err("version skew");
        assert!(err.to_string().contains("version"), "got: {err}");

        let err = Repro::from_jsonl("").expect_err("empty");
        assert!(err.to_string().contains("empty"), "got: {err}");

        let wrong_count = text.replacen("\"tasks\":1", "\"tasks\":2", 1);
        let err = Repro::from_jsonl(&wrong_count).expect_err("count mismatch");
        assert!(err.to_string().contains("declared"), "got: {err}");
    }
}
