//! Job lifecycle: the admission-controlled queue, per-job state machine
//! and the persistent poison list.
//!
//! States move `Queued → Running → {Done, Cancelled, Expired}`; a queued
//! job can also go straight to `Cancelled`. Cancellation and deadlines
//! ride the job's [`CancelToken`]: the executor's engine checks it at
//! every cell boundary, so both stop at the next boundary with the
//! journal left consistent (`interrupted` records for unstarted cells).
//! [`Registry::settle`] is the single place a job becomes terminal, and
//! it is what wakes the job's watcher (see [`Registry::watch`]).
//!
//! The poison list is the service's forensic memory: a cell (by cache
//! key) that panics accumulates strikes in `poison.jsonl`; at the
//! configured threshold it is *quarantined* — reported with its last
//! panic message, never executed again, so one deterministic crasher
//! cannot wedge the daemon in a retry loop across restarts.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

use gpusim::frames::{quote, records};
use vtq::prelude::CancelToken;

use crate::proto::{Frame, SubmitSpec};

/// Terminal and non-terminal states of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for the executor.
    Queued,
    /// The executor is sweeping its cells.
    Running,
    /// All cells settled (some may still have failed individually).
    Done,
    /// Cancelled by request before finishing.
    Cancelled,
    /// Its deadline passed before finishing.
    Expired,
}

impl JobState {
    /// Stable wire string.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "expired",
        }
    }

    /// Whether the state is terminal.
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled | JobState::Expired)
    }
}

/// One admitted job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Server-assigned id (`j<seq>`).
    pub id: String,
    /// The submission.
    pub spec: SubmitSpec,
    /// Content fingerprint of the spec (journal scope + resubmission
    /// identity; see [`crate::proto::spec_fingerprint`]).
    pub spec_fingerprint: u64,
    /// Current state.
    pub state: JobState,
    /// Cancellation/deadline token shared with the executor's engine.
    pub token: CancelToken,
    /// Cells settled so far.
    pub done_cells: usize,
    /// Total cells in the matrix.
    pub total_cells: usize,
    /// Cells served from the result cache.
    pub cached_cells: usize,
    /// Cells that panicked (including quarantined skips).
    pub failed_cells: usize,
}

impl Job {
    /// The job's status as a wire frame.
    pub fn status_frame(&self) -> Frame {
        Frame::Status {
            job: self.id.clone(),
            state: self.state.label().to_string(),
            done_cells: self.done_cells,
            total_cells: self.total_cells,
            cached_cells: self.cached_cells,
            failed_cells: self.failed_cells,
        }
    }
}

/// The admission-controlled registry: bounded queue, per-tenant quotas,
/// job lookup, and the per-job watcher channels. The server wraps it in
/// its state mutex, so a watcher's sender lives under the same lock as
/// the job state it reports on.
#[derive(Debug, Default)]
pub struct Registry {
    jobs: Vec<Job>,
    queue: Vec<usize>,
    next_seq: usize,
    watchers: HashMap<String, SyncSender<Frame>>,
}

/// Why admission refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The bounded queue is at capacity.
    QueueFull,
    /// The tenant is at its queued+running quota.
    QuotaExceeded,
}

impl Registry {
    /// Admits `spec` under the given limits, arming its deadline token
    /// from *now* (queue wait counts against the deadline — an overloaded
    /// daemon must not silently stretch a client's budget).
    pub fn admit(
        &mut self,
        spec: SubmitSpec,
        spec_fingerprint: u64,
        total_cells: usize,
        max_queue: usize,
        tenant_quota: usize,
    ) -> Result<Job, AdmitError> {
        if self.queue.len() >= max_queue {
            prof::add(prof::Counter::JobsRejected, 1);
            return Err(AdmitError::QueueFull);
        }
        let active = self
            .jobs
            .iter()
            .filter(|j| !j.state.terminal() && j.spec.tenant == spec.tenant)
            .count();
        if active >= tenant_quota {
            prof::add(prof::Counter::JobsRejected, 1);
            return Err(AdmitError::QuotaExceeded);
        }
        let token = match spec.deadline {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        };
        let job = Job {
            id: format!("j{}", self.next_seq),
            spec,
            spec_fingerprint,
            state: JobState::Queued,
            token,
            done_cells: 0,
            total_cells,
            cached_cells: 0,
            failed_cells: 0,
        };
        self.next_seq += 1;
        self.queue.push(self.jobs.len());
        self.jobs.push(job.clone());
        prof::add(prof::Counter::JobsAccepted, 1);
        Ok(job)
    }

    /// Pops the oldest queued job and marks it running. `None` when the
    /// queue is empty.
    pub fn take_next(&mut self) -> Option<Job> {
        while !self.queue.is_empty() {
            let index = self.queue.remove(0);
            let job = &mut self.jobs[index];
            // A job cancelled while queued never reaches the executor.
            if job.state == JobState::Queued {
                job.state = JobState::Running;
                return Some(job.clone());
            }
        }
        None
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: &str) -> Option<&mut Job> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    /// Cancels a job: a queued one settles as `Cancelled` immediately; a
    /// running one has its token cancelled and settles when the executor
    /// reaches the next cell boundary. Returns whether the id existed
    /// and was still cancellable.
    pub fn cancel(&mut self, id: &str) -> bool {
        let Some(job) = self.get_mut(id) else { return false };
        if job.state.terminal() {
            return false;
        }
        job.token.cancel();
        if job.state == JobState::Queued {
            self.settle(id, JobState::Cancelled);
            // Free the queue slot immediately: admission control bounds
            // on `queue.len()`, and a cancelled ghost must not keep
            // rejecting live submissions.
            let idx = self.jobs.iter().position(|j| j.id == id).unwrap();
            self.queue.retain(|&queued| queued != idx);
        }
        prof::add(prof::Counter::JobsCancelled, 1);
        true
    }

    /// Moves a job to the terminal `state` and drops its watcher's
    /// sender, which wakes the watcher: it drains the buffered events,
    /// sees the channel disconnect, and reads the terminal status from
    /// here. The first settlement wins; returns whether this call
    /// settled the job.
    pub fn settle(&mut self, id: &str, state: JobState) -> bool {
        debug_assert!(state.terminal(), "settle needs a terminal state, got {state:?}");
        let Some(job) = self.get_mut(id) else { return false };
        if job.state.terminal() {
            return false;
        }
        job.state = state;
        self.watchers.remove(id);
        true
    }

    /// Opens the watcher channel of a not-yet-terminal job: per-cell
    /// events sent through [`emit`](Self::emit) arrive on the returned
    /// receiver, which disconnects once the job settles. At most
    /// `buffer` events queue up; beyond that, [`emit`](Self::emit)
    /// drops. `None` for unknown or already-settled jobs.
    pub fn watch(&mut self, id: &str, buffer: usize) -> Option<Receiver<Frame>> {
        if self.get(id)?.state.terminal() {
            return None;
        }
        let (tx, rx) = sync_channel(buffer);
        self.watchers.insert(id.to_string(), tx);
        Some(rx)
    }

    /// Sends `frame` to the job's watcher, if any, without blocking: on a
    /// full buffer the event is dropped (and counted) — a stalled watcher
    /// loses progress events, never its terminal status.
    pub fn emit(&self, id: &str, frame: Frame) {
        if let Some(tx) = self.watchers.get(id) {
            match tx.try_send(frame) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => prof::add(prof::Counter::EventsDropped, 1),
                Err(TrySendError::Disconnected(_)) => {} // watcher went away
            }
        }
    }

    /// Counts by state for the service summary: `(queued, running,
    /// finished)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for job in &self.jobs {
            match job.state {
                JobState::Queued => counts.0 += 1,
                JobState::Running => counts.1 += 1,
                _ => counts.2 += 1,
            }
        }
        counts
    }

    /// All jobs (diagnostics/tests).
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }
}

/// File name of the poison list inside the service directory.
pub const POISON_FILE: &str = "poison.jsonl";

/// The persistent per-cell strike counter. Strikes survive daemon
/// restarts (append-only `poison.jsonl`, replayed on open), so a cell
/// that crashes the sweep N times total — across any number of daemon
/// lifetimes — is quarantined, not retried forever.
#[derive(Debug)]
pub struct PoisonList {
    path: PathBuf,
    threshold: u32,
    strikes: HashMap<String, (u32, String)>,
}

impl PoisonList {
    /// Opens (replaying) `service_dir/poison.jsonl`. `threshold` strikes
    /// quarantine a cell; 0 is clamped to 1 (a threshold of "never run
    /// anything" would be useless).
    pub fn open(service_dir: &Path, threshold: u32) -> io::Result<PoisonList> {
        let path = service_dir.join(POISON_FILE);
        let mut strikes: HashMap<String, (u32, String)> = HashMap::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                // A line that is not a complete poison record is a torn
                // tail from a hard kill.
                for rec in records(&text).flatten() {
                    if rec.opt_str("record") != Ok(Some("poison")) {
                        continue;
                    }
                    let (Ok(key), Ok(detail)) = (rec.str("key"), rec.str("detail")) else {
                        continue;
                    };
                    let entry = strikes.entry(key.to_string()).or_insert((0, String::new()));
                    entry.0 += 1;
                    entry.1 = detail.to_string();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(PoisonList { path, threshold: threshold.max(1), strikes })
    }

    /// Records one strike (a panic) against `key`, appending it durably.
    /// Returns the new strike count.
    pub fn strike(&mut self, key: &str, detail: &str) -> u32 {
        let entry = self.strikes.entry(key.to_string()).or_insert((0, String::new()));
        entry.0 += 1;
        entry.1 = detail.to_string();
        let count = entry.0;
        if count == self.threshold {
            prof::add(prof::Counter::CellsQuarantined, 1);
        }
        let line = format!(
            "{{\"record\":\"poison\",\"key\":{},\"strikes\":{count},\"detail\":{}}}\n",
            quote(key),
            quote(detail),
        );
        let write = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = write {
            eprintln!("[poison] cannot persist strike for `{key}`: {e}");
        }
        count
    }

    /// Whether `key` has reached the quarantine threshold.
    pub fn quarantined(&self, key: &str) -> bool {
        self.strikes.get(key).is_some_and(|(count, _)| *count >= self.threshold)
    }

    /// Forensics for a quarantined cell: `(strike count, last panic
    /// message)`.
    pub fn forensics(&self, key: &str) -> Option<(u32, &str)> {
        self.strikes.get(key).map(|(count, detail)| (*count, detail.as_str()))
    }

    /// Number of quarantined cell keys.
    pub fn quarantined_count(&self) -> usize {
        self.strikes.values().filter(|(count, _)| *count >= self.threshold).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tenant: &str) -> SubmitSpec {
        SubmitSpec { tenant: tenant.to_string(), ..SubmitSpec::default() }
    }

    #[test]
    fn admission_enforces_queue_bound_and_quota() {
        let mut reg = Registry::default();
        let a = reg.admit(spec("alice"), 1, 2, 2, 2).unwrap();
        let b = reg.admit(spec("alice"), 1, 2, 2, 2).unwrap();
        assert_ne!(a.id, b.id);
        // Queue full (bound 2).
        assert!(matches!(reg.admit(spec("bob"), 1, 2, 2, 2), Err(AdmitError::QueueFull)));
        // Drain one; alice is now at her quota of 2 active (1 running,
        // 1 queued), bob is fine.
        let running = reg.take_next().unwrap();
        assert_eq!(running.id, a.id);
        assert!(matches!(reg.admit(spec("alice"), 1, 2, 8, 2), Err(AdmitError::QuotaExceeded)));
        assert!(reg.admit(spec("bob"), 1, 2, 8, 2).is_ok());
        let (queued, run, finished) = reg.counts();
        assert_eq!((queued, run, finished), (2, 1, 0));
    }

    #[test]
    fn cancel_queued_job_never_runs() {
        let mut reg = Registry::default();
        let a = reg.admit(spec("t"), 1, 1, 8, 8).unwrap();
        let b = reg.admit(spec("t"), 1, 1, 8, 8).unwrap();
        assert!(reg.cancel(&a.id));
        assert!(!reg.cancel(&a.id), "terminal jobs cannot be re-cancelled");
        assert!(!reg.cancel("j999"), "unknown id");
        // The cancelled job is skipped by the executor.
        assert_eq!(reg.take_next().unwrap().id, b.id);
        assert!(reg.take_next().is_none());
        assert_eq!(reg.get(&a.id).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn cancel_running_job_flips_its_token() {
        let mut reg = Registry::default();
        let a = reg.admit(spec("t"), 1, 1, 8, 8).unwrap();
        let running = reg.take_next().unwrap();
        assert!(!running.token.is_cancelled());
        assert!(reg.cancel(&a.id));
        // The clone the executor holds shares the token.
        assert!(running.token.is_cancelled());
        assert_eq!(reg.get(&a.id).unwrap().state, JobState::Running, "settles at cell boundary");
    }

    #[test]
    fn settle_wakes_the_watcher_after_its_events() {
        let mut reg = Registry::default();
        let a = reg.admit(spec("t"), 1, 1, 8, 8).unwrap();
        let rx = reg.watch(&a.id, 4).unwrap();
        reg.take_next().unwrap();
        reg.emit(&a.id, Frame::ShuttingDown);
        assert!(reg.settle(&a.id, JobState::Done));
        assert!(!reg.settle(&a.id, JobState::Cancelled), "first settlement wins");
        assert_eq!(reg.get(&a.id).unwrap().state, JobState::Done);
        // Buffered events drain first, then the channel disconnects.
        assert_eq!(rx.recv(), Ok(Frame::ShuttingDown));
        assert!(rx.recv().is_err(), "settle must drop the sender");
        assert!(reg.watch(&a.id, 4).is_none(), "a settled job cannot be watched");
    }

    #[test]
    fn cancelling_a_queued_job_wakes_its_watcher() {
        let mut reg = Registry::default();
        let a = reg.admit(spec("t"), 1, 1, 8, 8).unwrap();
        let rx = reg.watch(&a.id, 4).unwrap();
        assert!(reg.cancel(&a.id));
        assert!(rx.recv().is_err());
        assert_eq!(reg.get(&a.id).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn poison_list_persists_strikes_across_reopen() {
        let dir = std::env::temp_dir().join(format!("vtq-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut poison = PoisonList::open(&dir, 2).unwrap();
        assert!(!poison.quarantined("REF-abc"));
        assert_eq!(poison.strike("REF-abc", "panic: first"), 1);
        assert!(!poison.quarantined("REF-abc"), "below threshold");
        drop(poison);

        // Strikes survive a restart; the second strike quarantines.
        let mut poison = PoisonList::open(&dir, 2).unwrap();
        assert_eq!(poison.strike("REF-abc", "panic: second"), 2);
        assert!(poison.quarantined("REF-abc"));
        let (count, detail) = poison.forensics("REF-abc").unwrap();
        assert_eq!(count, 2);
        assert_eq!(detail, "panic: second");
        assert_eq!(poison.quarantined_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
