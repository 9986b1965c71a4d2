//! The resident daemon: accept loop, admission control, the single
//! executor thread, and graceful shutdown.
//!
//! # Threading model
//!
//! One listener thread (the caller of [`Server::run`]) accepts
//! connections and spawns a handler thread per client; one *executor*
//! thread drains the bounded job queue, running one job at a time on the
//! shared [`SweepEngine`] worker pool (jobs multiplex onto the pool; the
//! pool parallelizes within a job). Handlers and the executor share the
//! `ServeState` behind coarse mutexes — every critical section is
//! bookkeeping, never simulation.
//!
//! # Durability
//!
//! The daemon's journal is opened in *resume* mode on restart, and every
//! finished cell is written to the content-addressed [`ResultCache`]
//! *inside* the cell (before the engine journals it `done`), so the
//! invariant `journaled done ⇒ result on disk` holds across `kill -9` at
//! any instant. A resubmitted job re-runs exactly the cells whose cache
//! entries are missing: no lost cells, no duplicated work.
//!
//! # Degradation
//!
//! Slow or dead clients cannot wedge the daemon: sockets carry read and
//! write timeouts, and per-cell progress events flow through bounded
//! channels that drop (and count, via [`prof::Counter::EventsDropped`])
//! rather than block when a watcher stops draining.
//!
//! # Wire path
//!
//! Every frame leaves in one write ([`write_line`]) on a `TCP_NODELAY`
//! socket, and a watcher blocks on its event channel until
//! [`Registry::settle`] disconnects it: a request waits only on the work
//! it asked for, never on a delayed ACK or a poll timer.

use std::io::{self, BufRead as _, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use vtq::prelude::{
    cell_key_fingerprint, config_fingerprint, Cell, CellErrorKind, ExperimentConfig, PreparedCache,
    SweepEngine, SweepJournal,
};
use vtq::sweep::RunMatrix;

use crate::cache::ResultCache;
use crate::jobs::{AdmitError, Job, JobState, PoisonList, Registry};
use crate::proto::{
    spec_fingerprint, write_line, CellRecord, Frame, RejectReason, Request, SubmitSpec,
};

/// File (inside the service dir) holding the bound address, so clients
/// can discover an ephemeral port.
pub const ADDR_FILE: &str = "serve.addr";

/// Per-watcher event buffer: small on purpose — a watcher that stops
/// draining loses *progress events* (counted), never results.
const EVENT_BUFFER: usize = 64;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Service state directory: journal, result cache, poison list,
    /// address file.
    pub dir: PathBuf,
    /// Bind address (`127.0.0.1:0` = ephemeral port).
    pub addr: String,
    /// Sweep-engine worker threads per job.
    pub jobs: usize,
    /// Bounded job-queue capacity; submissions beyond it are rejected
    /// `overloaded`.
    pub max_queue: usize,
    /// Max queued+running jobs per tenant; beyond it, rejected `quota`.
    pub tenant_quota: usize,
    /// Panics (strikes) before a cell is quarantined.
    pub poison_threshold: u32,
    /// Honor `chaos_panic` submit fields (fault-harness runs only).
    pub allow_chaos: bool,
    /// Resume the journal instead of truncating it (daemon restart).
    pub resume: bool,
    /// Socket read/write timeout: a client slower than this is
    /// disconnected instead of holding a handler thread hostage.
    pub client_timeout: Duration,
}

impl ServerConfig {
    /// Defaults for a service rooted at `dir`: ephemeral port, queue of
    /// 16, tenant quota 4, quarantine after 2 strikes, 10 s client
    /// timeout, chaos off.
    pub fn new(dir: PathBuf) -> ServerConfig {
        ServerConfig {
            dir,
            addr: "127.0.0.1:0".to_string(),
            jobs: 0,
            max_queue: 16,
            tenant_quota: 4,
            poison_threshold: 2,
            allow_chaos: false,
            resume: false,
            client_timeout: Duration::from_secs(10),
        }
    }
}

/// Builds the experiment configuration a submission asks for.
pub fn spec_config(spec: &SubmitSpec) -> ExperimentConfig {
    let mut cfg = if spec.quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
    if let Some(res) = spec.res {
        cfg.resolution = res;
    }
    if let Some(detail) = spec.detail {
        cfg.detail_divisor = detail;
    }
    cfg
}

/// Shared daemon state.
struct ServeState {
    config: ServerConfig,
    registry: Mutex<Registry>,
    work: Condvar,
    poison: Mutex<PoisonList>,
    journal: Arc<SweepJournal>,
    cache: ResultCache,
    prepared: Arc<PreparedCache>,
    shutdown: AtomicBool,
}

impl ServeState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || vtq::durable::cancel_requested()
    }

    /// Settles one cell of a job: applies `update` to its counters and
    /// streams the per-cell event to its watcher (if any), both under one
    /// registry lock.
    fn cell_event(
        &self,
        job_id: &str,
        label: &str,
        status: &str,
        cycles: u64,
        rays: u64,
        update: impl FnOnce(&mut Job),
    ) {
        let mut registry = self.registry.lock().unwrap();
        if let Some(job) = registry.get_mut(job_id) {
            update(job);
        }
        let frame = Frame::CellEvent {
            job: job_id.to_string(),
            label: label.to_string(),
            status: status.to_string(),
            cycles,
            rays,
        };
        registry.emit(job_id, frame);
    }
}

/// A bound (not yet running) daemon.
pub struct Server {
    state: Arc<ServeState>,
    listener: TcpListener,
    addr: SocketAddr,
}

/// Handle to a daemon running on a background thread (tests, harnesses).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins the daemon (drains in-flight cells).
    pub fn shutdown(self) -> io::Result<()> {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.thread.join().expect("server thread panicked")
    }
}

impl Server {
    /// Binds the daemon: opens the journal (`resume` mode appends instead
    /// of truncating), the result cache and the poison list, binds the
    /// listener, and writes the resolved address to `dir/serve.addr`.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&config.dir)?;
        let journal = if config.resume {
            SweepJournal::resume(&config.dir)?
        } else {
            SweepJournal::start(&config.dir)?
        };
        let cache = ResultCache::open(&config.dir)?;
        let poison = PoisonList::open(&config.dir, config.poison_threshold)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        std::fs::write(config.dir.join(ADDR_FILE), format!("{addr}\n"))?;
        // Nonblocking accept so the loop can poll shutdown + SIGINT.
        listener.set_nonblocking(true)?;
        let state = Arc::new(ServeState {
            registry: Mutex::new(Registry::default()),
            work: Condvar::new(),
            poison: Mutex::new(poison),
            journal: Arc::new(journal),
            cache,
            prepared: Arc::new(PreparedCache::new()),
            shutdown: AtomicBool::new(false),
            config,
        });
        Ok(Server { state, listener, addr })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the daemon until shutdown (a `shutdown` frame, a SIGINT via
    /// the process-global cancel flag, or [`ServerHandle::shutdown`]).
    /// In-flight cells drain; queued jobs settle `cancelled`.
    pub fn run(self) -> io::Result<()> {
        let executor = {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || executor_loop(&state))
        };
        loop {
            if self.state.shutting_down() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || handle_client(&state, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: cancel every non-terminal job so the executor settles
        // the running one at its next cell boundary and skips the rest.
        {
            let mut registry = self.state.registry.lock().unwrap();
            let ids: Vec<String> = registry
                .jobs()
                .iter()
                .filter(|j| !j.state.terminal())
                .map(|j| j.id.clone())
                .collect();
            for id in ids {
                registry.cancel(&id);
            }
            self.state.work.notify_all();
        }
        executor.join().expect("executor thread panicked");
        // An incomplete journal is the one thing a restarted daemon
        // cannot compensate for — say so at drain, loudly.
        let drops = self.state.journal.drops();
        if drops > 0 {
            eprintln!(
                "[serve] WARNING: {drops} journal write(s) were dropped; a restarted \
                 daemon may re-run the affected cells (results stay cached)"
            );
        }
        Ok(())
    }

    /// Binds and runs on a background thread; returns once the address
    /// is live.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let addr = server.addr;
        let state = Arc::clone(&server.state);
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle { addr, state, thread })
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

fn executor_loop(state: &ServeState) {
    loop {
        let job = {
            let mut registry = state.registry.lock().unwrap();
            loop {
                if let Some(job) = registry.take_next() {
                    break Some(job);
                }
                if state.shutting_down() {
                    break None;
                }
                let (guard, _) =
                    state.work.wait_timeout(registry, Duration::from_millis(50)).unwrap();
                registry = guard;
            }
        };
        let Some(job) = job else { return };
        run_job(state, &job);
    }
}

fn run_job(state: &ServeState, job: &Job) {
    let cfg = spec_config(&job.spec);
    let cfg_fp = config_fingerprint(&cfg);

    // Partition quarantined cells out *before* the engine sees the
    // matrix: a quarantined cell must neither execute nor be journaled.
    let mut matrix = RunMatrix::new();
    let mut quarantined: Vec<(String, u32, String)> = Vec::new();
    {
        let poison = state.poison.lock().unwrap();
        for &scene in &job.spec.scenes {
            for &policy in &job.spec.policies {
                let label = format!("{}/{}", scene.name(), policy.label());
                let cell = Cell { scene, config: cfg, policy, label: label.clone() };
                let key = ResultCache::key(scene.name(), cell_key_fingerprint(&cell));
                if poison.quarantined(&key) {
                    let (strikes, detail) = poison.forensics(&key).unwrap();
                    quarantined.push((label, strikes, detail.to_string()));
                } else {
                    matrix.push(cell);
                }
            }
        }
    }
    for (label, strikes, detail) in &quarantined {
        eprintln!("[serve] {}: `{label}` quarantined after {strikes} strike(s): {detail}", job.id);
        state.cell_event(&job.id, label, "quarantined", 0, 0, |j| {
            j.failed_cells += 1;
            j.done_cells += 1;
        });
    }

    // A fresh engine per job: its wave counter starts at zero and its
    // scope is the spec's content fingerprint, so an identical job —
    // resubmitted after a crash, or from another tenant — produces
    // byte-identical journal keys and cache keys.
    let engine = SweepEngine::with_cache(state.config.jobs.max(1), Arc::clone(&state.prepared))
        .with_journal(Arc::clone(&state.journal))
        .with_cancel(job.token.clone())
        .scoped(&format!("serve/{:016x}", job.spec_fingerprint));

    let allow_chaos = state.config.allow_chaos;
    let results = engine.run_map(&matrix, |cell, prepared| {
        if allow_chaos && job.spec.chaos_panic.contains(&cell.label) {
            panic!("chaos: injected panic in {}", cell.label);
        }
        if allow_chaos {
            // A cancellable stall: holds the executor busy so the fault
            // harness can exercise admission, deadlines and cancellation
            // deterministically.
            if let Some(stall) = job.spec.chaos_sleep {
                let until = std::time::Instant::now() + stall;
                while std::time::Instant::now() < until && !job.token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        let fingerprint = cell_key_fingerprint(cell);
        let key = ResultCache::key(cell.scene.name(), fingerprint);
        if let Some(record) = state.cache.load(&key, cfg_fp) {
            note_cell(state, job, "cached", &record);
            return record;
        }
        let report = prepared.run_policy(cell.policy);
        let record = CellRecord {
            scene: cell.scene.name().to_string(),
            label: cell.label.clone(),
            fingerprint,
            cycles: report.stats.cycles,
            rays: report.stats.rays_completed,
            box_tests: report.stats.box_tests,
            tri_tests: report.stats.tri_tests,
        };
        // The cache write happens INSIDE the cell, before the engine
        // journals `done`: `journaled done ⇒ result on disk` must hold
        // across a kill at any instant.
        if let Err(e) = state.cache.store(&key, cfg_fp, &record) {
            eprintln!("[serve] cannot cache `{key}`: {e}");
        }
        note_cell(state, job, "done", &record);
        record
    });

    // Settle the stragglers the closure never saw: panics (strike the
    // poison list), interruptions, and journal-skips.
    for (cell, result) in matrix.cells().iter().zip(&results) {
        let key = ResultCache::key(cell.scene.name(), cell_key_fingerprint(cell));
        match result {
            Ok(_) => {}
            Err(e) if e.kind == CellErrorKind::Panic => {
                let strikes = state.poison.lock().unwrap().strike(&key, &e.message);
                eprintln!(
                    "[serve] {}: `{}` panicked (strike {strikes}/{}): {}",
                    job.id, cell.label, state.config.poison_threshold, e.message
                );
                state.cell_event(&job.id, &cell.label, "failed", 0, 0, |j| {
                    j.failed_cells += 1;
                    j.done_cells += 1;
                });
            }
            Err(e) if e.kind == CellErrorKind::Interrupted => {
                state.cell_event(&job.id, &cell.label, "interrupted", 0, 0, |_| {});
            }
            Err(_) => {
                // Journal says done (a previous daemon life) — serve the
                // cached result. Its absence means the journal and cache
                // disagree (the entry was quarantined corrupt, or lost
                // with its disk): report it, then recompute — simulation
                // is deterministic, so the replacement is bit-identical
                // and the journal's `done` stays truthful.
                match state.cache.load(&key, cfg_fp) {
                    Some(record) => note_cell(state, job, "cached", &record),
                    None => {
                        eprintln!(
                            "[serve] {}: `{}` journaled done but result missing from cache; \
                             recomputing",
                            job.id, cell.label
                        );
                        let prepared = state.prepared.get(cell.scene, &cell.config);
                        let report = prepared.run_policy(cell.policy);
                        let record = CellRecord {
                            scene: cell.scene.name().to_string(),
                            label: cell.label.clone(),
                            fingerprint: cell_key_fingerprint(cell),
                            cycles: report.stats.cycles,
                            rays: report.stats.rays_completed,
                            box_tests: report.stats.box_tests,
                            tri_tests: report.stats.tri_tests,
                        };
                        if let Err(e) = state.cache.store(&key, cfg_fp, &record) {
                            eprintln!("[serve] cannot cache `{key}`: {e}");
                        }
                        note_cell(state, job, "recomputed", &record);
                    }
                }
            }
        }
    }

    // Terminal state: an explicit cancel beats a deadline expiry beats
    // plain completion.
    let terminal = if job.token.deadline_expired() {
        JobState::Expired
    } else if job.token.is_cancelled() {
        JobState::Cancelled
    } else {
        JobState::Done
    };
    state.registry.lock().unwrap().settle(&job.id, terminal);
}

fn note_cell(state: &ServeState, job: &Job, status: &str, record: &CellRecord) {
    state.cell_event(&job.id, &record.label, status, record.cycles, record.rays, |j| {
        j.done_cells += 1;
        if status == "cached" {
            j.cached_cells += 1;
        }
    });
}

// ---------------------------------------------------------------------------
// Client handlers
// ---------------------------------------------------------------------------

fn write_frame(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    write_line(stream, frame.to_line())
}

/// Socket options of an accepted client connection: read/write timeouts
/// reap slow clients, and `TCP_NODELAY` sends each (whole-frame) write
/// at once instead of holding it for the client's ACK.
fn configure_accepted(stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)
}

fn handle_client(state: &ServeState, stream: TcpStream) {
    let _ = configure_accepted(&stream, state.config.client_timeout);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client hung up
            Ok(_) => {}
            Err(_) => return, // timeout (slow client) or reset
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        let request = match Request::parse(trimmed) {
            Ok(request) => request,
            Err(detail) => {
                // A torn or malformed frame gets a typed rejection; the
                // connection stays usable for a corrected retry.
                let _ = write_frame(
                    &mut writer,
                    &Frame::Rejected { reason: RejectReason::BadRequest, detail },
                );
                continue;
            }
        };
        let keep_going = match request {
            Request::Submit(spec) => handle_submit(state, &mut writer, spec),
            Request::Status { job } => handle_status(state, &mut writer, job.as_deref()),
            Request::Cancel { job } => {
                let cancelled = state.registry.lock().unwrap().cancel(&job);
                state.work.notify_all();
                let frame = if cancelled {
                    let registry = state.registry.lock().unwrap();
                    registry.get(&job).expect("cancelled job exists").status_frame()
                } else {
                    Frame::Rejected {
                        reason: RejectReason::BadRequest,
                        detail: format!("no cancellable job `{job}`"),
                    }
                };
                write_frame(&mut writer, &frame).is_ok()
            }
            Request::Results { job } => handle_results(state, &mut writer, &job),
            Request::Shutdown => {
                let _ = write_frame(&mut writer, &Frame::ShuttingDown);
                state.shutdown.store(true, Ordering::SeqCst);
                state.work.notify_all();
                false
            }
        };
        if !keep_going {
            return;
        }
    }
}

fn handle_submit(state: &ServeState, writer: &mut TcpStream, spec: SubmitSpec) -> bool {
    if state.shutting_down() {
        let frame = Frame::Rejected {
            reason: RejectReason::ShuttingDown,
            detail: "daemon is draining".to_string(),
        };
        return write_frame(writer, &frame).is_ok();
    }
    if (!spec.chaos_panic.is_empty() || spec.chaos_sleep.is_some()) && !state.config.allow_chaos {
        let frame = Frame::Rejected {
            reason: RejectReason::BadRequest,
            detail: "chaos injection requires a server started with --chaos".to_string(),
        };
        return write_frame(writer, &frame).is_ok();
    }
    let cfg = spec_config(&spec);
    let cfg_fp = config_fingerprint(&cfg);
    // Provenance gate: a client pinned to a fingerprint (its own local
    // config) refuses to run against a skewed daemon — and vice versa.
    if let Some(expected) = spec.expect_fingerprint {
        if expected != cfg_fp {
            let frame = Frame::Rejected {
                reason: RejectReason::FingerprintMismatch,
                detail: format!("client expects {expected:#018x}, server computes {cfg_fp:#018x}"),
            };
            return write_frame(writer, &frame).is_ok();
        }
    }
    let total_cells = spec.scenes.len() * spec.policies.len();
    let fingerprint = spec_fingerprint(&spec);
    let watch = spec.watch;
    let admitted = {
        let mut registry = state.registry.lock().unwrap();
        let admitted = registry.admit(
            spec,
            fingerprint,
            total_cells,
            state.config.max_queue,
            state.config.tenant_quota,
        );
        // Open the watcher before releasing the registry lock: the
        // executor cannot dequeue the job until we release, so no event
        // can be emitted before the watcher exists.
        if let (Ok(job), true) = (&admitted, watch) {
            let rx = registry.watch(&job.id, EVENT_BUFFER).expect("a just-admitted job is live");
            drop(registry);
            state.work.notify_all();
            let accepted =
                Frame::Accepted { job: job.id.clone(), fingerprint: cfg_fp, cells: total_cells };
            // A failed write drops `rx`; later events for the job then
            // hit a disconnected channel and are discarded.
            return write_frame(writer, &accepted).is_ok()
                && stream_watch(state, writer, &job.id, rx);
        }
        admitted
    };
    state.work.notify_all();
    let frame = match admitted {
        Ok(job) => Frame::Accepted { job: job.id, fingerprint: cfg_fp, cells: total_cells },
        Err(AdmitError::QueueFull) => Frame::Rejected {
            reason: RejectReason::Overloaded,
            detail: format!("job queue full ({})", state.config.max_queue),
        },
        Err(AdmitError::QuotaExceeded) => Frame::Rejected {
            reason: RejectReason::QuotaExceeded,
            detail: format!("tenant quota reached ({})", state.config.tenant_quota),
        },
    };
    write_frame(writer, &frame).is_ok()
}

/// Forwards events until [`Registry::settle`] disconnects the channel,
/// then sends the terminal status frame. The terminal frame comes from
/// the *registry*, not the event channel, so a full (degraded) channel
/// can never lose the one frame the client must see.
fn stream_watch(
    state: &ServeState,
    writer: &mut TcpStream,
    job_id: &str,
    rx: Receiver<Frame>,
) -> bool {
    for frame in rx {
        if write_frame(writer, &frame).is_err() {
            return false; // watcher hung up; job keeps running
        }
    }
    let status = state.registry.lock().unwrap().get(job_id).map(Job::status_frame);
    status.is_some_and(|status| write_frame(writer, &status).is_ok())
}

fn handle_status(state: &ServeState, writer: &mut TcpStream, job: Option<&str>) -> bool {
    let frame = match job {
        Some(id) => {
            let registry = state.registry.lock().unwrap();
            match registry.get(id) {
                Some(job) => job.status_frame(),
                None => Frame::Rejected {
                    reason: RejectReason::BadRequest,
                    detail: format!("unknown job `{id}`"),
                },
            }
        }
        None => {
            let (queued, running, finished) = state.registry.lock().unwrap().counts();
            let poisoned = state.poison.lock().unwrap().quarantined_count();
            Frame::Summary { queued, running, finished, poisoned }
        }
    };
    write_frame(writer, &frame).is_ok()
}

fn handle_results(state: &ServeState, writer: &mut TcpStream, job_id: &str) -> bool {
    let job = state.registry.lock().unwrap().get(job_id).cloned();
    let Some(job) = job else {
        let frame = Frame::Rejected {
            reason: RejectReason::BadRequest,
            detail: format!("unknown job `{job_id}`"),
        };
        return write_frame(writer, &frame).is_ok();
    };
    let cfg = spec_config(&job.spec);
    let cfg_fp = config_fingerprint(&cfg);
    let mut cells = 0usize;
    for &scene in &job.spec.scenes {
        for &policy in &job.spec.policies {
            let label = format!("{}/{}", scene.name(), policy.label());
            let cell = Cell { scene, config: cfg, policy, label };
            let key = ResultCache::key(scene.name(), cell_key_fingerprint(&cell));
            if let Some(record) = state.cache.load(&key, cfg_fp) {
                if write_frame(writer, &Frame::CellResult(record)).is_err() {
                    return false;
                }
                cells += 1;
            }
        }
    }
    write_frame(writer, &Frame::ResultsEnd { cells }).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn both_ends_of_a_connection_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        configure_accepted(&accepted, Duration::from_secs(1)).unwrap();
        assert!(accepted.nodelay().unwrap(), "daemon side must set TCP_NODELAY");
        assert!(client.stream().nodelay().unwrap(), "client side must set TCP_NODELAY");
    }
}
