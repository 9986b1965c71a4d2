//! End-to-end tests of the daemon: protocol round trips, admission
//! control, deadlines and cancellation, poison quarantine, crash-style
//! recovery through the cache, and the deterministic chaos campaign.
//!
//! Every test runs its own daemon on an ephemeral port with its own
//! service directory, so tests are independent and parallel-safe. The
//! submitted jobs use tiny configurations (8x8, detail 1/64) so a cell
//! simulates in milliseconds.

use std::path::PathBuf;
use std::time::Duration;

use vtq_serve::proto::parse_policy;
use vtq_serve::server::spec_config;
use vtq_serve::{Client, Frame, RejectReason, Request, Server, ServerConfig, SubmitSpec};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtq-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_spec() -> SubmitSpec {
    SubmitSpec { res: Some(8), detail: Some(64), ..SubmitSpec::default() }
}

fn config(dir: PathBuf) -> ServerConfig {
    let mut config = ServerConfig::new(dir);
    config.jobs = 2;
    config
}

#[test]
fn submit_watch_results_shutdown_round_trip() {
    let dir = test_dir("roundtrip");
    let handle = Server::spawn(config(dir.clone())).expect("spawn server");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut spec = tiny_spec();
    spec.policies = vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()];

    let mut events = Vec::new();
    let terminal = client
        .submit_and_watch(spec.clone(), |frame| events.push(frame.clone()))
        .expect("watched submit");
    let Frame::Status { job, state, done_cells, total_cells, failed_cells, .. } = terminal else {
        panic!("expected terminal status, got {terminal:?}");
    };
    assert_eq!(state, "done");
    assert_eq!((done_cells, total_cells, failed_cells), (2, 2, 0));
    // The accepted frame plus one event per cell.
    let cell_events: Vec<_> = events
        .iter()
        .filter_map(|f| match f {
            Frame::CellEvent { label, status, cycles, .. } => {
                Some((label.clone(), status.clone(), *cycles))
            }
            _ => None,
        })
        .collect();
    assert_eq!(cell_events.len(), 2, "one event per cell: {events:?}");
    assert!(cell_events.iter().all(|(_, status, cycles)| status == "done" && *cycles > 0));

    // Results come back from the cache, matching the events.
    let records = client.fetch_results(&job).expect("results");
    assert_eq!(records.len(), 2);
    assert!(records.iter().any(|r| r.label == "REF/baseline"));
    assert!(records.iter().any(|r| r.label == "REF/vtq"));
    assert!(records.iter().all(|r| r.cycles > 0 && r.rays > 0));

    // A second identical submission is served entirely from the cache —
    // and bit-identically.
    let terminal = client.submit_and_watch(spec, |_| {}).expect("resubmit");
    let Frame::Status { job: job2, cached_cells, .. } = terminal else { unreachable!() };
    assert_eq!(cached_cells, 2, "identical resubmission must be all cache hits");
    let records2 = client.fetch_results(&job2).expect("results again");
    let mut sorted = records.clone();
    let mut sorted2 = records2;
    sorted.sort_by(|a, b| a.label.cmp(&b.label));
    sorted2.sort_by(|a, b| a.label.cmp(&b.label));
    assert_eq!(sorted, sorted2, "cache replay must be bit-identical");

    // Clean shutdown via the protocol.
    let reply = client.request(&Request::Shutdown).expect("shutdown");
    assert_eq!(reply, Frame::ShuttingDown);
    handle.shutdown().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_and_quota_reject_with_typed_responses() {
    let dir = test_dir("admission");
    let mut cfg = config(dir.clone());
    cfg.max_queue = 2;
    cfg.tenant_quota = 2;
    cfg.allow_chaos = true;
    let handle = Server::spawn(cfg).expect("spawn");

    // A chaos-stalled job holds the executor deterministically busy (the
    // stall is cancellable, so shutdown stays fast) while we fill the
    // queue behind it.
    let mut slow = tiny_spec();
    slow.chaos_sleep = Some(Duration::from_secs(60));

    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut tenants = Vec::new();
    // Fill: one running (dequeued immediately) + two queued = queue full.
    for tenant in ["a", "b", "c"] {
        let mut spec = slow.clone();
        spec.tenant = tenant.to_string();
        match client.request(&Request::Submit(spec)).expect("submit") {
            Frame::Accepted { job, .. } => tenants.push(job),
            other => panic!("expected accept for {tenant}, got {other:?}"),
        }
    }
    // Queue is now at capacity: a fourth submission is overloaded.
    let mut spec = slow.clone();
    spec.tenant = "d".to_string();
    match client.request(&Request::Submit(spec)).expect("submit") {
        Frame::Rejected { reason: RejectReason::Overloaded, detail } => {
            assert!(detail.contains('2'), "detail should carry the bound: {detail}")
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    // Tenant quota: cancel one queued job to make queue room, then grow
    // tenant "a" to its quota of 2 active jobs; the third is rejected
    // even though the queue has room.
    assert!(matches!(
        client.request(&Request::Cancel { job: tenants[2].clone() }).expect("cancel"),
        Frame::Status { .. }
    ));
    let mut second_a = slow.clone();
    second_a.tenant = "a".to_string();
    match client.request(&Request::Submit(second_a.clone())).expect("submit") {
        Frame::Accepted { .. } => {}
        other => panic!("expected accept (quota 2, one active), got {other:?}"),
    }
    assert!(matches!(
        client.request(&Request::Cancel { job: tenants[1].clone() }).expect("cancel"),
        Frame::Status { .. }
    ));
    match client.request(&Request::Submit(second_a)).expect("submit") {
        Frame::Rejected { reason: RejectReason::QuotaExceeded, .. } => {}
        other => panic!("expected quota rejection, got {other:?}"),
    }
    // Without `--chaos` the injection fields are refused outright.
    handle.shutdown().expect("shutdown");
    let no_chaos = Server::spawn(config(test_dir("admission-nochaos"))).expect("spawn");
    let mut client = Client::connect(no_chaos.addr()).expect("connect");
    match client.request(&Request::Submit(slow)).expect("submit") {
        Frame::Rejected { reason: RejectReason::BadRequest, detail } => {
            assert!(detail.contains("chaos"), "detail names the gate: {detail}")
        }
        other => panic!("expected chaos-gate rejection, got {other:?}"),
    }
    no_chaos.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_expires_and_cancel_stops_jobs() {
    let dir = test_dir("deadline");
    let mut cfg = config(dir.clone());
    cfg.allow_chaos = true;
    let handle = Server::spawn(cfg).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A zero-ish deadline expires before (or while) the job runs; the
    // job must settle `expired`, not hang.
    let mut spec = tiny_spec();
    spec.deadline = Some(Duration::from_millis(1));
    spec.policies = vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()];
    let terminal = client.submit_and_watch(spec, |_| {}).expect("watched submit");
    let Frame::Status { state, .. } = &terminal else { panic!("got {terminal:?}") };
    assert_eq!(state, "expired", "deadline must expire the job: {terminal:?}");

    // Explicit cancellation: a chaos-stalled job cannot finish on its
    // own, so it must settle `cancelled` — deterministically.
    let mut spec = tiny_spec();
    spec.chaos_sleep = Some(Duration::from_secs(60));
    let job = match client.request(&Request::Submit(spec)).expect("submit") {
        Frame::Accepted { job, .. } => job,
        other => panic!("expected accept, got {other:?}"),
    };
    match client.request(&Request::Cancel { job: job.clone() }).expect("cancel") {
        Frame::Status { state, .. } => {
            assert!(state == "cancelled" || state == "running", "got {state}")
        }
        other => panic!("expected status, got {other:?}"),
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match client.request(&Request::Status { job: Some(job.clone()) }).expect("status") {
            Frame::Status { state, .. } if state == "cancelled" => break,
            Frame::Status { state, .. } => {
                assert_ne!(state, "done", "a stalled job cannot have finished")
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(std::time::Instant::now() < deadline, "cancel never settled");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Unknown ids are typed errors.
    assert!(matches!(
        client.request(&Request::Cancel { job: "j999".into() }).expect("cancel"),
        Frame::Rejected { reason: RejectReason::BadRequest, .. }
    ));
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_mismatch_is_rejected_and_match_accepted() {
    let dir = test_dir("provenance");
    let handle = Server::spawn(config(dir.clone())).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut spec = tiny_spec();
    spec.expect_fingerprint = Some(0xbad);
    match client.request(&Request::Submit(spec)).expect("submit") {
        Frame::Rejected { reason: RejectReason::FingerprintMismatch, detail } => {
            assert!(detail.contains("0x"), "detail names both fingerprints: {detail}")
        }
        other => panic!("expected fingerprint_mismatch, got {other:?}"),
    }
    // The matching fingerprint — computed exactly as the server does —
    // is accepted and echoed back.
    let mut spec = tiny_spec();
    let expected = vtq::sweep::config_fingerprint(&spec_config(&spec));
    spec.expect_fingerprint = Some(expected);
    match client.request(&Request::Submit(spec)).expect("submit") {
        Frame::Accepted { fingerprint, .. } => assert_eq!(fingerprint, expected),
        other => panic!("expected accept, got {other:?}"),
    }
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_cell_is_quarantined_with_forensics() {
    let dir = test_dir("poison");
    let mut cfg = config(dir.clone());
    cfg.allow_chaos = true;
    cfg.poison_threshold = 2;
    let handle = Server::spawn(cfg).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut spec = tiny_spec();
    spec.policies = vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()];
    spec.chaos_panic = vec!["REF/vtq".to_string()];

    // Strikes 1 and 2: the chaos cell panics, the healthy cell finishes.
    for strike in 1..=2 {
        let terminal = client.submit_and_watch(spec.clone(), |_| {}).expect("submit");
        let Frame::Status { state, failed_cells, .. } = &terminal else { unreachable!() };
        assert_eq!(state, "done");
        assert_eq!(*failed_cells, 1, "strike {strike}: {terminal:?}");
    }
    // Third submission: the cell is quarantined — skipped, reported, and
    // the job still completes (with the healthy cell cached).
    let mut events = Vec::new();
    let terminal =
        client.submit_and_watch(spec.clone(), |f| events.push(f.clone())).expect("submit");
    let Frame::Status { state, failed_cells, cached_cells, .. } = &terminal else { unreachable!() };
    assert_eq!(state, "done");
    assert_eq!(*failed_cells, 1, "quarantined cell counts as failed");
    assert_eq!(*cached_cells, 1, "healthy cell served from cache");
    assert!(
        events.iter().any(|f| matches!(
            f,
            Frame::CellEvent { status, label, .. }
                if status == "quarantined" && label == "REF/vtq"
        )),
        "expected a quarantined event: {events:?}"
    );
    // The whole-service summary reports the quarantine.
    match client.request(&Request::Status { job: None }).expect("summary") {
        Frame::Summary { poisoned, .. } => assert_eq!(poisoned, 1),
        other => panic!("expected summary, got {other:?}"),
    }
    handle.shutdown().expect("shutdown");

    // The quarantine survives a daemon restart (poison.jsonl replay).
    let mut cfg = config(dir.clone());
    cfg.allow_chaos = true;
    cfg.poison_threshold = 2;
    cfg.resume = true;
    let handle = Server::spawn(cfg).expect("respawn");
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let terminal = client.submit_and_watch(spec, |_| {}).expect("submit");
    let Frame::Status { failed_cells, .. } = &terminal else { unreachable!() };
    assert_eq!(*failed_cells, 1, "quarantine persists across restart");
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_serves_results_from_cache_without_rerunning() {
    let dir = test_dir("recovery");
    let handle = Server::spawn(config(dir.clone())).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let spec = tiny_spec();
    let terminal = client.submit_and_watch(spec.clone(), |_| {}).expect("submit");
    let Frame::Status { job, state, .. } = &terminal else { unreachable!() };
    assert_eq!(state, "done");
    let records = client.fetch_results(job).expect("results");
    assert_eq!(records.len(), 1);
    handle.shutdown().expect("shutdown");

    // "Restart" the daemon (resume mode, same dir) and resubmit: the
    // cell must be served from the cache — no re-simulation — and the
    // record must be bit-identical.
    let mut cfg = config(dir.clone());
    cfg.resume = true;
    let handle = Server::spawn(cfg).expect("respawn");
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let mut events = Vec::new();
    let terminal = client.submit_and_watch(spec, |f| events.push(f.clone())).expect("resubmit");
    let Frame::Status { job, cached_cells, .. } = &terminal else { unreachable!() };
    assert_eq!(*cached_cells, 1, "restart must serve from cache: {events:?}");
    let records2 = client.fetch_results(job).expect("results after restart");
    assert_eq!(records, records2, "cache survives restart bit-identically");
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_campaign_all_green() {
    let dir = test_dir("chaos");
    let mut cfg = config(dir.clone());
    // Short client timeout so the slow-client scenario completes fast.
    cfg.client_timeout = Duration::from_millis(300);
    let handle = Server::spawn(cfg).expect("spawn");

    let report =
        vtq_serve::chaos::run_campaign(handle.addr(), Duration::from_millis(300), tiny_spec());
    for scenario in &report.scenarios {
        assert!(
            scenario.verdict.is_ok(),
            "chaos scenario `{}` failed: {:?}",
            scenario.name,
            scenario.verdict
        );
    }
    assert!(report.all_ok());
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Watcher wake-ups. A watcher blocks until the job settles — there is no
// timer fallback — so every terminal path must wake it. Each watcher
// reads with a bounded timeout: a missed wake-up fails the test as a
// read error instead of hanging it.
// ---------------------------------------------------------------------------

const WAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Submits `spec` as a watched job on its own connection (on a thread)
/// and returns the job id once accepted plus a handle yielding the
/// terminal frame.
fn watch_in_background(
    addr: std::net::SocketAddr,
    spec: SubmitSpec,
) -> (String, std::thread::JoinHandle<Result<Frame, String>>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let watcher = std::thread::spawn(move || {
        let mut client = Client::connect_with_timeout(addr, WAKE_TIMEOUT).expect("connect");
        client.submit_and_watch(spec, |frame| {
            if let Frame::Accepted { job, .. } = frame {
                let _ = tx.send(job.clone());
            }
        })
    });
    let job = rx.recv_timeout(WAKE_TIMEOUT).expect("watched job accepted");
    (job, watcher)
}

fn terminal_state(watcher: std::thread::JoinHandle<Result<Frame, String>>) -> String {
    match watcher.join().expect("watcher thread") {
        Ok(Frame::Status { state, .. }) => state,
        other => panic!("watcher never saw its terminal status: {other:?}"),
    }
}

/// Holds the executor busy with a cancellable chaos stall so jobs
/// submitted after it stay queued.
fn occupy_executor(client: &mut Client) -> String {
    let mut stall = tiny_spec();
    stall.chaos_sleep = Some(Duration::from_secs(60));
    stall.tenant = "stall".to_string();
    let job = match client.request(&Request::Submit(stall)).expect("submit stall") {
        Frame::Accepted { job, .. } => job,
        other => panic!("expected accept, got {other:?}"),
    };
    let deadline = std::time::Instant::now() + WAKE_TIMEOUT;
    loop {
        match client.request(&Request::Status { job: Some(job.clone()) }).expect("status") {
            Frame::Status { state, .. } if state == "running" => return job,
            Frame::Status { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(std::time::Instant::now() < deadline, "stall job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn watcher_of_a_job_cancelled_while_queued_wakes_cancelled() {
    let dir = test_dir("wake-cancel");
    let mut cfg = config(dir.clone());
    cfg.allow_chaos = true;
    let handle = Server::spawn(cfg).expect("spawn");
    let mut control = Client::connect_with_timeout(handle.addr(), WAKE_TIMEOUT).expect("connect");
    let stall = occupy_executor(&mut control);

    let (job, watcher) = watch_in_background(handle.addr(), tiny_spec());
    match control.request(&Request::Cancel { job: job.clone() }).expect("cancel") {
        Frame::Status { state, .. } => assert_eq!(state, "cancelled", "queued jobs settle at once"),
        other => panic!("expected status, got {other:?}"),
    }
    assert_eq!(terminal_state(watcher), "cancelled");

    control.request(&Request::Cancel { job: stall }).expect("cancel stall");
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchers_of_queued_jobs_wake_during_shutdown_drain() {
    let dir = test_dir("wake-drain");
    let mut cfg = config(dir.clone());
    cfg.allow_chaos = true;
    let handle = Server::spawn(cfg).expect("spawn");
    let mut control = Client::connect_with_timeout(handle.addr(), WAKE_TIMEOUT).expect("connect");
    occupy_executor(&mut control);

    let watchers: Vec<_> = (0..2)
        .map(|k| {
            let mut spec = tiny_spec();
            spec.tenant = format!("queued-{k}");
            watch_in_background(handle.addr(), spec).1
        })
        .collect();
    match control.request(&Request::Status { job: None }).expect("summary") {
        Frame::Summary { queued, running, .. } => assert_eq!((queued, running), (2, 1)),
        other => panic!("expected summary, got {other:?}"),
    }
    assert_eq!(control.request(&Request::Shutdown).expect("shutdown"), Frame::ShuttingDown);
    for watcher in watchers {
        assert_eq!(terminal_state(watcher), "cancelled");
    }
    handle.shutdown().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watcher_of_an_expiring_job_wakes_expired() {
    let dir = test_dir("wake-expire");
    let mut cfg = config(dir.clone());
    cfg.allow_chaos = true;
    let handle = Server::spawn(cfg).expect("spawn");

    // The stall outlives the deadline, so only the deadline can end it.
    let mut spec = tiny_spec();
    spec.chaos_sleep = Some(Duration::from_secs(60));
    spec.deadline = Some(Duration::from_millis(200));
    let (_, watcher) = watch_in_background(handle.addr(), spec);
    assert_eq!(terminal_state(watcher), "expired");

    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Guards the request path against waits that are not work: a cached
/// tiny job plus its results fetch is a handful of loopback round trips,
/// so 32 of them take milliseconds. A delayed-ACK stall or a poll timer
/// on any frame costs tens of milliseconds each and blows the budget.
#[test]
fn cached_round_trips_stay_fast_on_loopback() {
    let dir = test_dir("latency");
    let handle = Server::spawn(config(dir.clone())).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let warm = client.submit_and_watch(tiny_spec(), |_| {}).expect("fresh submit");
    assert!(matches!(&warm, Frame::Status { state, .. } if state == "done"), "{warm:?}");

    let start = std::time::Instant::now();
    for _ in 0..32 {
        let terminal = client.submit_and_watch(tiny_spec(), |_| {}).expect("cached submit");
        let Frame::Status { job, state, cached_cells, .. } = terminal else {
            panic!("expected status, got {terminal:?}")
        };
        assert_eq!((state.as_str(), cached_cells), ("done", 1));
        assert_eq!(client.fetch_results(&job).expect("results").len(), 1);
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "32 cached round trips took {elapsed:?}");

    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
