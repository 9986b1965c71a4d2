//! Deterministic client-fault scenarios for the daemon.
//!
//! Each scenario injects one client-side fault against a *live* server
//! and then proves the daemon degraded gracefully: it is still accepting
//! well-formed requests and the faulting connection did not wedge a
//! handler, the executor or the accept loop. The scenarios are
//! deterministic — no randomness, no timing races beyond the socket
//! timeouts under test — so a failure is a reproducible bug, not flake.
//! Each returns a [`Verdict`]; `vtq-bench chaos` runs them through
//! [`vtq::campaign::run`].
//!
//! Covered faults:
//!
//! * **slow client** — a connection that trickles (then stops sending
//!   entirely): the server's read timeout must reap it,
//! * **half-written frame** — a submit frame cut mid-line by a dead
//!   client: the torn line must parse to a typed `bad_request` (on the
//!   same connection) or be discarded on hangup, never crash the server,
//! * **mid-job kill** — a watching client that vanishes while its job
//!   runs: the job must still run to completion and its results must be
//!   servable to a later client.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use vtq::campaign::Verdict;

use crate::client::Client;
use crate::proto::{Frame, RejectReason, Request, SubmitSpec};

/// Proves the daemon still answers well-formed requests: a whole-service
/// status round trip on a fresh connection.
fn probe_alive(addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(10))
        .map_err(|e| format!("cannot reconnect: {e}"))?;
    match client.request(&Request::Status { job: None })? {
        Frame::Summary { .. } => Ok(()),
        other => Err(format!("expected a summary, got {other:?}")),
    }
}

/// Scenario: a client that writes a byte, stalls past the server's read
/// timeout, and never completes its frame. The handler thread must time
/// it out; the daemon must stay responsive throughout.
pub fn slow_client(addr: SocketAddr, server_timeout: Duration) -> Verdict {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.write_all(b"{\"req\":").map_err(|e| format!("write: {e}"))?;
    // While the slow connection is still open and mid-frame, the daemon
    // must serve other clients.
    probe_alive(addr).map_err(|e| format!("daemon unresponsive behind a slow client: {e}"))?;
    // Out-wait the server's read timeout so the handler reaps us.
    std::thread::sleep(server_timeout + Duration::from_millis(200));
    probe_alive(addr).map_err(|e| format!("daemon unresponsive after reaping: {e}"))?;
    Ok("stalled mid-frame past the read timeout; daemon stayed responsive".to_string())
}

/// Scenario: a frame cut in half. Sent with a newline it must yield a
/// typed `bad_request`; cut *without* one (client died mid-write) the
/// connection just closes and the daemon moves on.
pub fn half_written_frame(addr: SocketAddr) -> Verdict {
    // Variant 1: torn-but-terminated line on a connection that stays up.
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;
    let mut torn = Request::Submit(SubmitSpec::default()).to_line();
    torn.truncate(torn.len() / 2);
    client.send_raw(&format!("{torn}\n")).map_err(|e| format!("write: {e}"))?;
    match client.read_frame()? {
        Frame::Rejected { reason: RejectReason::BadRequest, .. } => {}
        other => return Err(format!("torn frame should be bad_request, got {other:?}")),
    }
    // The same connection must still work after the rejection.
    match client.request(&Request::Status { job: None })? {
        Frame::Summary { .. } => {}
        other => return Err(format!("connection unusable after rejection: {other:?}")),
    }
    // Variant 2: half a frame then hangup (no newline ever arrives).
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.write_all(torn.as_bytes()).map_err(|e| format!("write: {e}"))?;
    drop(stream);
    probe_alive(addr).map_err(|e| format!("daemon unresponsive after mid-write hangup: {e}"))?;
    Ok("torn line rejected as bad_request; mid-write hangup survived".to_string())
}

/// Scenario: a watching client is killed while its job runs. The job
/// must finish anyway, and its results must be fetchable afterwards.
/// `spec` should be a small-but-real job (the caller controls size).
pub fn mid_job_kill(addr: SocketAddr, spec: SubmitSpec) -> Verdict {
    let mut spec = spec;
    spec.watch = true;
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;
    client.send(&Request::Submit(spec)).map_err(|e| format!("write: {e}"))?;
    let job = match client.read_frame()? {
        Frame::Accepted { job, .. } => job,
        other => return Err(format!("expected accepted, got {other:?}")),
    };
    // Die without reading a single event — an abrupt client kill.
    drop(client);

    // The orphaned job must still run to completion.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let mut poll = Client::connect_with_timeout(addr, Duration::from_secs(10))
            .map_err(|e| format!("reconnect: {e}"))?;
        match poll.request(&Request::Status { job: Some(job.clone()) })? {
            Frame::Status { state, failed_cells, .. } if state == "done" => {
                if failed_cells > 0 {
                    return Err(format!("orphaned job finished with {failed_cells} failed cells"));
                }
                let records = poll.fetch_results(&job)?;
                if records.is_empty() {
                    return Err("orphaned job produced no fetchable results".to_string());
                }
                return Ok(format!("orphaned {job} finished; {} records fetchable", records.len()));
            }
            Frame::Status { state, .. } if state == "cancelled" || state == "expired" => {
                return Err(format!("orphaned job was {state}; it should have kept running"))
            }
            Frame::Status { .. } => {}
            other => return Err(format!("unexpected status reply: {other:?}")),
        }
        if std::time::Instant::now() > deadline {
            return Err("orphaned job never finished".to_string());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
