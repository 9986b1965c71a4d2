//! The wire protocol: line-delimited flat JSON over TCP.
//!
//! Every frame is one `\n`-terminated flat JSON object read and written
//! with the workspace codec [`gpusim::frames::FlatRecord`], the same one
//! the sweep journal and reproducers use. A torn frame (a peer killed
//! mid-write) is therefore never a complete object: the server answers
//! it with a typed `bad_request` and a client gets an `Err`, instead of
//! either side acting on the fields that happened to arrive.
//!
//! Requests carry a `"req"` discriminant; responses a `"resp"` one;
//! streamed progress a `"event"` one. Unknown fields are ignored (both
//! sides), so the format can grow without lockstep upgrades.

use std::collections::BTreeMap;
use std::io;
use std::time::Duration;

use gpusim::frames::{FlatError, FlatRecord};
use gpusim::TraversalPolicy;
use rtscene::lumibench::SceneId;

/// Reasons a submission is rejected, as stable wire strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded job queue is full; resubmit after backoff.
    Overloaded,
    /// The tenant already has its quota of queued + running jobs.
    QuotaExceeded,
    /// The frame was malformed, referenced an unknown scene/policy, or
    /// used a chaos field without the server's `--chaos` opt-in.
    BadRequest,
    /// The client's expected config fingerprint does not match the
    /// server's (version/config skew between client and daemon).
    FingerprintMismatch,
    /// The server is draining for shutdown and admits nothing new.
    ShuttingDown,
}

impl RejectReason {
    /// The stable wire string.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Overloaded => "overloaded",
            RejectReason::QuotaExceeded => "quota",
            RejectReason::BadRequest => "bad_request",
            RejectReason::FingerprintMismatch => "fingerprint_mismatch",
            RejectReason::ShuttingDown => "shutting_down",
        }
    }

    /// Parses the wire string back.
    pub fn parse(s: &str) -> Option<RejectReason> {
        Some(match s {
            "overloaded" => RejectReason::Overloaded,
            "quota" => RejectReason::QuotaExceeded,
            "bad_request" => RejectReason::BadRequest,
            "fingerprint_mismatch" => RejectReason::FingerprintMismatch,
            "shutting_down" => RejectReason::ShuttingDown,
            _ => return None,
        })
    }
}

/// What a client can ask of the daemon. One request per line; the
/// response (and, for watched submits, a stream of events) comes back on
/// the same connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a sweep job.
    Submit(SubmitSpec),
    /// Job status by id, or the whole-service summary without an id.
    Status {
        /// Job id from an earlier `accepted` response; `None` = summary.
        job: Option<String>,
    },
    /// Cooperatively cancel a queued or running job.
    Cancel {
        /// Job id to cancel.
        job: String,
    },
    /// Re-fetch the per-cell results of a finished job (served from the
    /// persistent result cache, so this works across daemon restarts).
    Results {
        /// Job id to fetch.
        job: String,
    },
    /// Drain in-flight work and exit cleanly.
    Shutdown,
}

/// A job submission: which cells to run and under what guardrails.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// Tenant name for quota accounting.
    pub tenant: String,
    /// Scenes to sweep.
    pub scenes: Vec<SceneId>,
    /// Traversal policies per scene (labels: `baseline`, `prefetch`,
    /// `vtq`).
    pub policies: Vec<TraversalPolicy>,
    /// Use the reduced `ExperimentConfig::quick()` base configuration.
    pub quick: bool,
    /// Optional resolution override.
    pub res: Option<u32>,
    /// Optional detail-divisor override (tests use large divisors).
    pub detail: Option<u32>,
    /// Wall-clock deadline; an expired job stops at the next cell
    /// boundary and journals `interrupted`.
    pub deadline: Option<Duration>,
    /// Client's expected config fingerprint; the server rejects on
    /// mismatch so a skewed client never burns daemon compute.
    pub expect_fingerprint: Option<u64>,
    /// Stream per-cell `event` frames before the terminal response.
    pub watch: bool,
    /// Chaos injection: cells whose label is listed here panic
    /// deterministically. Only honored by a server started with
    /// `--chaos`; rejected otherwise.
    pub chaos_panic: Vec<String>,
    /// Chaos injection: every cell sleeps this long (cancellably) before
    /// simulating, to hold the executor busy for deterministic tests of
    /// admission, deadlines and cancellation. Gated like `chaos_panic`.
    pub chaos_sleep: Option<Duration>,
}

impl Default for SubmitSpec {
    fn default() -> SubmitSpec {
        SubmitSpec {
            tenant: "anon".to_string(),
            scenes: vec![SceneId::Ref],
            policies: vec![TraversalPolicy::Baseline],
            quick: true,
            res: None,
            detail: None,
            deadline: None,
            expect_fingerprint: None,
            watch: false,
            chaos_panic: Vec::new(),
            chaos_sleep: None,
        }
    }
}

/// Parses a policy label into its default-parameter policy.
pub fn parse_policy(label: &str) -> Option<TraversalPolicy> {
    Some(match label {
        "baseline" => TraversalPolicy::Baseline,
        "prefetch" => TraversalPolicy::TreeletPrefetch,
        "vtq" => TraversalPolicy::Vtq(gpusim::VtqParams::default()),
        _ => return None,
    })
}

/// Parses a scene name (case-insensitive, e.g. `REF`).
pub fn parse_scene(name: &str) -> Option<SceneId> {
    SceneId::ALL_WITH_EXTRAS.into_iter().find(|s| s.name().eq_ignore_ascii_case(name))
}

/// Writes one frame — `line` plus its `\n` terminator — with a single
/// `write_all`. Writing the newline separately would put every frame in
/// two TCP segments, and under Nagle the second one waits for the peer's
/// delayed ACK: tens of milliseconds per request/response on loopback.
pub fn write_line<W: io::Write>(out: &mut W, mut line: String) -> io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Decodes a fingerprint rendered as 16 hex digits.
fn hex(v: &str) -> Result<u64, String> {
    u64::from_str_radix(v, 16).map_err(|_| format!("bad fingerprint `{v}`"))
}

impl Request {
    /// Serializes the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let req = |name: &str| FlatRecord::default().with_str("req", name);
        match self {
            Request::Submit(spec) => {
                let scenes: Vec<&str> = spec.scenes.iter().map(|s| s.name()).collect();
                let policies: Vec<&str> = spec.policies.iter().map(|p| p.label()).collect();
                let mut rec = req("submit")
                    .with_str("tenant", &spec.tenant)
                    .with_str("scenes", &scenes.join(","))
                    .with_str("policies", &policies.join(","))
                    .with("quick", u8::from(spec.quick))
                    .with("watch", u8::from(spec.watch));
                if let Some(res) = spec.res {
                    rec = rec.with("res", res);
                }
                if let Some(detail) = spec.detail {
                    rec = rec.with("detail", detail);
                }
                if let Some(deadline) = spec.deadline {
                    rec = rec.with("deadline_ms", deadline.as_millis());
                }
                if let Some(fp) = spec.expect_fingerprint {
                    rec = rec.with_str("expect_fingerprint", &format!("{fp:016x}"));
                }
                if !spec.chaos_panic.is_empty() {
                    rec = rec.with_str("chaos_panic", &spec.chaos_panic.join(","));
                }
                if let Some(sleep) = spec.chaos_sleep {
                    rec = rec.with("chaos_sleep_ms", sleep.as_millis());
                }
                rec
            }
            Request::Status { job: Some(job) } => req("status").with_str("job", job),
            Request::Status { job: None } => req("status"),
            Request::Cancel { job } => req("cancel").with_str("job", job),
            Request::Results { job } => req("results").with_str("job", job),
            Request::Shutdown => req("shutdown"),
        }
        .to_string()
    }

    /// Parses one wire line. `Err` carries a human-readable reason the
    /// server echoes inside its `bad_request` rejection. Optional submit
    /// fields default when absent; a torn line is never a request.
    pub fn parse(line: &str) -> Result<Request, String> {
        FlatRecord::parse(line)
            .and_then(|rec| Request::from_record(&rec))
            .map_err(|e| e.to_string())
    }

    fn from_record(rec: &FlatRecord) -> Result<Request, FlatError> {
        let ms = |key: &str| Ok::<_, FlatError>(rec.opt_u64(key)?.map(Duration::from_millis));
        let list = |key: &str| Ok::<_, FlatError>(rec.opt_str(key)?.map(|l| l.split(',')));
        Ok(match rec.str("req")? {
            "submit" => {
                let mut spec = SubmitSpec {
                    tenant: rec.opt_str("tenant")?.unwrap_or("anon").to_string(),
                    quick: rec.opt_u64("quick")?.unwrap_or(1) != 0,
                    watch: rec.opt_u64("watch")?.unwrap_or(0) != 0,
                    res: rec.opt_u64("res")?.map(|v| v as u32),
                    detail: rec.opt_u64("detail")?.map(|v| v as u32),
                    deadline: ms("deadline_ms")?,
                    chaos_sleep: ms("chaos_sleep_ms")?,
                    ..SubmitSpec::default()
                };
                if let Some(names) = list("scenes")? {
                    spec.scenes = names
                        .map(|n| parse_scene(n).ok_or_else(|| format!("unknown scene `{n}`")))
                        .collect::<Result<_, _>>()
                        .map_err(|e| rec.error("scenes", e))?;
                }
                if let Some(names) = list("policies")? {
                    spec.policies = names
                        .map(|n| parse_policy(n).ok_or_else(|| format!("unknown policy `{n}`")))
                        .collect::<Result<_, _>>()
                        .map_err(|e| rec.error("policies", e))?;
                }
                if rec.opt_str("expect_fingerprint")?.is_some() {
                    spec.expect_fingerprint = Some(rec.str_with("expect_fingerprint", hex)?);
                }
                if let Some(labels) = list("chaos_panic")? {
                    spec.chaos_panic = labels.map(str::to_string).collect();
                }
                if spec.scenes.is_empty() || spec.policies.is_empty() {
                    return Err(rec.error("scenes", "empty scene or policy list"));
                }
                Request::Submit(spec)
            }
            "status" => Request::Status { job: rec.opt_str("job")?.map(str::to_string) },
            "cancel" => Request::Cancel { job: rec.str("job")?.to_string() },
            "results" => Request::Results { job: rec.str("job")?.to_string() },
            "shutdown" => Request::Shutdown,
            other => return Err(rec.error("req", format!("unknown request `{other}`"))),
        })
    }
}

/// A server frame: either a one-shot response or a streamed event. The
/// server renders these; clients pattern-match on the parsed form.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Submission accepted; `job` is the handle for status/cancel and
    /// `fingerprint` the server-computed config fingerprint.
    Accepted {
        /// Job id.
        job: String,
        /// Policy-normalized config fingerprint of the job's config.
        fingerprint: u64,
        /// Total cells in the job's matrix.
        cells: usize,
    },
    /// Submission (or other request) refused, with a typed reason.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Human-readable detail.
        detail: String,
    },
    /// Status of one job (also the terminal frame of a watched submit).
    Status {
        /// Job id.
        job: String,
        /// Job state label (see `jobs::JobState`).
        state: String,
        /// Cells settled so far (done + cached + failed + quarantined).
        done_cells: usize,
        /// Total cells.
        total_cells: usize,
        /// Cells served from the persistent result cache.
        cached_cells: usize,
        /// Cells that panicked (including quarantined ones).
        failed_cells: usize,
    },
    /// Whole-service summary.
    Summary {
        /// Jobs currently queued.
        queued: usize,
        /// Jobs currently running.
        running: usize,
        /// Jobs finished (any terminal state) since daemon start.
        finished: usize,
        /// Distinct quarantined cell keys.
        poisoned: usize,
    },
    /// One per-cell progress event (streamed while `watch` is set).
    CellEvent {
        /// Owning job id.
        job: String,
        /// Cell label (`SCENE/policy`).
        label: String,
        /// `done`, `cached`, `failed`, `quarantined` or `interrupted`.
        status: String,
        /// Simulated cycles (0 when unavailable).
        cycles: u64,
        /// Rays completed (0 when unavailable).
        rays: u64,
    },
    /// One per-cell result record (the `results` reply body).
    CellResult(CellRecord),
    /// Terminates a `results` body.
    ResultsEnd {
        /// Number of `CellResult` frames that preceded.
        cells: usize,
    },
    /// Acknowledges `shutdown`.
    ShuttingDown,
}

/// The persistent, cacheable outcome of one cell — the same record shape
/// the result cache stores on disk, so a `results` reply is literally a
/// replay of cache entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Scene name.
    pub scene: String,
    /// Cell label (`SCENE/policy`).
    pub label: String,
    /// Content-address: `cell_key_fingerprint` of the cell.
    pub fingerprint: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Rays completed.
    pub rays: u64,
    /// Ray-box intersection tests.
    pub box_tests: u64,
    /// Ray-triangle intersection tests.
    pub tri_tests: u64,
}

impl CellRecord {
    /// Renders the flat cache/wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        FlatRecord::default()
            .with_str("record", "cell_result")
            .with_str("scene", &self.scene)
            .with_str("label", &self.label)
            .with_str("fingerprint", &format!("{:016x}", self.fingerprint))
            .with("cycles", self.cycles)
            .with("rays", self.rays)
            .with("box_tests", self.box_tests)
            .with("tri_tests", self.tri_tests)
            .to_string()
    }

    /// Parses a line rendered by [`to_line`](Self::to_line); `None` for
    /// non-`cell_result` records or torn lines.
    pub fn parse(line: &str) -> Option<CellRecord> {
        CellRecord::from_record(&FlatRecord::parse(line).ok()?).ok()
    }

    pub(crate) fn from_record(rec: &FlatRecord) -> Result<CellRecord, FlatError> {
        if rec.str("record")? != "cell_result" {
            return Err(rec.error("record", "not a `cell_result` record"));
        }
        Ok(CellRecord {
            scene: rec.str("scene")?.to_string(),
            label: rec.str("label")?.to_string(),
            fingerprint: rec.str_with("fingerprint", hex)?,
            cycles: rec.u64("cycles")?,
            rays: rec.u64("rays")?,
            box_tests: rec.u64("box_tests")?,
            tri_tests: rec.u64("tri_tests")?,
        })
    }
}

impl Frame {
    /// Serializes the frame as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let resp = |name: &str| FlatRecord::default().with_str("resp", name);
        match self {
            Frame::Accepted { job, fingerprint, cells } => resp("accepted")
                .with_str("job", job)
                .with_str("fingerprint", &format!("{fingerprint:016x}"))
                .with("cells", cells),
            Frame::Rejected { reason, detail } => {
                resp("rejected").with_str("reason", reason.label()).with_str("detail", detail)
            }
            Frame::Status { job, state, done_cells, total_cells, cached_cells, failed_cells } => {
                resp("status")
                    .with_str("job", job)
                    .with_str("state", state)
                    .with("done_cells", done_cells)
                    .with("total_cells", total_cells)
                    .with("cached_cells", cached_cells)
                    .with("failed_cells", failed_cells)
            }
            Frame::Summary { queued, running, finished, poisoned } => resp("summary")
                .with("queued", queued)
                .with("running", running)
                .with("finished", finished)
                .with("poisoned", poisoned),
            Frame::CellEvent { job, label, status, cycles, rays } => FlatRecord::default()
                .with_str("event", "cell")
                .with_str("job", job)
                .with_str("label", label)
                .with_str("status", status)
                .with("cycles", cycles)
                .with("rays", rays),
            Frame::CellResult(record) => return record.to_line(),
            Frame::ResultsEnd { cells } => resp("results_end").with("cells", cells),
            Frame::ShuttingDown => resp("shutting_down"),
        }
        .to_string()
    }

    /// Parses one server line; `Err` carries the reason (torn frame,
    /// unknown discriminant, missing field). Every field
    /// [`to_line`](Self::to_line) writes is required.
    pub fn parse(line: &str) -> Result<Frame, String> {
        FlatRecord::parse(line).and_then(|rec| Frame::from_record(&rec)).map_err(|e| e.to_string())
    }

    fn from_record(rec: &FlatRecord) -> Result<Frame, FlatError> {
        if rec.opt_str("record")? == Some("cell_result") {
            return Ok(Frame::CellResult(CellRecord::from_record(rec)?));
        }
        let text = |key: &str| rec.str(key).map(str::to_string);
        let count = |key: &str| rec.u64(key).map(|v| v as usize);
        if rec.opt_str("event")? == Some("cell") {
            return Ok(Frame::CellEvent {
                job: text("job")?,
                label: text("label")?,
                status: text("status")?,
                cycles: rec.u64("cycles")?,
                rays: rec.u64("rays")?,
            });
        }
        Ok(match rec.str("resp")? {
            "accepted" => Frame::Accepted {
                job: text("job")?,
                fingerprint: rec.str_with("fingerprint", hex)?,
                cells: count("cells")?,
            },
            "rejected" => Frame::Rejected {
                reason: rec.str_with("reason", |r| {
                    RejectReason::parse(r).ok_or_else(|| format!("unknown reject reason `{r}`"))
                })?,
                detail: text("detail")?,
            },
            "status" => Frame::Status {
                job: text("job")?,
                state: text("state")?,
                done_cells: count("done_cells")?,
                total_cells: count("total_cells")?,
                cached_cells: count("cached_cells")?,
                failed_cells: count("failed_cells")?,
            },
            "summary" => Frame::Summary {
                queued: count("queued")?,
                running: count("running")?,
                finished: count("finished")?,
                poisoned: count("poisoned")?,
            },
            "results_end" => Frame::ResultsEnd { cells: count("cells")? },
            "shutting_down" => Frame::ShuttingDown,
            other => return Err(rec.error("resp", format!("unknown response `{other}`"))),
        })
    }
}

/// Deterministically fingerprints a submission's *content* (tenant and
/// watch flag excluded): two clients asking for the same cells get the
/// same fingerprint, which is what makes crash recovery work — a
/// resubmitted job lands on the same journal scope and the same cache
/// keys as its pre-crash incarnation.
pub fn spec_fingerprint(spec: &SubmitSpec) -> u64 {
    use std::hash::Hasher as _;
    // Canonical rendering via BTreeMap so field order is fixed.
    let mut fields = BTreeMap::new();
    fields.insert("scenes", spec.scenes.iter().map(|s| s.name()).collect::<Vec<_>>().join(","));
    fields.insert(
        "policies",
        spec.policies.iter().map(|p| format!("{p:?}")).collect::<Vec<_>>().join(","),
    );
    fields.insert("quick", spec.quick.to_string());
    fields.insert("res", format!("{:?}", spec.res));
    fields.insert("detail", format!("{:?}", spec.detail));
    fields.insert("chaos", spec.chaos_panic.join(","));
    fields.insert("chaos_sleep", format!("{:?}", spec.chaos_sleep));
    let mut hash = FnvHasher(0xcbf2_9ce4_8422_2325);
    for (k, v) in fields {
        hash.write(k.as_bytes());
        hash.write(b"=");
        hash.write(v.as_bytes());
        hash.write(b";");
    }
    hash.finish()
}

struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the buffer of every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_each_frame_in_one_write() {
        let frames = [
            Request::Status { job: Some("j7".to_string()) }.to_line(),
            Frame::ResultsEnd { cells: 3 }.to_line(),
            Frame::ShuttingDown.to_line(),
        ];
        let mut out = CountingWriter::default();
        for line in &frames {
            write_line(&mut out, line.clone()).unwrap();
        }
        assert_eq!(out.writes.len(), frames.len(), "exactly one write per frame");
        for (write, line) in out.writes.iter().zip(&frames) {
            assert_eq!(write, format!("{line}\n").as_bytes(), "whole line plus newline");
        }
    }

    #[test]
    fn submit_round_trips() {
        let spec = SubmitSpec {
            tenant: "alice,with\"quotes".to_string(),
            scenes: vec![SceneId::Ref, SceneId::Bunny],
            policies: vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()],
            quick: true,
            res: Some(16),
            detail: Some(64),
            deadline: Some(Duration::from_millis(1500)),
            expect_fingerprint: Some(0xdead_beef),
            watch: true,
            chaos_panic: vec!["REF/vtq".to_string()],
            chaos_sleep: Some(Duration::from_millis(250)),
        };
        let line = Request::Submit(spec.clone()).to_line();
        assert_eq!(Request::parse(&line).unwrap(), Request::Submit(spec));
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Status { job: None },
            Request::Status { job: Some("j3".into()) },
            Request::Cancel { job: "j1".into() },
            Request::Results { job: "j2".into() },
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn torn_and_bogus_requests_are_typed_errors() {
        assert!(Request::parse("{\"req\":\"subm").is_err());
        assert!(Request::parse("not json at all").is_err());
        assert!(Request::parse("{\"req\":\"teleport\"}").is_err());
        assert!(Request::parse("{\"req\":\"cancel\"}").unwrap_err().contains("job"));
        let bad_scene = "{\"req\":\"submit\",\"scenes\":\"NOPE\"}";
        assert!(Request::parse(bad_scene).unwrap_err().contains("NOPE"));
    }

    fn all_frames() -> [Frame; 8] {
        [
            Frame::Accepted { job: "j1".into(), fingerprint: 0xabc, cells: 4 },
            Frame::Rejected { reason: RejectReason::Overloaded, detail: "queue full (16)".into() },
            Frame::Status {
                job: "j1".into(),
                state: "running".into(),
                done_cells: 2,
                total_cells: 4,
                cached_cells: 1,
                failed_cells: 0,
            },
            Frame::Summary { queued: 1, running: 1, finished: 7, poisoned: 2 },
            Frame::CellEvent {
                job: "j1".into(),
                label: "REF/vtq".into(),
                status: "done".into(),
                cycles: 123,
                rays: 456,
            },
            Frame::CellResult(CellRecord {
                scene: "REF".into(),
                label: "REF/baseline".into(),
                fingerprint: 0x1234,
                cycles: 9,
                rays: 8,
                box_tests: 7,
                tri_tests: 6,
            }),
            Frame::ResultsEnd { cells: 3 },
            Frame::ShuttingDown,
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in all_frames() {
            assert_eq!(Frame::parse(&frame.to_line()).unwrap(), frame, "{}", frame.to_line());
        }
    }

    /// A daemon killed mid-write leaves a partial last line; no prefix of
    /// any frame may parse, or a count cut inside `12` would read as `1`.
    #[test]
    fn every_proper_prefix_of_a_frame_is_rejected() {
        for frame in all_frames() {
            let line = frame.to_line();
            for cut in 0..line.len() {
                let torn = &line[..cut];
                assert!(Frame::parse(torn).is_err(), "torn frame parsed: {torn}");
                if let Frame::CellResult(_) = frame {
                    assert_eq!(CellRecord::parse(torn), None, "torn record parsed: {torn}");
                }
            }
        }
    }

    #[test]
    fn frames_missing_a_written_field_are_rejected() {
        let status = "{\"resp\":\"status\",\"job\":\"j1\",\"state\":\"done\",\"done_cells\":12}";
        assert!(Frame::parse(status).unwrap_err().contains("total_cells"));
        let event = "{\"event\":\"cell\",\"job\":\"j1\",\"label\":\"REF/vtq\",\"status\":\"done\"}";
        assert!(Frame::parse(event).unwrap_err().contains("cycles"));
    }

    #[test]
    fn spec_fingerprint_is_content_addressed() {
        let a = SubmitSpec::default();
        let mut b = a.clone();
        b.tenant = "someone-else".to_string();
        b.watch = true;
        // Tenant and watch are presentation, not content.
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
        let mut c = a.clone();
        c.policies.push(parse_policy("vtq").unwrap());
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&c));
        let mut d = a.clone();
        d.res = Some(32);
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&d));
    }
}
