//! The wire protocol: line-delimited flat JSON over TCP.
//!
//! Every frame is one `\n`-terminated flat JSON object built on the
//! workspace's [`vtq::jsonl`] primitives — the same closed format the
//! sweep journal and reproducers use, so a torn frame (a client killed
//! mid-write) is detected exactly like a torn journal tail: the
//! escape-aware scanner returns `None` and the server answers with a
//! typed `bad_request` instead of crashing or hanging.
//!
//! Requests carry a `"req"` discriminant; responses a `"resp"` one;
//! streamed progress a `"event"` one. Unknown fields are ignored (both
//! sides), so the format can grow without lockstep upgrades.

use std::collections::BTreeMap;
use std::io;
use std::time::Duration;

use gpusim::TraversalPolicy;
use rtscene::lumibench::SceneId;
use vtq::jsonl::{json_quote, json_str_field};

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

fn int_field(line: &str, name: &str) -> Option<u64> {
    vtq::jsonl::json_int_field(line, name).ok()
}

impl Request {
    /// Serializes the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit(spec) => {
                let scenes: Vec<&str> = spec.scenes.iter().map(|s| s.name()).collect();
                let policies: Vec<&str> = spec.policies.iter().map(|p| p.label()).collect();
                let mut line = format!(
                    "{{\"req\":\"submit\",\"tenant\":{},\"scenes\":{},\"policies\":{},\
                     \"quick\":{},\"watch\":{}",
                    json_quote(&spec.tenant),
                    json_quote(&scenes.join(",")),
                    json_quote(&policies.join(",")),
                    u8::from(spec.quick),
                    u8::from(spec.watch),
                );
                if let Some(res) = spec.res {
                    line.push_str(&format!(",\"res\":{res}"));
                }
                if let Some(detail) = spec.detail {
                    line.push_str(&format!(",\"detail\":{detail}"));
                }
                if let Some(deadline) = spec.deadline {
                    line.push_str(&format!(",\"deadline_ms\":{}", deadline.as_millis()));
                }
                if let Some(fp) = spec.expect_fingerprint {
                    line.push_str(&format!(
                        ",\"expect_fingerprint\":{}",
                        json_quote(&format!("{fp:016x}"))
                    ));
                }
                if !spec.chaos_panic.is_empty() {
                    line.push_str(&format!(
                        ",\"chaos_panic\":{}",
                        json_quote(&spec.chaos_panic.join(","))
                    ));
                }
                if let Some(sleep) = spec.chaos_sleep {
                    line.push_str(&format!(",\"chaos_sleep_ms\":{}", sleep.as_millis()));
                }
                line.push('}');
                line
            }
            Request::Status { job } => match job {
                Some(job) => format!("{{\"req\":\"status\",\"job\":{}}}", json_quote(job)),
                None => "{\"req\":\"status\"}".to_string(),
            },
            Request::Cancel { job } => {
                format!("{{\"req\":\"cancel\",\"job\":{}}}", json_quote(job))
            }
            Request::Results { job } => {
                format!("{{\"req\":\"results\",\"job\":{}}}", json_quote(job))
            }
            Request::Shutdown => "{\"req\":\"shutdown\"}".to_string(),
        }
    }

    /// Parses one wire line. `Err` carries a human-readable reason the
    /// server echoes inside its `bad_request` rejection.
    pub fn parse(line: &str) -> Result<Request, String> {
        // A complete frame is one flat JSON object; a line that does not
        // close its brace was torn mid-write and must never be acted on
        // (the flat field scanner would otherwise silently default the
        // missing tail fields).
        let line = line.trim_end();
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err("torn or non-JSON frame".to_string());
        }
        let req =
            json_str_field(line, "req").ok_or_else(|| "missing or torn `req` field".to_string())?;
        match req.as_str() {
            "submit" => {
                let mut spec = SubmitSpec {
                    tenant: json_str_field(line, "tenant").unwrap_or_else(|| "anon".to_string()),
                    quick: int_field(line, "quick").unwrap_or(1) != 0,
                    watch: int_field(line, "watch").unwrap_or(0) != 0,
                    res: int_field(line, "res").map(|v| v as u32),
                    detail: int_field(line, "detail").map(|v| v as u32),
                    deadline: int_field(line, "deadline_ms").map(Duration::from_millis),
                    chaos_sleep: int_field(line, "chaos_sleep_ms").map(Duration::from_millis),
                    ..SubmitSpec::default()
                };
                if let Some(list) = json_str_field(line, "scenes") {
                    spec.scenes = list
                        .split(',')
                        .map(|name| {
                            parse_scene(name).ok_or_else(|| format!("unknown scene `{name}`"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                if let Some(list) = json_str_field(line, "policies") {
                    spec.policies = list
                        .split(',')
                        .map(|name| {
                            parse_policy(name).ok_or_else(|| format!("unknown policy `{name}`"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                if let Some(fp) = json_str_field(line, "expect_fingerprint") {
                    spec.expect_fingerprint = Some(
                        u64::from_str_radix(&fp, 16)
                            .map_err(|_| format!("bad expect_fingerprint `{fp}`"))?,
                    );
                }
                if let Some(list) = json_str_field(line, "chaos_panic") {
                    spec.chaos_panic = list.split(',').map(str::to_string).collect();
                }
                if spec.scenes.is_empty() || spec.policies.is_empty() {
                    return Err("empty scene or policy list".to_string());
                }
                Ok(Request::Submit(spec))
            }
            "status" => Ok(Request::Status { job: json_str_field(line, "job") }),
            "cancel" => Ok(Request::Cancel {
                job: json_str_field(line, "job").ok_or("cancel needs a `job`")?,
            }),
            "results" => Ok(Request::Results {
                job: json_str_field(line, "job").ok_or("results needs a `job`")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request `{other}`")),
        }
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
        format!(
            "{{\"record\":\"cell_result\",\"scene\":{},\"label\":{},\"fingerprint\":{},\
             \"cycles\":{},\"rays\":{},\"box_tests\":{},\"tri_tests\":{}}}",
            json_quote(&self.scene),
            json_quote(&self.label),
            json_quote(&format!("{:016x}", self.fingerprint)),
            self.cycles,
            self.rays,
            self.box_tests,
            self.tri_tests,
        )
    }

    /// Parses a line rendered by [`to_line`](Self::to_line); `None` for
    /// non-`cell_result` records or torn lines.
    pub fn parse(line: &str) -> Option<CellRecord> {
        if json_str_field(line, "record").as_deref() != Some("cell_result") {
            return None;
        }
        Some(CellRecord {
            scene: json_str_field(line, "scene")?,
            label: json_str_field(line, "label")?,
            fingerprint: u64::from_str_radix(&json_str_field(line, "fingerprint")?, 16).ok()?,
            cycles: int_field(line, "cycles")?,
            rays: int_field(line, "rays")?,
            box_tests: int_field(line, "box_tests")?,
            tri_tests: int_field(line, "tri_tests")?,
        })
    }
}

impl Frame {
    /// Serializes the frame as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Frame::Accepted { job, fingerprint, cells } => format!(
                "{{\"resp\":\"accepted\",\"job\":{},\"fingerprint\":{},\"cells\":{cells}}}",
                json_quote(job),
                json_quote(&format!("{fingerprint:016x}")),
            ),
            Frame::Rejected { reason, detail } => format!(
                "{{\"resp\":\"rejected\",\"reason\":\"{}\",\"detail\":{}}}",
                reason.label(),
                json_quote(detail),
            ),
            Frame::Status { job, state, done_cells, total_cells, cached_cells, failed_cells } => {
                format!(
                    "{{\"resp\":\"status\",\"job\":{},\"state\":{},\"done_cells\":{done_cells},\
                     \"total_cells\":{total_cells},\"cached_cells\":{cached_cells},\
                     \"failed_cells\":{failed_cells}}}",
                    json_quote(job),
                    json_quote(state),
                )
            }
            Frame::Summary { queued, running, finished, poisoned } => format!(
                "{{\"resp\":\"summary\",\"queued\":{queued},\"running\":{running},\
                 \"finished\":{finished},\"poisoned\":{poisoned}}}"
            ),
            Frame::CellEvent { job, label, status, cycles, rays } => format!(
                "{{\"event\":\"cell\",\"job\":{},\"label\":{},\"status\":{},\
                 \"cycles\":{cycles},\"rays\":{rays}}}",
                json_quote(job),
                json_quote(label),
                json_quote(status),
            ),
            Frame::CellResult(record) => record.to_line(),
            Frame::ResultsEnd { cells } => {
                format!("{{\"resp\":\"results_end\",\"cells\":{cells}}}")
            }
            Frame::ShuttingDown => "{\"resp\":\"shutting_down\"}".to_string(),
        }
    }

    /// Parses one server line; `Err` carries the reason (torn frame,
    /// unknown discriminant).
    pub fn parse(line: &str) -> Result<Frame, String> {
        if let Some(record) = CellRecord::parse(line) {
            return Ok(Frame::CellResult(record));
        }
        if json_str_field(line, "event").as_deref() == Some("cell") {
            return Ok(Frame::CellEvent {
                job: json_str_field(line, "job").ok_or("torn event")?,
                label: json_str_field(line, "label").ok_or("torn event")?,
                status: json_str_field(line, "status").ok_or("torn event")?,
                cycles: int_field(line, "cycles").unwrap_or(0),
                rays: int_field(line, "rays").unwrap_or(0),
            });
        }
        let resp = json_str_field(line, "resp")
            .ok_or_else(|| format!("missing or torn `resp` field in `{line}`"))?;
        match resp.as_str() {
            "accepted" => Ok(Frame::Accepted {
                job: json_str_field(line, "job").ok_or("torn accepted frame")?,
                fingerprint: json_str_field(line, "fingerprint")
                    .and_then(|fp| u64::from_str_radix(&fp, 16).ok())
                    .ok_or("torn accepted frame")?,
                cells: int_field(line, "cells").unwrap_or(0) as usize,
            }),
            "rejected" => Ok(Frame::Rejected {
                reason: json_str_field(line, "reason")
                    .as_deref()
                    .and_then(RejectReason::parse)
                    .ok_or("torn rejected frame")?,
                detail: json_str_field(line, "detail").unwrap_or_default(),
            }),
            "status" => Ok(Frame::Status {
                job: json_str_field(line, "job").ok_or("torn status frame")?,
                state: json_str_field(line, "state").ok_or("torn status frame")?,
                done_cells: int_field(line, "done_cells").unwrap_or(0) as usize,
                total_cells: int_field(line, "total_cells").unwrap_or(0) as usize,
                cached_cells: int_field(line, "cached_cells").unwrap_or(0) as usize,
                failed_cells: int_field(line, "failed_cells").unwrap_or(0) as usize,
            }),
            "summary" => Ok(Frame::Summary {
                queued: int_field(line, "queued").unwrap_or(0) as usize,
                running: int_field(line, "running").unwrap_or(0) as usize,
                finished: int_field(line, "finished").unwrap_or(0) as usize,
                poisoned: int_field(line, "poisoned").unwrap_or(0) as usize,
            }),
            "results_end" => {
                Ok(Frame::ResultsEnd { cells: int_field(line, "cells").unwrap_or(0) as usize })
            }
            "shutting_down" => Ok(Frame::ShuttingDown),
            other => Err(format!("unknown response `{other}`")),
        }
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

    #[test]
    fn frames_round_trip() {
        let frames = [
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
        ];
        for frame in frames {
            assert_eq!(Frame::parse(&frame.to_line()).unwrap(), frame, "{}", frame.to_line());
        }
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
