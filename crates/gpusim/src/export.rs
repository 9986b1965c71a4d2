//! Machine-readable exporters for the observability data: JSON Lines for
//! trace events, CSV for the time series and stall breakdowns, and a flat
//! JSON object of a run's headline metrics.
//!
//! Everything here is hand-rolled string formatting — the workspace has no
//! serde dependency, and the schemas are small and stable. Numeric rules:
//! integers print as-is; floats print via [`json_f64`], which maps
//! NaN/infinite values to `null` so the output stays valid JSON.

use std::fmt::Write as _;

use crate::error::{ForensicsSnapshot, SmSnapshot};
use crate::frames::{quote, records, FlatError};
use crate::observe::{RingSink, SamplePoint, StallBreakdown, StallKind, TraceEvent};
use crate::sim::SimReport;
use crate::stats::TraversalMode;

// ---------------------------------------------------------------------------
// JSON primitives
// ---------------------------------------------------------------------------

/// Renders an `f64` as a JSON value: finite numbers as-is, NaN and
/// infinities as `null` (JSON has no representation for them).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders an optional rate as a JSON value (`None` → `null`).
pub fn json_opt_f64(x: Option<f64>) -> String {
    match x {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Trace events → JSON Lines
// ---------------------------------------------------------------------------

/// One trace event as a single-line JSON object. Every line carries
/// `event` (the [`TraceEvent::tag`]) and `cycle`; the remaining keys are
/// event-specific.
pub fn event_json(event: &TraceEvent) -> String {
    let head = format!("{{\"event\":\"{}\",\"cycle\":{}", event.tag(), event.cycle());
    let body = match *event {
        TraceEvent::CtaLaunch { cta, sm, .. }
        | TraceEvent::CtaResume { cta, sm, .. }
        | TraceEvent::CtaRetire { cta, sm, .. } => {
            format!(",\"cta\":{cta},\"sm\":{sm}")
        }
        TraceEvent::CtaSuspend { cta, sm, rays, .. } => {
            format!(",\"cta\":{cta},\"sm\":{sm},\"rays\":{rays}")
        }
        TraceEvent::WarpIssue { sm, cta, rays, .. } => {
            format!(",\"sm\":{sm},\"cta\":{cta},\"rays\":{rays}")
        }
        TraceEvent::WarpRetire { sm, mode, .. } => {
            format!(",\"sm\":{sm},\"mode\":\"{mode}\"")
        }
        TraceEvent::TreeletDispatch { sm, treelet, rays, .. } => {
            format!(",\"sm\":{sm},\"treelet\":{},\"rays\":{rays}", treelet.0)
        }
        TraceEvent::GroupDispatch { sm, rays, .. } => {
            format!(",\"sm\":{sm},\"rays\":{rays}")
        }
        TraceEvent::Repack { sm, added, .. } => {
            format!(",\"sm\":{sm},\"added\":{added}")
        }
        TraceEvent::DivergenceSplit { sm, treelets, rays, .. } => {
            format!(",\"sm\":{sm},\"treelets\":{treelets},\"rays\":{rays}")
        }
        TraceEvent::ModeTransition { sm, from, to, .. } => {
            let from = match from {
                Some(m) => format!("\"{m}\""),
                None => "null".to_string(),
            };
            format!(",\"sm\":{sm},\"from\":{from},\"to\":\"{to}\"")
        }
        TraceEvent::MissBurst { sm, mode, lines, stall, .. } => {
            format!(",\"sm\":{sm},\"mode\":\"{mode}\",\"lines\":{lines},\"stall\":{stall}")
        }
    };
    format!("{head}{body}}}")
}

/// Serializes events as JSON Lines (one object per line, newline
/// terminated).
pub fn events_jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_json(event));
        out.push('\n');
    }
    out
}

impl RingSink {
    /// The buffered events as JSON Lines (oldest first).
    pub fn to_jsonl(&self) -> String {
        events_jsonl(self.events())
    }
}

// ---------------------------------------------------------------------------
// Time series / stalls → CSV
// ---------------------------------------------------------------------------

/// Serializes the sampling-window time series as CSV with a header row.
///
/// Columns: `start_cycle, covered_cycles, mean_rays_in_flight,
/// mean_occupied_slots, mode_initial_cycles, mode_treelet_cycles,
/// mode_ray_cycles`, then one column per [`StallKind`] label. Uncovered
/// windows print empty cells for the means.
pub fn series_csv(series: &[SamplePoint]) -> String {
    let mut out = String::from("start_cycle,covered_cycles,mean_rays_in_flight,mean_occupied_slots,mode_initial_cycles,mode_treelet_cycles,mode_ray_cycles");
    for kind in StallKind::ALL {
        let _ = write!(out, ",{}", kind.label());
    }
    out.push('\n');
    for w in series {
        let _ = write!(out, "{},{}", w.start_cycle, w.covered_cycles);
        for mean in [w.mean_rays_in_flight(), w.mean_occupied_slots()] {
            match mean {
                Some(v) => {
                    let _ = write!(out, ",{v:.3}");
                }
                None => out.push(','),
            }
        }
        for m in w.mode_cycles {
            let _ = write!(out, ",{m}");
        }
        for kind in StallKind::ALL {
            let _ = write!(out, ",{}", w.stall.get(kind));
        }
        out.push('\n');
    }
    out
}

/// Serializes per-RT-unit stall breakdowns as CSV: one row per SM plus a
/// `total` row, one column per [`StallKind`].
pub fn stall_csv(stall: &[StallBreakdown]) -> String {
    let mut out = String::from("sm");
    for kind in StallKind::ALL {
        let _ = write!(out, ",{}", kind.label());
    }
    out.push_str(",total\n");
    let mut agg = StallBreakdown::default();
    for (sm, unit) in stall.iter().enumerate() {
        let _ = write!(out, "{sm}");
        for kind in StallKind::ALL {
            let _ = write!(out, ",{}", unit.get(kind));
        }
        let _ = writeln!(out, ",{}", unit.total());
        agg.merge(unit);
    }
    let _ = write!(out, "total");
    for kind in StallKind::ALL {
        let _ = write!(out, ",{}", agg.get(kind));
    }
    let _ = writeln!(out, ",{}", agg.total());
    out
}

// ---------------------------------------------------------------------------
// Run metrics → JSON
// ---------------------------------------------------------------------------

/// Flattens a run's headline metrics into one JSON object (single line).
///
/// `label` tags the run (scene/policy); rates that are undefined for the
/// run (e.g. prefetch use without a prefetcher) export as `null`, never a
/// fake zero.
pub fn metrics_json(label: &str, report: &SimReport) -> String {
    let s = &report.stats;
    let bvh = report.mem.kind(gpumem::AccessKind::Bvh);
    let mut out = String::from("{");
    let _ = write!(out, "\"label\":{}", quote(label));
    let _ = write!(out, ",\"cycles\":{}", s.cycles);
    let _ = write!(out, ",\"rays_completed\":{}", s.rays_completed);
    let _ = write!(out, ",\"warps_issued\":{}", s.warps_issued);
    let _ = write!(out, ",\"simt_efficiency\":{}", json_opt_f64(s.simt_efficiency_opt()));
    let _ = write!(out, ",\"box_tests\":{}", s.box_tests);
    let _ = write!(out, ",\"tri_tests\":{}", s.tri_tests);
    for mode in TraversalMode::ALL {
        let tag = match mode {
            TraversalMode::Initial => "initial",
            TraversalMode::TreeletStationary => "treelet",
            TraversalMode::RayStationary => "ray",
        };
        let _ = write!(out, ",\"mode_cycles_{tag}\":{}", s.cycles_in(mode));
    }
    let _ = write!(out, ",\"treelet_isect_ratio\":{}", json_opt_f64(s.treelet_isect_ratio_opt()));
    let _ = write!(out, ",\"treelet_dispatches\":{}", s.treelet_dispatches);
    let _ = write!(out, ",\"repack_events\":{}", s.repack_events);
    let _ = write!(out, ",\"cta_suspends\":{}", s.cta_suspends);
    let _ = write!(out, ",\"cta_resumes\":{}", s.cta_resumes);
    let _ = write!(out, ",\"cta_state_bytes\":{}", s.cta_state_bytes);
    let _ = write!(out, ",\"peak_rays_in_flight\":{}", s.peak_rays_in_flight);
    let _ = write!(out, ",\"queue_table_peak_entries\":{}", s.queue_table_peak_entries);
    let _ = write!(out, ",\"queue_table_max_chain\":{}", s.queue_table_max_chain);
    let _ = write!(out, ",\"queue_table_overflows\":{}", s.queue_table_overflows);
    let _ = write!(out, ",\"prefetch_use_rate\":{}", json_opt_f64(s.prefetch_use_rate_opt()));
    let _ = write!(out, ",\"bvh_l1_miss_rate\":{}", json_opt_f64(bvh.l1_miss_rate_opt()));
    let _ = write!(out, ",\"dram_lines\":{}", report.mem.total_dram_lines());
    let _ = write!(out, ",\"energy_pj\":{}", json_f64(report.energy.total_pj()));
    let _ = write!(
        out,
        ",\"energy_virtualization_fraction\":{}",
        json_f64(report.energy.virtualization_fraction())
    );
    let mut agg = StallBreakdown::default();
    for unit in &s.stall {
        agg.merge(unit);
    }
    for kind in StallKind::ALL {
        let _ = write!(out, ",\"stall_{}\":{}", kind.label(), agg.get(kind));
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Deadlock forensics snapshot ↔ JSON Lines
// ---------------------------------------------------------------------------

/// Serializes a watchdog forensics snapshot as JSON Lines: one
/// `{"record":"forensics",...}` header line with the machine-wide counters
/// followed by one `{"record":"forensics_sm",...}` line per SM. Every value
/// is a flat integer, so the format round-trips through
/// [`parse_snapshot_jsonl`] without a JSON library.
pub fn snapshot_jsonl(s: &ForensicsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"record\":\"forensics\",\"cycle\":{},\"rays_created\":{},\"rays_completed\":{},\
         \"ctas_total\":{},\"ctas_unfinished\":{},\"pending_ctas\":{},\"resume_ready_ctas\":{},\
         \"mem_in_flight\":{},\"sms\":{}}}",
        s.cycle,
        s.rays_created,
        s.rays_completed,
        s.ctas_total,
        s.ctas_unfinished,
        s.pending_ctas,
        s.resume_ready_ctas,
        s.mem_in_flight,
        s.sms.len(),
    );
    for u in &s.sms {
        let _ = writeln!(
            out,
            "{{\"record\":\"forensics_sm\",\"sm\":{},\"free_cta_slots\":{},\"resident_warps\":{},\
             \"warp_buffer_slots\":{},\"incoming_warps\":{},\"queued_rays\":{},\
             \"treelet_queues\":{},\"rays_in_flight\":{},\"shader_active\":{},\
             \"reserved_rays\":{},\"last_progress_cycle\":{}}}",
            u.sm,
            u.free_cta_slots,
            u.resident_warps,
            u.warp_buffer_slots,
            u.incoming_warps,
            u.queued_rays,
            u.treelet_queues,
            u.rays_in_flight,
            u.shader_active,
            u.reserved_rays,
            u.last_progress_cycle,
        );
    }
    out
}

/// Parses the output of [`snapshot_jsonl`] back into a
/// [`ForensicsSnapshot`] — the round-trip used by tooling that post-mortems
/// a dumped deadlock.
///
/// # Errors
///
/// Returns a typed [`FlatError`] locating the first malformed line,
/// missing field, or SM-count mismatch. Never panics, whatever the input.
pub fn parse_snapshot_jsonl(text: &str) -> Result<ForensicsSnapshot, FlatError> {
    let mut lines = records(text);
    let header = lines.next().ok_or_else(|| FlatError::new(0, "empty snapshot dump"))??;
    let record = header.opt_str("record").ok().flatten();
    if record != Some("forensics") {
        return Err(
            header.error("record", format!("expected a `forensics` header record, got {record:?}"))
        );
    }
    let u = |key: &str| header.u64(key);
    let mut snapshot = ForensicsSnapshot {
        cycle: u("cycle")?,
        rays_created: u("rays_created")?,
        rays_completed: u("rays_completed")?,
        ctas_total: u("ctas_total")? as usize,
        ctas_unfinished: u("ctas_unfinished")? as usize,
        pending_ctas: u("pending_ctas")? as usize,
        resume_ready_ctas: u("resume_ready_ctas")? as usize,
        mem_in_flight: u("mem_in_flight")? as usize,
        sms: Vec::new(),
    };
    let expected = u("sms")? as usize;
    for sm in lines {
        let sm = sm?;
        let record = sm.opt_str("record").ok().flatten();
        if record != Some("forensics_sm") {
            return Err(
                sm.error("record", format!("expected a `forensics_sm` record, got {record:?}"))
            );
        }
        let u = |key: &str| sm.u64(key).map(|v| v as usize);
        snapshot.sms.push(SmSnapshot {
            sm: u("sm")?,
            free_cta_slots: u("free_cta_slots")?,
            resident_warps: u("resident_warps")?,
            warp_buffer_slots: u("warp_buffer_slots")?,
            incoming_warps: u("incoming_warps")?,
            queued_rays: u("queued_rays")?,
            treelet_queues: u("treelet_queues")?,
            rays_in_flight: u("rays_in_flight")?,
            shader_active: u("shader_active")?,
            reserved_rays: u("reserved_rays")?,
            last_progress_cycle: sm.u64("last_progress_cycle")?,
        });
    }
    if snapshot.sms.len() != expected {
        return Err(FlatError::new(
            0,
            format!("header declared {expected} SMs but {} records followed", snapshot.sms.len()),
        ));
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbvh::TreeletId;

    #[test]
    fn snapshot_jsonl_round_trips() {
        let snap = ForensicsSnapshot {
            cycle: 123,
            rays_created: 64,
            rays_completed: 10,
            ctas_total: 4,
            ctas_unfinished: 3,
            pending_ctas: 2,
            resume_ready_ctas: 1,
            mem_in_flight: 7,
            sms: vec![
                SmSnapshot {
                    sm: 0,
                    free_cta_slots: 1,
                    resident_warps: 2,
                    warp_buffer_slots: 8,
                    incoming_warps: 1,
                    queued_rays: 30,
                    treelet_queues: 5,
                    rays_in_flight: 54,
                    shader_active: 1,
                    reserved_rays: 64,
                    last_progress_cycle: 120,
                },
                SmSnapshot { sm: 1, warp_buffer_slots: 8, ..Default::default() },
            ],
        };
        let text = snapshot_jsonl(&snap);
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"record\":\"forensics\","));
        assert!(text.contains("\"record\":\"forensics_sm\",\"sm\":1,"));
        let back = parse_snapshot_jsonl(&text).expect("round-trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_parse_rejects_garbage() {
        assert!(parse_snapshot_jsonl("").is_err());
        assert!(parse_snapshot_jsonl("not json").is_err());
        assert!(parse_snapshot_jsonl("{\"record\":\"forensics_sm\",\"sm\":0}").is_err());
        // Header that promises more SM records than it delivers.
        let text = "{\"record\":\"forensics\",\"cycle\":1,\"rays_created\":0,\
                    \"rays_completed\":0,\"ctas_total\":0,\"ctas_unfinished\":0,\
                    \"pending_ctas\":0,\"resume_ready_ctas\":0,\"mem_in_flight\":0,\"sms\":2}";
        let err = parse_snapshot_jsonl(text).unwrap_err();
        assert!(err.reason.contains("declared 2 SMs"), "got: {err}");
    }

    /// Table-driven corruption sweep: every malformed or truncated input
    /// must come back as a typed [`FlatError`] naming the offending line —
    /// never a panic, never a silent partial parse.
    #[test]
    fn malformed_snapshots_return_typed_errors() {
        let header = "{\"record\":\"forensics\",\"cycle\":1,\"rays_created\":0,\
                      \"rays_completed\":0,\"ctas_total\":0,\"ctas_unfinished\":0,\
                      \"pending_ctas\":0,\"resume_ready_ctas\":0,\"mem_in_flight\":0,\"sms\":1}";
        let sm = "{\"record\":\"forensics_sm\",\"sm\":0,\"free_cta_slots\":1,\
                  \"resident_warps\":0,\"warp_buffer_slots\":1,\"incoming_warps\":0,\
                  \"queued_rays\":0,\"treelet_queues\":0,\"rays_in_flight\":0,\
                  \"shader_active\":0,\"reserved_rays\":0,\"last_progress_cycle\":0}";
        let good = format!("{header}\n{sm}\n");
        assert!(parse_snapshot_jsonl(&good).is_ok(), "control case must parse");

        struct Case {
            name: &'static str,
            text: String,
            line: usize,
            reason_contains: &'static str,
        }
        let cases = [
            Case { name: "empty input", text: String::new(), line: 0, reason_contains: "empty" },
            Case {
                name: "whitespace-only input",
                text: "  \n \n".to_string(),
                line: 0,
                reason_contains: "empty",
            },
            Case {
                name: "non-JSON header",
                text: format!("garbage\n{sm}\n"),
                line: 1,
                reason_contains: "not a JSON object",
            },
            Case {
                name: "wrong header record type",
                text: format!("{sm}\n{sm}\n"),
                line: 1,
                reason_contains: "expected a `forensics` header",
            },
            Case {
                name: "header missing a field",
                text: format!("{}\n{sm}\n", header.replace("\"cycle\":1,", "")),
                line: 1,
                reason_contains: "missing field `cycle`",
            },
            Case {
                name: "non-integer field value",
                text: format!("{}\n{sm}\n", header.replace("\"cycle\":1", "\"cycle\":xyz")),
                line: 1,
                reason_contains: "not an integer",
            },
            Case {
                name: "malformed pair on an SM line",
                text: format!("{header}\n{{\"record\" \"forensics_sm\"}}\n"),
                line: 2,
                reason_contains: "malformed pair",
            },
            Case {
                name: "wrong body record type",
                text: format!("{header}\n{header}\n"),
                line: 2,
                reason_contains: "expected a `forensics_sm` record",
            },
            Case {
                name: "SM record missing a field",
                text: format!("{header}\n{}\n", sm.replace("\"queued_rays\":0,", "")),
                line: 2,
                reason_contains: "missing field `queued_rays`",
            },
            Case {
                name: "truncated: fewer SM records than declared",
                text: format!("{header}\n"),
                line: 0,
                reason_contains: "declared 1 SMs but 0 records",
            },
            Case {
                name: "truncated mid-line",
                text: format!("{header}\n{}", &sm[..sm.len() / 2]),
                line: 2,
                reason_contains: "not a JSON object",
            },
        ];
        for case in cases {
            let err = parse_snapshot_jsonl(&case.text)
                .expect_err(&format!("case `{}` must fail", case.name));
            assert_eq!(err.line, case.line, "case `{}`: wrong line in {err}", case.name);
            assert!(
                err.reason.contains(case.reason_contains),
                "case `{}`: expected reason containing {:?}, got: {err}",
                case.name,
                case.reason_contains
            );
            // The Display form carries the location for log grepping.
            if case.line > 0 {
                assert!(err.to_string().contains(&format!("line {}", case.line)));
            }
        }
    }

    #[test]
    fn floats_render_null_when_not_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_opt_f64(None), "null");
    }

    #[test]
    fn event_lines_are_json_objects() {
        let e = TraceEvent::TreeletDispatch { cycle: 9, sm: 2, treelet: TreeletId(4), rays: 31 };
        assert_eq!(
            event_json(&e),
            "{\"event\":\"treelet_dispatch\",\"cycle\":9,\"sm\":2,\"treelet\":4,\"rays\":31}"
        );
        let m = TraceEvent::ModeTransition {
            cycle: 3,
            sm: 0,
            from: None,
            to: crate::TraversalMode::Initial,
        };
        assert!(event_json(&m).contains("\"from\":null,\"to\":\"initial\""));
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let events = [
            TraceEvent::CtaLaunch { cycle: 0, cta: 0, sm: 0 },
            TraceEvent::CtaRetire { cycle: 5, cta: 0, sm: 0 },
        ];
        let text = events_jsonl(events.iter());
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn series_csv_shape() {
        let mut w = SamplePoint {
            start_cycle: 0,
            covered_cycles: 10,
            ray_cycles: 25,
            ..Default::default()
        };
        w.stall.add(StallKind::Busy, 10);
        let csv = series_csv(&[w, SamplePoint { start_cycle: 10, ..Default::default() }]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("start_cycle,covered_cycles"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("0,10,2.500,"));
        // Uncovered window: empty mean cells, not zeros.
        let tail = lines.next().unwrap();
        assert!(tail.starts_with("10,0,,,"));
        assert_eq!(header.split(',').count(), row.split(',').count());
    }

    #[test]
    fn stall_csv_total_row() {
        let mut a = StallBreakdown::default();
        a.add(StallKind::Busy, 3);
        let mut b = StallBreakdown::default();
        b.add(StallKind::Idle, 7);
        let csv = stall_csv(&[a, b]);
        let last = csv.lines().last().unwrap();
        assert_eq!(last, "total,3,0,0,0,7,10");
    }
}
