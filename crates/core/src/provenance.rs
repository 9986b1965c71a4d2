//! Shared artifact provenance: one helper, one header format.
//!
//! Every machine-readable artifact the workspace exports — `BENCH_<n>.json`
//! perf baselines, `faults.jsonl` campaign outcomes, golden conformance
//! snapshots, sweep journals — starts with the same flat-JSONL provenance
//! record, so tooling can always answer "which build, which configuration,
//! which seed produced this file?" without per-exporter special cases:
//!
//! ```text
//! {"record":"provenance","version":1,"crate_version":"0.1.0",
//!  "config_fingerprint":"0x00000000deadbeef","seed":42}
//! ```
//!
//! `config_fingerprint` is the policy-normalized
//! [`config_fingerprint`](crate::sweep::config_fingerprint) of the run's
//! [`ExperimentConfig`](crate::ExperimentConfig); it and `seed` are
//! `null` for artifacts that span many configurations (e.g. a sweep
//! journal covering a whole matrix). Readers parse the line with
//! [`gpusim::frames::FlatRecord`] like any other record and skip it by
//! its `"record"` discriminant.

use gpusim::frames::quote;

/// Value of the `"record"` field identifying a provenance header line.
pub const PROVENANCE_RECORD: &str = "provenance";

/// Version of the provenance record format itself.
pub const PROVENANCE_VERSION: u32 = 1;

/// Renders the one-line provenance header (no trailing newline).
///
/// `config_fingerprint` is rendered in the `{:#018x}` form used by the
/// golden snapshots; `None` fields render as JSON `null`.
pub fn provenance_line(config_fingerprint: Option<u64>, seed: Option<u64>) -> String {
    let fingerprint = match config_fingerprint {
        Some(f) => format!("\"{f:#018x}\""),
        None => "null".to_string(),
    };
    let seed = match seed {
        Some(s) => s.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"record\":\"{PROVENANCE_RECORD}\",\"version\":{PROVENANCE_VERSION},\
         \"crate_version\":{},\"config_fingerprint\":{fingerprint},\"seed\":{seed}}}",
        quote(env!("CARGO_PKG_VERSION")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::frames::FlatRecord;

    #[test]
    fn header_shape_is_stable() {
        let line = provenance_line(Some(0xdead_beef), Some(42));
        assert_eq!(
            line,
            format!(
                "{{\"record\":\"provenance\",\"version\":1,\"crate_version\":\"{}\",\
                 \"config_fingerprint\":\"0x00000000deadbeef\",\"seed\":42}}",
                env!("CARGO_PKG_VERSION")
            )
        );
        let rec = FlatRecord::parse(&line).expect("header is one flat record");
        assert_eq!(rec.str("record").unwrap(), PROVENANCE_RECORD);
        assert!(!line.contains('\n'), "header must be a single flat line");
    }

    #[test]
    fn absent_fields_render_as_null() {
        let line = provenance_line(None, None);
        assert!(line.contains("\"config_fingerprint\":null"));
        assert!(line.contains("\"seed\":null"));
    }
}
