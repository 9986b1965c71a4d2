//! End-to-end test of the `chaos` subcommand against the real binary:
//! a quick campaign must recover every injected fault and export a
//! fully checksum-framed `chaos.jsonl`, and a `--sabotage` run (frame
//! verification disabled) must be caught by the campaign's canary and
//! exit nonzero. Subprocesses keep the campaign's process-global fault
//! shims out of this test harness.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_vtq-bench");

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtq-chaos-cmd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn quick_campaign_recovers_every_fault_and_exports_framed_outcomes() {
    let dir = out_dir("ok");
    let out = Command::new(BIN)
        .args(["chaos", "--quick", "--seeds", "2", "--out"])
        .arg(&dir)
        .output()
        .expect("run chaos");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "campaign must pass: {stderr}");

    let text = std::fs::read_to_string(dir.join("chaos.jsonl")).expect("chaos.jsonl exported");
    let mut scenarios = 0;
    let mut summary = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        assert!(gpusim::frames::is_framed(line), "unframed line in chaos.jsonl: {line}");
        let payload = gpusim::frames::check_line(line).expect("every line passes its checksum");
        if payload.contains("\"record\":\"chaos_scenario\"") {
            scenarios += 1;
            assert!(payload.contains("\"ok\":1"), "violating scenario exported: {payload}");
        }
        if payload.contains("\"record\":\"chaos_summary\"") {
            summary = Some(payload);
        }
    }
    // 2 seeds x 11 scenarios, plus the summary trailer.
    assert_eq!(scenarios, 22, "campaign exported all scenario outcomes");
    let summary = summary.expect("summary record present");
    assert!(summary.contains("\"violations\":0"), "summary must be clean: {summary}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sabotaged_verification_is_caught_by_the_canary() {
    let out = Command::new(BIN)
        .args(["chaos", "--quick", "--seeds", "1", "--sabotage"])
        .output()
        .expect("run sabotaged chaos");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "sabotaged run must exit 1: {stderr}");
    assert!(
        stderr.contains("checksum verification is disabled"),
        "the canary names the sabotage: {stderr}"
    );
}

#[test]
fn seeds_flag_rejects_zero() {
    let out = Command::new(BIN)
        .args(["chaos", "--quick", "--seeds", "0"])
        .output()
        .expect("run chaos --seeds 0");
    assert_eq!(out.status.code(), Some(2), "zero seeds is a usage error");
}
