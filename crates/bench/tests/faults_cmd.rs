//! End-to-end test of the `faults` subcommand against the real binary:
//! a quick campaign must keep every cell's contract and export a fully
//! checksum-framed `faults.jsonl` covering every fault kind, and an
//! output directory that cannot be created must fail the command.

use std::path::PathBuf;
use std::process::Command;

use gpusim::frames::{check_line, is_framed, FlatRecord};

const BIN: &str = env!("CARGO_BIN_EXE_vtq-bench");

const KINDS: [&str; 8] = [
    "control",
    "mem-latency-spike",
    "mem-bandwidth-throttle",
    "sched-jitter",
    "truncated-workload",
    "degenerate-workload",
    "near-capacity-queues",
    "tiny-cycle-budget",
];

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtq-faults-cmd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn quick_campaign_keeps_its_contract_and_exports_framed_outcomes() {
    let dir = out_dir("ok");
    let out = Command::new(BIN)
        .args(["faults", "--quick", "--jobs", "2", "--out"])
        .arg(&dir)
        .output()
        .expect("run faults");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "campaign must pass: {stderr}");

    let text = std::fs::read_to_string(dir.join("faults.jsonl")).expect("faults.jsonl exported");
    let mut kinds = Vec::new();
    let mut summary = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        assert!(is_framed(line), "unframed line in faults.jsonl: {line}");
        check_line(line).expect("every line passes its checksum");
        let record = FlatRecord::parse(line).expect("every line is a complete record");
        match record.str("record").expect("record field") {
            "scenario" => {
                assert_eq!(record.u64("ok").unwrap(), 1, "violating cell exported: {line}");
                kinds.push(record.str("scenario").unwrap().to_string());
            }
            "campaign_summary" => summary = Some(record),
            _ => {}
        }
    }
    assert_eq!(kinds.len(), 25, "one record per cell");
    for kind in KINDS {
        assert!(kinds.iter().any(|k| k == kind), "kind {kind} missing from {kinds:?}");
    }
    let summary = summary.expect("summary record present");
    assert_eq!(summary.u64("scenarios").unwrap(), 25);
    assert_eq!(summary.u64("violations").unwrap(), 0, "summary must be clean");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_out_dir_exits_1() {
    let dir = out_dir("unwritable");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join("regular-file");
    std::fs::write(&file, b"not a directory").expect("scratch file");
    let out = Command::new(BIN)
        .args(["faults", "--quick", "--jobs", "2", "--out"])
        .arg(file.join("x"))
        .output()
        .expect("run faults");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "an unwritable artifact is exit 1: {stderr}");
    assert!(stderr.contains("faults.jsonl"), "the failed export is named: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
