//! End-to-end test of `vtq-bench perf`: the pinned suite writes
//! auto-numbered `BENCH_<n>.json` files and `--compare` enforces the
//! exit-code contract (0 ok, 1 regression, 2 usage).

use std::fs;
use std::path::Path;

use vtq::prelude::*;
use vtq_bench::{commands, HarnessOpts, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION};

fn quick_opts(dir: &Path) -> HarnessOpts {
    HarnessOpts {
        config: ExperimentConfig::quick(),
        out: Some(dir.to_path_buf()),
        trials: Some(3),
        warmup: Some(0),
        // This test exercises the exit-code plumbing, not real perf
        // gating: back-to-back runs on a loaded CI box can differ by
        // several x, so the tolerance is wide enough that only the
        // doctored 100x baseline below can trip it.
        tolerance: 8.0,
        quiet: true,
        ..Default::default()
    }
}

fn count_records(path: &Path, kind: &str) -> usize {
    fs::read_to_string(path)
        .expect("bench file readable")
        .lines()
        .filter(|l| {
            l.contains("\"record\":\"bench\"") && l.contains(&format!("\"kind\":\"{kind}\""))
        })
        .count()
}

#[test]
fn perf_command_enforces_the_exit_code_contract() {
    let cmd = commands::find("perf").expect("perf is registered");
    let engine = SweepEngine::new(1);
    let dir = std::env::temp_dir().join(format!("vtq-perf-cmd-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    vtq::sweep::set_quiet(true);

    // Positional arguments are a usage error.
    let opts = HarnessOpts { args: vec!["stray".to_string()], ..quick_opts(&dir) };
    assert_eq!((cmd.run)(&opts, &engine), EXIT_USAGE);
    assert!(!dir.join("BENCH_1.json").exists(), "usage errors must not write files");

    // A clean run writes BENCH_1.json with the pinned suite: at least
    // 8 micro and 4 macro entries, each carrying median + MAD + trials.
    assert_eq!((cmd.run)(&quick_opts(&dir), &engine), EXIT_OK);
    let bench1 = dir.join("BENCH_1.json");
    assert!(bench1.exists(), "first run numbers itself BENCH_1.json");
    assert!(count_records(&bench1, "micro") >= 8, "pinned micro suite");
    assert!(count_records(&bench1, "macro") >= 4, "pinned macro suite");
    let text = fs::read_to_string(&bench1).expect("readable");
    let first = text.lines().next().expect("nonempty");
    assert!(first.starts_with("{\"record\":\"provenance\""), "provenance header first: {first}");
    for line in text.lines().filter(|l| l.contains("\"record\":\"bench\"")) {
        for key in ["\"median_ns\":", "\"mad_ns\":", "\"trials\":"] {
            assert!(line.contains(key), "bench record missing {key}: {line}");
        }
    }

    // Comparing against an identical run is clean, and the fresh file
    // auto-numbers past the existing one.
    let opts = HarnessOpts { compare: true, ..quick_opts(&dir) };
    assert_eq!((cmd.run)(&opts, &engine), EXIT_OK);
    assert!(dir.join("BENCH_2.json").exists(), "second run numbers itself BENCH_2.json");

    // An injected slowdown: doctor a baseline 100x faster with no
    // noise, then compare against it — every entry regresses, exit 1.
    // BENCH lines are checksum-framed, so the doctoring goes through
    // unframe -> edit -> reframe (a raw byte edit would be rejected as
    // a corrupt frame, which is its own test elsewhere).
    let doctored: String = text
        .lines()
        .map(|l| {
            let mut line = gpusim::frames::check_line(l).expect("framed baseline line");
            if !line.contains("\"record\":\"bench\"") {
                return format!("{l}\n");
            }
            for key in ["\"median_ns\":", "\"mad_ns\":"] {
                let at = line.find(key).expect("key present") + key.len();
                let end =
                    line[at..].find(|c: char| !c.is_ascii_digit()).map_or(line.len(), |e| at + e);
                let v: u64 = line[at..end].parse().expect("number");
                let new = if key.starts_with("\"median") { (v / 100).max(1) } else { 0 };
                line.replace_range(at..end, &new.to_string());
            }
            format!("{}\n", gpusim::frames::frame_line(&line))
        })
        .collect();
    let fast = dir.join("fast-baseline.json");
    fs::write(&fast, doctored).expect("write baseline");
    let opts = HarnessOpts { compare_to: Some(fast), compare: true, ..quick_opts(&dir) };
    assert_eq!((cmd.run)(&opts, &engine), EXIT_VIOLATION, "injected slowdown must gate");

    // A missing explicit baseline is a usage error.
    let opts = HarnessOpts {
        compare_to: Some(dir.join("missing.json")),
        compare: true,
        ..quick_opts(&dir)
    };
    assert_eq!((cmd.run)(&opts, &engine), EXIT_USAGE);

    fs::remove_dir_all(&dir).ok();
}
