//! Fault-injection campaign: a seeded matrix of perturbed simulator runs
//! (memory latency spikes, bandwidth throttling, scheduling jitter,
//! truncated/degenerate workloads, near-capacity treelet queues,
//! starvation-level cycle budgets) executed under the invariant auditor.
//!
//! ```text
//! vtq-bench faults --quick --jobs 2
//! vtq-bench faults --out target/faults
//! ```
//!
//! Every cell must end `Ok` or with the *typed* [`SimError`] its fault
//! kind predicts — a panic or an unexpected error is a contract
//! violation, and the process exits nonzero. With `--out`, per-cell
//! outcomes are exported to `faults.jsonl` in the output directory (see
//! [`vtq::campaign`] for the record shape); a failed export exits
//! nonzero too.

use std::fs;
use std::panic::{self, AssertUnwindSafe};

use vtq::campaign::Report;
use vtq::prelude::*;

use crate::HarnessOpts;

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let quick = opts.config == ExperimentConfig::quick();
    let cfg = if quick { CampaignConfig::quick() } else { CampaignConfig::full() };
    eprintln!(
        "[faults] {} cells on {} (seed {:#x}, {} retries, {} jobs)",
        cfg.cells,
        cfg.scene.name(),
        cfg.seed,
        cfg.max_retries,
        engine.jobs()
    );

    let report = run_campaign(&cfg, engine);
    let provenance = provenance_line(Some(config_fingerprint(&cfg.config)), Some(cfg.seed));
    let code = crate::report_campaign("faults", &report, opts, provenance);
    if !report.is_clean() {
        write_repros(opts, &cfg, engine, &report);
    }
    code
}

/// Shrinks every contract-violating cell that ends with a *typed* error
/// down to a minimal reproducer and writes it as `repro-<index>.jsonl`
/// in the output directory (a cell that completed off contract or
/// panicked carries no typed failure to key the shrink oracle on, so it
/// is reported but not shrunk). Best-effort: a cell that cannot be
/// shrunk or serialized is logged and skipped.
fn write_repros(opts: &HarnessOpts, cfg: &CampaignConfig, engine: &SweepEngine, report: &Report) {
    let Some(dir) = &opts.out else {
        eprintln!("[faults] pass --out DIR to shrink violations into repro-*.jsonl reproducers");
        return;
    };
    let prepared = engine.cache().get(cfg.scene, &cfg.config);
    for (cell, outcome) in generate_cells(cfg).into_iter().zip(&report.outcomes) {
        if outcome.verdict.is_ok() {
            continue;
        }
        let label = format!("faults/{}/{}", cell.index, cell.kind);
        let (gpu, workload) = match cell_inputs(cfg, cell, outcome.retries, &prepared.workload) {
            Ok(inputs) => inputs,
            Err(e) => {
                eprintln!("[faults] {label}: cannot rebuild cell inputs: {e}");
                continue;
            }
        };
        // Cells are deterministic, so replaying the final attempt recovers
        // the typed error the verdict names; the shrink oracle keys on it.
        let replay = panic::catch_unwind(AssertUnwindSafe(|| {
            Simulator::new(&prepared.bvh, prepared.scene.triangles(), gpu).try_run(&workload)
        }));
        let error = match replay {
            Ok(Err(e)) => e,
            Ok(Ok(_)) => {
                eprintln!("[faults] {label}: completed off contract; nothing to shrink");
                continue;
            }
            Err(_) => {
                eprintln!("[faults] {label}: panicked on replay; not shrunk");
                continue;
            }
        };
        let shrunk = shrink_failure(
            cfg.scene,
            cfg.config.detail_divisor,
            &cfg.config.bvh,
            &gpu,
            None,
            &workload,
            error.kind(),
        );
        match shrunk {
            Ok(s) => {
                let path = dir.join(format!("repro-{}.jsonl", cell.index));
                match fs::write(&path, s.repro.to_jsonl()) {
                    Ok(()) => {
                        eprintln!("[faults] {label}: {s}; reproducer at {}", path.display())
                    }
                    Err(e) => eprintln!("[faults] {label}: cannot write {}: {e}", path.display()),
                }
            }
            Err(e) => eprintln!("[faults] {label}: shrink failed: {e}"),
        }
    }
}
