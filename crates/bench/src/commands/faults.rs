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
//! outcomes are appended to `faults.jsonl` in the output directory.

use std::fs;
use std::io::Write as _;

use gpusim::frames::{frame_lines, quote};
use vtq::prelude::*;

use crate::{header, row, HarnessOpts};

fn cell_jsonl(c: &CellOutcome) -> String {
    let (status, error_kind, detail, cycles, rays) = match &c.status {
        CellStatus::Completed { cycles, rays_completed } => {
            ("completed", "", String::new(), *cycles, *rays_completed)
        }
        CellStatus::Failed { error_kind, message } => {
            ("failed", error_kind.as_str(), message.clone(), 0, 0)
        }
        CellStatus::Panicked { message } => ("panicked", "", message.clone(), 0, 0),
    };
    format!(
        "{{\"record\":\"fault_cell\",\"index\":{},\"kind\":\"{}\",\"status\":\"{status}\",\
         \"error_kind\":{},\"retries\":{},\"final_budget\":{},\"cycles\":{cycles},\
         \"rays_completed\":{rays},\"detail\":{}}}",
        c.index,
        c.kind.label(),
        quote(error_kind),
        c.retries,
        c.final_budget,
        quote(&detail),
    )
}

fn persist(
    opts: &HarnessOpts,
    campaign: &CampaignConfig,
    report: &CampaignReport,
) -> std::io::Result<()> {
    let Some(dir) = &opts.out else { return Ok(()) };
    fs::create_dir_all(dir)?;
    let header = provenance_line(Some(config_fingerprint(&campaign.config)), Some(campaign.seed));
    let mut file = fs::File::create(dir.join("faults.jsonl"))?;
    file.write_all(
        frame_lines(std::iter::once(header).chain(report.cells.iter().map(cell_jsonl))).as_bytes(),
    )?;
    file.sync_all()?;
    eprintln!("[faults] outcomes in {}", dir.join("faults.jsonl").display());
    Ok(())
}

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

    header(&["cell", "kind", "status", "retries", "cycles", "ok?"]);
    for cell in &report.cells {
        let (status, cycles) = match &cell.status {
            CellStatus::Completed { cycles, .. } => ("completed".to_string(), cycles.to_string()),
            CellStatus::Failed { error_kind, .. } => (error_kind.clone(), "-".to_string()),
            CellStatus::Panicked { .. } => ("PANIC".to_string(), "-".to_string()),
        };
        row(
            &cell.index.to_string(),
            &[
                cell.kind.label().to_string(),
                status,
                cell.retries.to_string(),
                cycles,
                if cell.as_expected() { "yes".to_string() } else { "NO".to_string() },
            ],
        );
    }
    println!("\n{}", report.summary());

    if let Err(e) = persist(opts, &cfg, &report) {
        eprintln!("[faults] failed to persist outcomes: {e}");
    }

    if !report.is_clean() {
        for cell in report.violations() {
            eprintln!("[faults] contract violation: {} -> {:?}", cell.label, cell.status);
        }
        write_repros(opts, &cfg, engine, &report);
        return crate::EXIT_VIOLATION;
    }
    crate::EXIT_OK
}

/// Shrinks every contract-violating cell that ended with a *typed* error
/// down to a minimal reproducer and writes it as `repro-<index>.jsonl`
/// in the output directory (panics carry no typed failure to key the
/// shrink oracle on, so they are reported but not shrunk). Best-effort:
/// a cell that cannot be shrunk or serialized is logged and skipped.
fn write_repros(
    opts: &HarnessOpts,
    cfg: &CampaignConfig,
    engine: &SweepEngine,
    report: &CampaignReport,
) {
    let Some(dir) = &opts.out else {
        eprintln!("[faults] pass --out DIR to shrink violations into repro-*.jsonl reproducers");
        return;
    };
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("[faults] cannot create {}: {e}", dir.display());
        return;
    }
    let cells = generate_cells(cfg);
    let prepared = engine.cache().get(cfg.scene, &cfg.config);
    for outcome in report.violations() {
        let CellStatus::Failed { error_kind, .. } = &outcome.status else { continue };
        let cell = cells[outcome.index];
        let (gpu, workload) = match cell_inputs(cfg, cell, outcome.retries, &prepared.workload) {
            Ok(inputs) => inputs,
            Err(e) => {
                eprintln!("[faults] {}: cannot rebuild cell inputs: {e}", outcome.label);
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
            error_kind,
        );
        match shrunk {
            Ok(s) => {
                let path = dir.join(format!("repro-{}.jsonl", outcome.index));
                match fs::write(&path, s.repro.to_jsonl()) {
                    Ok(()) => {
                        eprintln!(
                            "[faults] {}: {s}; reproducer at {}",
                            outcome.label,
                            path.display()
                        )
                    }
                    Err(e) => {
                        eprintln!(
                            "[faults] {}: cannot write {}: {e}",
                            outcome.label,
                            path.display()
                        )
                    }
                }
            }
            Err(e) => eprintln!("[faults] {}: shrink failed: {e}", outcome.label),
        }
    }
}
