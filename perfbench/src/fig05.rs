//! `fig05-analytic`: the §2.4 analytical model (Fig 5) over all 16
//! scenes. It simulates no cycles: its host time is set-up plus
//! functional traversal (rtbvh traversal and intersection through the
//! simulator's ray stepper) and the model itself, so a change to the
//! cycle loop should leave it unchanged.

use std::collections::BTreeMap;
use std::time::Instant;

use rtscene::lumibench::SceneId;
use vtq::analytical::{analytical_speedups, record_traces};
use vtq::sweep::SweepEngine;
use vtq::ExperimentConfig;

use crate::gate::{self, Tally};
use crate::metrics::geomean;
use crate::setup::{self, Prepared};
use crate::{trace, Ctx, Outcome, WORKERS};

/// The concurrent-ray batch sizes of the paper's Fig 5.
const BATCHES: [usize; 6] = [32, 128, 512, 1024, 2048, 4096];

/// Passes per run at least: 3 × 16 cells puts 12 beyond the p75.
const MIN_PASSES: usize = 3;

struct CellOut {
    speedups: Vec<(usize, f64)>,
    traces: usize,
    node_visits: u64,
    secs: f64,
}

fn model(p: &Prepared) -> CellOut {
    let start = Instant::now();
    let traces = {
        let _span = trace::span("analytical.traces", p.tag.as_str());
        record_traces(&p.bvh, p.scene.triangles(), &p.workload)
    };
    let speedups = {
        let _span = trace::span("analytical.model", p.tag.as_str());
        analytical_speedups(&p.bvh, &traces, &BATCHES)
    };
    CellOut {
        speedups,
        traces: traces.len(),
        node_visits: traces.iter().map(|t| t.nodes() as u64).sum(),
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Problems with one scene's model output.
fn check(p: &Prepared, cell: &CellOut) -> Vec<String> {
    let mut problems = Vec::new();
    if cell.traces != p.workload.total_rays() {
        problems.push(format!("{} traces for {} rays", cell.traces, p.workload.total_rays()));
    }
    if cell.speedups.iter().map(|&(c, _)| c).ne(BATCHES) {
        problems.push("model rows do not match the batch sizes".to_string());
    }
    if cell.speedups.iter().any(|&(_, s)| !(s.is_finite() && s > 0.0)) {
        problems.push(format!("non-positive speedup in {:?}", cell.speedups));
    }
    // Batches double, so each batch is a union of two smaller ones and
    // can only merge more treelet fetches.
    if cell.speedups.windows(2).any(|w| w[1].1 < w[0].1) {
        problems.push(format!("speedup falls with concurrency: {:?}", cell.speedups));
    }
    problems
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let cfg = ExperimentConfig::default();
    let specs: Vec<_> =
        SceneId::ALL_WITH_EXTRAS.iter().map(|&id| (id, cfg, id.name().to_string())).collect();
    let setup::Setup { scenes, secs, probe_ms } = setup::setup(&specs, ctx.seed);
    // Longest first (the estimate: rays × BVH size), so the straggler at
    // the end of a pass is a short cell.
    let mut order: Vec<usize> = (0..scenes.len()).collect();
    let cost =
        |s: usize| scenes[s].workload.total_rays() as f64 * scenes[s].bvh.nodes().len() as f64;
    order.sort_by(|&a, &b| cost(b).total_cmp(&cost(a)));

    let engine = SweepEngine::new(WORKERS);
    let mut out = Outcome { setup_s: secs, setup_probe_ms: probe_ms, ..Outcome::default() };
    let mut tally = Tally::default();
    let mut first: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
    let (mut rays, mut visits) = (0.0, 0.0);

    out.pass_s = crate::run_passes(MIN_PASSES, ctx.seconds, |pass| {
        let pass_span = trace::span("pass", format!("pass{pass}"));
        let parent = pass_span.id();
        let start = Instant::now();
        let tasks: Vec<_> = order
            .iter()
            .map(|&s| {
                let p = &scenes[s];
                let task = move || {
                    let _task = trace::span_in(parent, "sweep.task", p.tag.as_str());
                    crate::host::probe();
                    model(p)
                };
                (p.tag.clone(), task)
            })
            .collect();
        let results = engine.run_tasks(tasks);
        let secs = start.elapsed().as_secs_f64();
        drop(pass_span);

        (rays, visits) = (0.0, 0.0);
        for (&s, result) in order.iter().zip(results) {
            let p = &scenes[s];
            let label = format!("fig05-analytic/{}", p.tag);
            let cell = match result {
                Ok(cell) => cell,
                Err(e) => {
                    tally.op(&label, vec![e.to_string()]);
                    continue;
                }
            };
            out.cell_ms.push(cell.secs * 1e3);
            rays += cell.traces as f64;
            visits += cell.node_visits as f64;
            let mut problems = check(p, &cell);
            if let Some(d) = &mut ctx.digests {
                problems.extend(d.check(&label, gate::speedups_digest(&cell.speedups)));
            }
            if *first.entry(s).or_insert_with(|| cell.speedups.clone()) != cell.speedups {
                problems.push("model output differs between passes".to_string());
            }
            tally.op(&label, problems);
        }
        secs
    });

    let at_largest: Vec<f64> =
        first.values().filter_map(|rows| rows.last().map(|&(_, s)| s)).collect();
    out.speedup_geomean = geomean(&at_largest).unwrap_or(0.0);
    out.notes.push(format!(
        "analytical treelet-queue speedup at {} concurrent rays, geomean over {} scenes: {:.4} x",
        BATCHES[BATCHES.len() - 1],
        at_largest.len(),
        out.speedup_geomean
    ));
    out.rays_per_pass = rays;
    out.layer.insert("analytical.node_visits", visits);
    let (nodes, treelets, workload_rays) = setup::sizes(&scenes);
    out.layer.insert("rtbvh.nodes", nodes);
    out.layer.insert("rtbvh.treelets", treelets);
    out.layer.insert("workload.rays", workload_rays);
    out.layer.insert("sweep.prepared_builds", scenes.len() as f64);
    out.tally = tally;
    out
}
