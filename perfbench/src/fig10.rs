//! `fig10-full`: the full-size Fig 10 matrix, 14 scenes × {baseline,
//! prefetch, vtq}, on the sweep engine's worker pool. Nearly all host
//! time is the cycle loop (gpusim + gpumem); VTQ cells exercise the
//! treelet-queue bookkeeping that baseline cells bypass.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gpumem::AccessKind;
use gpusim::{RunOptions, SimError, SimReport, Simulator, TraversalPolicy};
use rtscene::lumibench::SceneId;
use vtq::conformance::OracleRun;
use vtq::experiment::fig10_policies;
use vtq::sweep::SweepEngine;
use vtq::ExperimentConfig;

use crate::gate::{self, Tally};
use crate::metrics::geomean;
use crate::setup::{self, Prepared};
use crate::{trace, Ctx, Outcome, WORKERS};

type CellRun = (Result<SimReport, SimError>, Duration);

/// Simulates one cell as a traced call named `span`.
pub fn simulate(p: &Prepared, policy: TraversalPolicy, span: &'static str) -> CellRun {
    let _span = trace::span(span, format!("{}/{}", p.tag, policy.label()));
    let start = Instant::now();
    let report = Simulator::new(&p.bvh, p.scene.triangles(), p.cfg.gpu.with_policy(policy))
        .try_run_with(&p.workload, RunOptions::new());
    (report, start.elapsed())
}

/// Sums the simulator and memory counters of `(policy, report)` cells
/// into the per-layer map.
pub fn sim_layers<'a>(
    cells: impl IntoIterator<Item = (&'static str, &'a SimReport)>,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut lanes: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut l1: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (policy, r) in cells {
        let s = &r.stats;
        let bvh = r.mem.kind(AccessKind::Bvh);
        let (cycles, bvh_lines, dram_lines) = match policy {
            "baseline" => (
                "gpusim.cycles.baseline",
                "gpumem.bvh_lines.baseline",
                "gpumem.dram_lines.baseline",
            ),
            "prefetch" => (
                "gpusim.cycles.prefetch",
                "gpumem.bvh_lines.prefetch",
                "gpumem.dram_lines.prefetch",
            ),
            _ => ("gpusim.cycles.vtq", "gpumem.bvh_lines.vtq", "gpumem.dram_lines.vtq"),
        };
        let mut add = |k: &'static str, v: u64| *m.entry(k).or_default() += v as f64;
        add(cycles, s.cycles);
        add(bvh_lines, bvh.lines);
        add(dram_lines, r.mem.total_dram_lines());
        add("gpusim.box_tests", s.box_tests);
        add("gpusim.tri_tests", s.tri_tests);
        add("gpusim.treelet_dispatches", s.treelet_dispatches);
        add("gpusim.repack_events", s.repack_events);
        add("gpusim.cta_suspends", s.cta_suspends);
        for b in &s.stall {
            add("gpusim.stall.busy", b.busy);
            add("gpusim.stall.waiting_memory", b.waiting_memory);
            add("gpusim.stall.warp_buffer_empty", b.warp_buffer_empty);
            add("gpusim.stall.queue_drained", b.queue_drained);
            add("gpusim.stall.idle", b.idle);
        }
        let e = lanes.entry(policy).or_default();
        e.0 += s.active_lane_steps as f64;
        e.1 += s.total_lane_steps as f64;
        let e = l1.entry(policy).or_default();
        e.0 += bvh.l1_hits as f64;
        e.1 += bvh.l1_lookups as f64;
    }
    for (policy, (active, total)) in lanes {
        let key = match policy {
            "baseline" => "gpusim.simt_eff.baseline",
            "prefetch" => "gpusim.simt_eff.prefetch",
            _ => "gpusim.simt_eff.vtq",
        };
        if total > 0.0 {
            m.insert(key, active / total);
        }
    }
    for (policy, (hits, lookups)) in l1 {
        let key = match policy {
            "baseline" => "gpumem.bvh_l1_hit_rate.baseline",
            "prefetch" => "gpumem.bvh_l1_hit_rate.prefetch",
            _ => "gpumem.bvh_l1_hit_rate.vtq",
        };
        if lookups > 0.0 {
            m.insert(key, hits / lookups);
        }
    }
    m
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let cfg = ExperimentConfig::default();
    let specs: Vec<_> = SceneId::ALL.iter().map(|&id| (id, cfg, id.name().to_string())).collect();
    let setup::Setup { scenes, secs, probe_ms } = setup::setup(&specs, ctx.seed);
    let policies = fig10_policies();
    let mut cells: Vec<(usize, TraversalPolicy)> =
        (0..scenes.len()).flat_map(|s| policies.iter().map(move |&p| (s, p))).collect();
    // Longest first, so the last cells to finish are short ones and the
    // workers finish together (the estimate: rays × BVH depth).
    let cost = |s: usize| {
        let p = &scenes[s];
        p.workload.total_rays() as f64 * (p.bvh.nodes().len() as f64).log2()
    };
    cells.sort_by(|a, b| cost(b.0).total_cmp(&cost(a.0)));

    let engine = SweepEngine::new(WORKERS);
    let mut oracles: Vec<Option<OracleRun>> = scenes.iter().map(|_| None).collect();
    let mut first_digests: BTreeMap<String, u32> = BTreeMap::new();
    let mut out = Outcome { setup_s: secs, setup_probe_ms: probe_ms, ..Outcome::default() };
    let mut last: Vec<(usize, &'static str, SimReport)> = Vec::new();
    let mut tally = Tally::default();

    out.pass_s = crate::run_passes(1, ctx.seconds, |pass| {
        let pass_span = trace::span("pass", format!("pass{pass}"));
        let parent = pass_span.id();
        let start = Instant::now();
        let tasks: Vec<_> = cells
            .iter()
            .map(|&(s, policy)| {
                let p = &scenes[s];
                let label = format!("{}/{}", p.tag, policy.label());
                let task = move || {
                    let _task = trace::span_in(parent, "sweep.task", label);
                    crate::host::probe();
                    simulate(p, policy, "gpusim.run")
                };
                (format!("{}/{}", p.tag, policy.label()), task)
            })
            .collect();
        let results = engine.run_tasks(tasks);
        let secs = start.elapsed().as_secs_f64();
        drop(pass_span);

        // Outside the timed region: the correctness gate.
        last.clear();
        for (&(s, policy), result) in cells.iter().zip(results) {
            let p = &scenes[s];
            let label = format!("fig10-full/{}/{}", p.tag, policy.label());
            let report = match result {
                Err(e) => Err(e.to_string()),
                Ok((Err(e), _)) => Err(e.to_string()),
                Ok((Ok(report), dt)) => {
                    out.cell_ms.push(dt.as_secs_f64() * 1e3);
                    Ok(report)
                }
            };
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    tally.op(&label, vec![e]);
                    continue;
                }
            };
            let oracle = oracles[s].get_or_insert_with(|| {
                gate::oracle(&p.bvh, p.scene.triangles(), &p.workload, &p.tag)
            });
            let mut problems = Vec::new();
            problems.extend(gate::check_hits(
                &mut tally,
                p.id,
                policy.label(),
                &p.workload,
                oracle,
                &report,
            ));
            let digest = gate::stats_digest(&report);
            if let Some(d) = &mut ctx.digests {
                problems.extend(d.check(&label, digest));
            }
            if *first_digests.entry(label.clone()).or_insert(digest) != digest {
                problems.push("statistics differ between passes".to_string());
            }
            tally.op(&label, problems);
            last.push((s, policy.label(), report));
        }
        secs
    });

    let speedups: Vec<f64> = (0..scenes.len())
        .filter_map(|scene| {
            let cycles = |policy: &str| {
                last.iter()
                    .find(|(s, p, _)| *s == scene && *p == policy)
                    .map(|(_, _, r)| r.stats.cycles as f64)
            };
            Some(cycles("baseline")? / cycles("vtq")?)
        })
        .collect();
    out.speedup_geomean = geomean(&speedups).unwrap_or(0.0);
    out.rays_per_pass = last.iter().map(|(_, _, r)| r.stats.rays_completed as f64).sum();
    out.layer = sim_layers(last.iter().map(|(_, p, r)| (*p, r)));
    let (nodes, treelets, rays) = setup::sizes(&scenes);
    out.layer.insert("rtbvh.nodes", nodes);
    out.layer.insert("rtbvh.treelets", treelets);
    out.layer.insert("workload.rays", rays);
    out.layer.insert("sweep.prepared_builds", scenes.len() as f64);
    out.tally = tally;
    out
}
