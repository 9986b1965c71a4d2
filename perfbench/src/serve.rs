//! `serve-mixed`: an in-process `vtq-serve` daemon with one sweep worker,
//! driven by closed-loop clients that each wait for a job's terminal
//! status before submitting the next. Every job of the seed-ordered
//! script is submitted once fresh (computed, cached, journaled) and once
//! repeated (served from the result cache), so the same cache layer is
//! used for writes and for reads. Jobs are small quick-config cells, so
//! most of their latency is the service, not the simulator.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use gpusim::{TraversalPolicy, VtqParams};
use rtmath::XorShiftRng;
use rtscene::lumibench::SceneId;
use vtq::sweep::{cell_key_fingerprint, Cell};
use vtq_serve::{spec_config, CellRecord, Client, Frame, Server, ServerConfig, SubmitSpec};

use crate::fig10::simulate;
use crate::gate::{self, Tally};
use crate::metrics::{geomean, percentile, tail_percentile};
use crate::setup::{self, Prepared};
use crate::{trace, Ctx, Outcome, WORKERS};

/// Jobs per pass: the 16 scenes at two resolutions.
const JOBS_PER_PASS: usize = 32;

/// Passes per run at least: 4 × 32 jobs of each kind puts more than 10
/// beyond each kind's p90.
const MIN_PASSES: usize = 4;

/// Seconds one pass takes on the 2-core host the benchmark was sized
/// on; longer `--seconds` add passes. The pass count is fixed before the
/// run, because set-up prepares every job's scene.
const PASS_ESTIMATE_S: f64 = 6.0;

fn policies() -> [TraversalPolicy; 2] {
    [TraversalPolicy::Baseline, TraversalPolicy::Vtq(VtqParams::default())]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Cached,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Fresh => "fresh",
            Kind::Cached => "cached",
        }
    }
}

/// One submission as its client saw it.
#[derive(Debug)]
struct Job {
    kind: Kind,
    spec: usize,
    submit: Instant,
    accepted: Option<Instant>,
    events: Vec<Instant>,
    status_at: Instant,
    id: String,
    state: String,
    total_cells: usize,
    cached_cells: usize,
    failed_cells: usize,
    results: Option<(Instant, Instant)>,
    records: Vec<CellRecord>,
    rejected: bool,
    problem: Option<String>,
}

fn submit_spec(tenant: &str, scene: SceneId, res: u32) -> SubmitSpec {
    SubmitSpec {
        tenant: tenant.to_string(),
        scenes: vec![scene],
        policies: policies().to_vec(),
        quick: true,
        res: Some(res),
        ..SubmitSpec::default()
    }
}

/// One closed-loop client: submits each of its specs fresh, then again,
/// waiting for the terminal status and fetching results each time.
fn client(addr: SocketAddr, tenant: &str, specs: &[(usize, SceneId, u32)]) -> Vec<Job> {
    let mut conn = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            let now = Instant::now();
            return specs
                .iter()
                .map(|&(spec, ..)| Job::failed(Kind::Fresh, spec, now, format!("connect: {e}")))
                .collect();
        }
    };
    let mut jobs = Vec::new();
    for &(spec, scene, res) in specs {
        for kind in [Kind::Fresh, Kind::Cached] {
            crate::host::probe();
            let submit = Instant::now();
            let (mut accepted, mut events, mut id) = (None, Vec::new(), String::new());
            let reply =
                conn.submit_and_watch(submit_spec(tenant, scene, res), |frame| match frame {
                    Frame::Accepted { job, .. } => {
                        accepted = Some(Instant::now());
                        id = job.clone();
                    }
                    Frame::CellEvent { .. } => events.push(Instant::now()),
                    _ => {}
                });
            let status_at = Instant::now();
            let mut job = Job { accepted, events, status_at, id, ..Job::new(kind, spec, submit) };
            match reply {
                Ok(Frame::Status { state, total_cells, cached_cells, failed_cells, .. }) => {
                    job.state = state;
                    job.total_cells = total_cells;
                    job.cached_cells = cached_cells;
                    job.failed_cells = failed_cells;
                    let start = Instant::now();
                    match conn.fetch_results(&job.id) {
                        Ok(records) => job.records = records,
                        Err(e) => job.problem = Some(format!("results: {e}")),
                    }
                    job.results = Some((start, Instant::now()));
                }
                Ok(Frame::Rejected { reason, detail }) => {
                    job.rejected = true;
                    job.problem = Some(format!("rejected ({}): {detail}", reason.label()));
                }
                Ok(other) => job.problem = Some(format!("unexpected reply {other:?}")),
                Err(e) => job.problem = Some(e),
            }
            jobs.push(job);
        }
    }
    jobs
}

impl Job {
    fn failed(kind: Kind, spec: usize, at: Instant, problem: String) -> Job {
        Job { problem: Some(problem), ..Job::new(kind, spec, at) }
    }

    fn new(kind: Kind, spec: usize, at: Instant) -> Job {
        Job {
            kind,
            spec,
            submit: at,
            accepted: None,
            events: Vec::new(),
            status_at: at,
            id: String::new(),
            state: String::new(),
            total_cells: 0,
            cached_cells: 0,
            failed_cells: 0,
            results: None,
            records: Vec::new(),
            rejected: false,
            problem: None,
        }
    }

    fn ms(from: Instant, to: Instant) -> f64 {
        to.saturating_duration_since(from).as_secs_f64() * 1e3
    }

    fn latency_ms(&self) -> f64 {
        Job::ms(self.submit, self.status_at)
    }

    /// Records the job's phases as spans under `parent`.
    fn record_spans(&self, parent: Option<usize>, tag: &str) {
        let job = trace::record(parent, "serve.job", tag, self.submit, self.status_at);
        if let Some(accepted) = self.accepted {
            trace::record(job, "serve.accept", tag, self.submit, accepted);
            if let (Some(&first), Some(&last)) = (self.events.first(), self.events.last()) {
                trace::record(job, "serve.first_event", tag, accepted, first);
                trace::record(job, "serve.settle", tag, last, self.status_at);
            }
        }
        if let Some((start, end)) = self.results {
            trace::record(parent, "serve.results", tag, start, end);
        }
    }
}

/// The seed-ordered script of `passes` passes: every scene at resolutions
/// 16, 20, 24, ... (two per pass), each once. A fresh job shares no cell
/// with an earlier one, or the daemon's cache would serve it.
fn script(seed: u64, passes: usize) -> Vec<(usize, SceneId, u32)> {
    let per_scene = JOBS_PER_PASS * passes / SceneId::ALL_WITH_EXTRAS.len();
    let mut specs: Vec<(SceneId, u32)> = SceneId::ALL_WITH_EXTRAS
        .iter()
        .flat_map(|&s| (0..per_scene as u32).map(move |k| (s, 16 + 4 * k)))
        .collect();
    let mut rng = XorShiftRng::new(seed ^ 0x5E4E_5EED);
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    specs.into_iter().enumerate().map(|(i, (s, r))| (i, s, r)).collect()
}

/// One pass: both clients work through their share of `script` on their
/// own connections. Returns the pass seconds and the jobs.
fn pass(index: usize, addr: SocketAddr, script: &[(usize, SceneId, u32)]) -> (f64, Vec<Job>) {
    let pass_span = trace::span("pass", format!("pass{index}"));
    let parent = pass_span.id();
    let start = Instant::now();
    let jobs: Vec<Job> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..WORKERS)
            .map(|c| {
                let mine: Vec<_> = script.iter().copied().skip(c).step_by(WORKERS).collect();
                scope.spawn(move || client(addr, &format!("bench-{c}"), &mine))
            })
            .collect();
        clients.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let secs = start.elapsed().as_secs_f64();
    drop(pass_span);
    for job in &jobs {
        job.record_spans(parent, &format!("pass{index}/{}/{}", job.id, job.kind.label()));
    }
    (secs, jobs)
}

/// One daemon lifetime in a fresh service directory: spawn, the passes,
/// clean shutdown, directory removed. Returns each pass's seconds, the
/// jobs, and any lifecycle problems.
fn serve(dir: &Path, script: &[(usize, SceneId, u32)]) -> (Vec<f64>, Vec<Job>, Vec<String>) {
    let _ = std::fs::remove_dir_all(dir);
    let spawned = {
        let _span = trace::span("serve.spawn", "");
        Server::spawn(ServerConfig { jobs: 1, ..ServerConfig::new(dir.to_path_buf()) })
    };
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => return (Vec::new(), Vec::new(), vec![format!("spawn: {e}")]),
    };
    let mut jobs = Vec::new();
    let secs = script
        .chunks(JOBS_PER_PASS)
        .enumerate()
        .map(|(index, chunk)| {
            let (secs, pass_jobs) = pass(index, handle.addr(), chunk);
            jobs.extend(pass_jobs);
            secs
        })
        .collect();
    let mut problems = Vec::new();
    {
        let _span = trace::span("serve.shutdown", "");
        if let Err(e) = handle.shutdown() {
            problems.push(format!("shutdown: {e}"));
        }
    }
    if let Err(e) = std::fs::remove_dir_all(dir) {
        problems.push(format!("cannot remove {}: {e}", dir.display()));
    }
    (secs, jobs, problems)
}

/// The records a job for this prepared scene must return, simulated by
/// the benchmark itself and checked against the oracle and digests.
fn references(ctx: &mut Ctx, tally: &mut Tally, p: &Prepared) -> Vec<Option<CellRecord>> {
    let oracle = gate::oracle(&p.bvh, p.scene.triangles(), &p.workload, &p.tag);
    policies()
        .iter()
        .map(|&policy| {
            let label = format!("{}/{}", p.id.name(), policy.label());
            let op = format!("serve-mixed/{}/{}", p.tag, policy.label());
            let report = match simulate(p, policy, "conformance.reference").0 {
                Ok(r) => r,
                Err(e) => {
                    tally.op(&op, vec![e.to_string()]);
                    return None;
                }
            };
            let mut problems = Vec::new();
            problems.extend(gate::check_hits(
                tally,
                p.id,
                policy.label(),
                &p.workload,
                &oracle,
                &report,
            ));
            if let Some(d) = &mut ctx.digests {
                problems.extend(d.check(&op, gate::stats_digest(&report)));
            }
            tally.op(&op, problems);
            let cell = Cell { scene: p.id, config: p.cfg, policy, label: label.clone() };
            Some(CellRecord {
                scene: p.id.name().to_string(),
                label,
                fingerprint: cell_key_fingerprint(&cell),
                cycles: report.stats.cycles,
                rays: report.stats.rays_completed,
                box_tests: report.stats.box_tests,
                tri_tests: report.stats.tri_tests,
            })
        })
        .collect()
}

/// Problems with one job against the reference records of its spec.
fn check_job(job: &Job, expected: &[Option<CellRecord>]) -> Vec<String> {
    let mut problems: Vec<String> = job.problem.iter().cloned().collect();
    if !problems.is_empty() {
        return problems;
    }
    if job.state != "done" || job.failed_cells != 0 {
        problems.push(format!("state {} with {} failed cells", job.state, job.failed_cells));
    }
    let want_cached = if job.kind == Kind::Fresh { 0 } else { job.total_cells };
    if job.cached_cells != want_cached || job.total_cells != expected.len() {
        problems.push(format!(
            "{} job served {} of {} cells from cache",
            job.kind.label(),
            job.cached_cells,
            job.total_cells
        ));
    }
    if job.events.len() != job.total_cells {
        problems.push(format!("{} cell events for {} cells", job.events.len(), job.total_cells));
    }
    for want in expected.iter().flatten() {
        match job.records.iter().find(|r| r.label == want.label) {
            Some(got) if got == want => {}
            Some(got) => problems.push(format!("record {got:?}, reference {want:?}")),
            None => problems.push(format!("no record for {}", want.label)),
        }
    }
    problems
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let passes = MIN_PASSES.max((ctx.seconds / PASS_ESTIMATE_S).ceil() as usize);
    let specs = script(ctx.seed, passes);
    // The daemon traces with the path tracer's default seed, so the
    // references do too; only the script order comes from --seed.
    let setup_specs: Vec<_> = specs
        .iter()
        .map(|&(_, scene, res)| {
            let cfg = spec_config(&submit_spec("", scene, res));
            (scene, cfg, format!("{}@{res}", scene.name()))
        })
        .collect();
    let setup::Setup { scenes, secs, probe_ms } = setup::setup(&setup_specs, 0);
    let mut out = Outcome { setup_s: secs, setup_probe_ms: probe_ms, ..Outcome::default() };
    let mut tally = Tally::default();
    let dir = ctx.out_dir.join(format!("serve-{}", std::process::id()));
    let (pass_s, jobs, problems) = serve(&dir, &specs);
    out.pass_s = pass_s;
    tally.op("serve-mixed/daemon", problems);

    // Outside the timed region: references, then every job against them.
    let expected: Vec<Vec<Option<CellRecord>>> =
        scenes.iter().map(|p| references(ctx, &mut tally, p)).collect();
    let mut passed = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let label = format!("serve-mixed/{}/{}/{}", scenes[job.spec].tag, job.id, job.kind.label());
        let problems = check_job(job, &expected[job.spec]);
        passed.push(problems.is_empty());
        tally.op(&label, problems);
    }

    // End-to-end: a cell's time is what its client waits for it, from
    // the job's submit to the cell's event. Frames reach the client in
    // bursts, so gaps between events would measure the socket, not cells.
    let mut speedups = Vec::new();
    let mut fresh_rays = 0.0;
    for job in &jobs {
        out.cell_ms.extend(job.events.iter().map(|&t| Job::ms(job.submit, t)));
        if job.kind == Kind::Fresh && job.problem.is_none() {
            fresh_rays += job.records.iter().map(|r| r.rays as f64).sum::<f64>();
            let cycles = |policy: &str| {
                job.records.iter().find(|r| r.label.ends_with(policy)).map(|r| r.cycles as f64)
            };
            if let (Some(b), Some(v)) = (cycles("/baseline"), cycles("/vtq")) {
                speedups.push(b / v);
            }
        }
    }
    out.rays_per_pass = fresh_rays / out.pass_s.len() as f64;
    out.speedup_geomean = geomean(&speedups).unwrap_or(0.0);

    let phase = |f: &dyn Fn(&Job) -> Option<f64>| -> f64 {
        let xs: Vec<f64> = jobs.iter().filter_map(f).collect();
        percentile(&xs, 0.5).unwrap_or(0.0)
    };
    let l = &mut out.layer;
    l.insert("serve.accept_ms", phase(&|j| j.accepted.map(|a| Job::ms(j.submit, a))));
    l.insert("serve.first_event_ms", phase(&|j| Some(Job::ms(j.accepted?, *j.events.first()?))));
    l.insert("serve.settle_ms", phase(&|j| j.events.last().map(|&e| Job::ms(e, j.status_at))));
    l.insert("serve.results_ms", phase(&|j| j.results.map(|(a, b)| Job::ms(a, b))));
    let cells: usize = jobs.iter().map(|j| j.total_cells).sum();
    let cached: usize = jobs.iter().map(|j| j.cached_cells).sum();
    l.insert("serve.cached_frac", if cells == 0 { 0.0 } else { cached as f64 / cells as f64 });
    l.insert("serve.rejected", jobs.iter().filter(|j| j.rejected).count() as f64);
    l.insert("serve.jobs_per_s", jobs.len() as f64 / out.pass_s.iter().sum::<f64>());
    for (kind, p50, p90) in [
        (Kind::Fresh, "serve.job_fresh_p50_ms", "serve.job_fresh_p90_ms"),
        (Kind::Cached, "serve.job_cached_p50_ms", "serve.job_cached_p90_ms"),
    ] {
        let lat: Vec<f64> = jobs
            .iter()
            .filter(|j| j.kind == kind && j.problem.is_none())
            .map(Job::latency_ms)
            .collect();
        l.insert(p50, percentile(&lat, 0.5).unwrap_or(0.0));
        match tail_percentile(&lat, 0.9) {
            Some(v) => {
                l.insert(p90, v);
            }
            None => {
                tally.op(p90, vec![format!("{} jobs: too few for a p90 with 10 beyond", lat.len())])
            }
        }
        let of_kind = || jobs.iter().zip(&passed).filter(|(j, _)| j.kind == kind);
        let attempted = of_kind().count();
        let rejected = of_kind().filter(|(j, _)| j.rejected).count();
        let succeeded = of_kind().filter(|(_, &ok)| ok).count();
        out.notes.push(format!(
            "serve {} jobs: attempted {attempted}, succeeded {succeeded}, failed {}, rejected {rejected}; \
             latency p50 {:.2} ms",
            kind.label(),
            attempted - succeeded - rejected,
            l[p50]
        ));
    }
    let (nodes, treelets, rays) = setup::sizes(&scenes);
    l.insert("rtbvh.nodes", nodes);
    l.insert("rtbvh.treelets", treelets);
    l.insert("workload.rays", rays);
    l.insert("sweep.prepared_builds", scenes.len() as f64);
    out.notes.push(format!(
        "simulated treelet-queue speedup on the quick-config jobs, geomean over {} jobs: {:.4} x",
        speedups.len(),
        out.speedup_geomean
    ));
    out.tally = tally;
    out
}
