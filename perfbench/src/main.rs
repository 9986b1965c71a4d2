//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <fig10-full|fig05-analytic|serve-mixed> --seed N --seconds S --trace 0|1
//! perfbench --workload fig10-full --seed 0 --bless      # rewrite reference digests
//! perfbench compare BASELINE CURRENT                     # saved results, same host only
//! ```
//!
//! Each workload is prepared (timed as set-up), then run in whole passes
//! until `--seconds` of passes have been measured, then checked against
//! the functional oracle and the reference digests outside the timed
//! region. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced and prints the per-layer metrics,
//! including the tracing overhead. The last line of standard output is
//! the JSON verdict; the exit code is 0 only when every check passed.

mod fig05;
mod fig10;
mod gate;
mod host;
mod metrics;
mod serve;
mod setup;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gate::{Digests, Tally};
use metrics::{percentile, tail_percentile, END_TO_END, PER_LAYER};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fig10-full", "fig05-analytic", "serve-mixed"];

/// Sweep workers and service clients: the 2-core host this benchmark
/// was sized on.
pub const WORKERS: usize = 2;

/// Simulated speedup the paper reports for VTQ over the baseline RT unit
/// (Fig 10 geomean).
const PAPER_VTQ_SPEEDUP: f64 = 1.95;

/// What one workload needs from the command line.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Reference digests to check (or collect), when the run has them.
    pub digests: Option<Digests>,
    /// Where transient files go (service directories).
    pub out_dir: PathBuf,
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up round.
    pub setup_s: Vec<f64>,
    /// Seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// Milliseconds of each cell, pooled over passes.
    pub cell_ms: Vec<f64>,
    /// Rays the workload computed in one pass.
    pub rays_per_pass: f64,
    /// Geomean speedup of treelet queues over the baseline.
    pub speedup_geomean: f64,
    /// Per-layer values the workload computes itself (counts, service
    /// latencies); span-derived ones are added from the trace.
    pub layer: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    /// Human-readable lines printed before the verdict.
    pub notes: Vec<String>,
    /// Milliseconds of each host-speed probe taken during set-up.
    pub setup_probe_ms: Vec<f64>,
    /// Milliseconds of each host-speed probe taken during the passes.
    pub probe_ms: Vec<f64>,
}

/// Runs timed passes until at least `min` passes and `seconds` of pass
/// time have been measured. `pass(i)` runs pass `i` and returns its
/// seconds; work after the timed part (checks) is its own business.
pub fn run_passes(min: usize, seconds: f64, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut secs = Vec::new();
    while secs.len() < min || secs.iter().sum::<f64>() < seconds {
        secs.push(pass(secs.len()));
    }
    secs
}

fn run_workload(name: &str, ctx: &mut Ctx) -> Outcome {
    host::take_probes();
    let mut out = match name {
        "fig10-full" => fig10::run(ctx),
        "fig05-analytic" => fig05::run(ctx),
        "serve-mixed" => serve::run(ctx),
        other => unreachable!("workload {other} was validated at parse"),
    };
    out.probe_ms = host::take_probes();
    out
}

/// How much faster the host was than the reference host while `probes`
/// were taken: the reference probe time over their median.
fn host_speed(probes: &[f64]) -> f64 {
    host::REFERENCE_PROBE_MS / median(probes)
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).unwrap_or(0.0)
}

/// The end-to-end metrics of an untraced run. Host times are scaled by
/// [`host_speed`] to what the reference host would have measured, so the
/// drift of a shared host's speed between runs cancels.
fn end_to_end(out: &Outcome) -> Result<BTreeMap<&'static str, f64>, String> {
    let speed = host_speed(&out.probe_ms);
    let run_s = median(&out.pass_s) * speed;
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&out.setup_s) * host_speed(&out.setup_probe_ms));
    m.insert("run_s", run_s);
    m.insert("cell_p50_ms", median(&out.cell_ms) * speed);
    let p75 = tail_percentile(&out.cell_ms, 0.75).ok_or_else(|| {
        format!("only {} cells: too few for a p75 with 10 beyond", out.cell_ms.len())
    })?;
    m.insert("cell_p75_ms", p75 * speed);
    m.insert("rays_per_s", out.rays_per_pass / run_s);
    m.insert("peak_rss_mb", host::peak_rss_mb().ok_or("no peak RSS from /proc/self/status")?);
    m.insert("vtq_speedup_geomean", out.speedup_geomean);
    for def in END_TO_END {
        match m.get(def.name) {
            Some(v) if v.is_finite() && *v > 0.0 => {}
            other => return Err(format!("end-to-end metric {} is {other:?}", def.name)),
        }
    }
    Ok(m)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    spans: &[trace::Span],
    out: &Outcome,
    untraced_run_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let rounds = out.setup_s.len().max(1) as f64;
    let passes = out.pass_s.len().max(1) as f64;
    let total = |name| trace::total_s(spans, name);
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    m.insert("rtscene.build_s", total("rtscene.build") / rounds);
    m.insert("rtbvh.build_s", total("rtbvh.build") / rounds);
    m.insert("workload.pathtrace_s", total("workload.pathtrace") / rounds);
    m.insert("analytical.traces_s", total("analytical.traces") / passes);
    m.insert("analytical.model_s", total("analytical.model") / passes);
    m.insert("conformance.oracle_s", total("conformance.oracle"));
    let busy = total("sweep.task");
    m.insert("sweep.busy_s", busy / passes);
    if busy > 0.0 {
        m.insert("sweep.idle_frac", 1.0 - busy / (WORKERS as f64 * out.pass_s.iter().sum::<f64>()));
    }
    let (mut sim_s, mut sim_cycles) = (0.0, 0.0);
    for (policy, run_key, npc_key, cycles_key) in [
        (
            "baseline",
            "gpusim.run_s.baseline",
            "gpusim.ns_per_cycle.baseline",
            "gpusim.cycles.baseline",
        ),
        (
            "prefetch",
            "gpusim.run_s.prefetch",
            "gpusim.ns_per_cycle.prefetch",
            "gpusim.cycles.prefetch",
        ),
        ("vtq", "gpusim.run_s.vtq", "gpusim.ns_per_cycle.vtq", "gpusim.cycles.vtq"),
    ] {
        let suffix = format!("/{policy}");
        let secs: f64 = spans
            .iter()
            .filter(|s| s.name == "gpusim.run" && s.tag.ends_with(&suffix))
            .fold(0.0, |t, s| t + s.duration().as_secs_f64())
            / passes;
        let cycles = out.layer.get(cycles_key).copied().unwrap_or(0.0);
        m.insert(run_key, secs);
        if cycles > 0.0 {
            m.insert(npc_key, secs * 1e9 / cycles);
        }
        sim_s += secs;
        sim_cycles += cycles;
    }
    if sim_s > 0.0 {
        m.insert("gpusim.cycles_per_s", sim_cycles / sim_s);
    }
    m.insert(
        "trace.overhead_frac",
        median(&out.pass_s) * host_speed(&out.probe_ms) / untraced_run_s - 1.0,
    );
    m.insert("host.probe_ms", median(&out.probe_ms));
    m.insert("conformance.rays_checked", out.tally.rays_checked as f64);
    m.insert("conformance.divergent", out.tally.divergent as f64);
    for (name, value) in &out.layer {
        if !m.contains_key(name) {
            return Err(format!("workload reported unknown layer metric {name}"));
        }
        m.insert(name, *value);
    }
    if let Some((name, v)) = m.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("per-layer metric {name} is {v}"));
    }
    Ok(m)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig10-full|fig05-analytic|serve-mixed> \
                     [--seed N] [--seconds S] [--trace 0|1] [--bless]\n       \
                     perfbench compare BASELINE CURRENT";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, bless: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must lie in 0..=3600".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--bless" => parsed.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    if parsed.bless && parsed.seed != 0 {
        return Err("--bless records the default seed's digests: use --seed 0".to_string());
    }
    Ok(parsed)
}

fn compare(baseline: &Path, current: &Path) -> ExitCode {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| eprintln!("cannot read {}: {e}", p.display()))
    };
    let (Ok(a), Ok(b)) = (read(baseline), read(current)) else { return ExitCode::from(2) };
    let (text, verdict) = host::compare(&a, &b);
    print!("{text}");
    match verdict {
        host::Verdict::Clean => ExitCode::SUCCESS,
        host::Verdict::Regressed(_) => ExitCode::from(1),
        host::Verdict::Incomparable(_) => ExitCode::from(2),
    }
}

/// Merges blessed digests into the reference file.
fn write_digests(blessed: &BTreeMap<String, u32>) -> std::io::Result<PathBuf> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/digests.txt");
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    let header: String =
        old.lines().filter(|l| l.starts_with('#')).map(|l| format!("{l}\n")).collect();
    let mut all = gate::parse_digests(&old);
    all.extend(blessed.iter().map(|(k, v)| (k.clone(), *v)));
    let body: String = all.iter().map(|(k, v)| format!("{k} {v:08x}\n")).collect();
    std::fs::write(&path, header + &body)?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The in-process daemon prepares scenes through the sweep engine,
    // which otherwise reports each one on stderr.
    vtq::sweep::set_quiet(true);
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let host = host::Fingerprint::current();
    println!(
        "host: cpu=\"{}\" logical_cores={} rustc=\"{}\" profile={} git_rev={}",
        host.cpu_model, host.logical_cores, host.rustc, host.profile, host.git_rev
    );
    // Serve-mixed cells always use the default path-tracer seed (the
    // script alone comes from --seed), so their digests apply at any seed.
    let digests = if args.bless {
        Some(Digests::blessing())
    } else if args.seed == 0 || args.workload == "serve-mixed" {
        Some(Digests::compiled_in())
    } else {
        None
    };
    let mut ctx = Ctx { seed: args.seed, seconds: args.seconds, digests, out_dir: out_dir.clone() };

    let started = Instant::now();
    let plain = run_workload(&args.workload, &mut ctx);
    let e2e = end_to_end(&plain);
    let mut tally = Tally::default();
    let mut notes = plain.notes.clone();
    let rounded = |xs: &[f64]| xs.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ");
    notes.push(format!(
        "measured on this host: set-up rounds (s): {}; passes (s): {}; cells: {}; median \
         probe {:.4} ms in set-up and {:.4} ms in the passes, so host times below are scaled \
         by {:.4} and {:.4} to the reference host's {} ms probe",
        rounded(&plain.setup_s),
        rounded(&plain.pass_s),
        plain.cell_ms.len(),
        median(&plain.setup_probe_ms),
        median(&plain.probe_ms),
        host_speed(&plain.setup_probe_ms),
        host_speed(&plain.probe_ms),
        host::REFERENCE_PROBE_MS
    ));
    let mut metrics = match &e2e {
        Ok(m) => m.clone(),
        Err(e) => {
            tally.op("metrics", vec![e.clone()]);
            BTreeMap::new()
        }
    };
    let untraced_run_s = median(&plain.pass_s) * host_speed(&plain.probe_ms);
    tally.absorb(plain.tally);
    if args.trace {
        trace::set_enabled(true);
        let traced = run_workload(&args.workload, &mut ctx);
        trace::set_enabled(false);
        let spans = trace::take();
        notes.push(format!("traced run, per span:\n{}", trace::rollup(&spans)));
        let file = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&file, trace::to_jsonl(&spans)) {
            notes.push(format!("cannot write {}: {e}", file.display()));
        }
        match per_layer(&spans, &traced, untraced_run_s) {
            Ok(m) => metrics = m,
            Err(e) => tally.op("metrics", vec![e]),
        }
        tally.absorb(traced.tally);
    }

    for line in &notes {
        println!("{line}");
    }
    if let Ok(m) = &e2e {
        let geomean = m["vtq_speedup_geomean"];
        if args.workload == "fig10-full" {
            println!(
                "vtq_speedup_geomean = {geomean:.4} x (simulated; paper Fig 10: {PAPER_VTQ_SPEEDUP} x, \
                 error {:+.1}%; modelled caches start empty in every cell; the model is \
                 validated only against the paper's published speedups)",
                (geomean / PAPER_VTQ_SPEEDUP - 1.0) * 100.0
            );
        }
        for def in END_TO_END {
            println!("{:<32} = {:.6} {}", def.name, m[def.name], def.unit);
        }
    }
    if args.trace {
        for def in PER_LAYER {
            println!(
                "{:<32} = {:.6} {}",
                def.name,
                metrics.get(def.name).unwrap_or(&0.0),
                def.unit
            );
        }
    }
    println!(
        "fail_frac = {} ({} of {} operations failed; {:.1} s total)",
        tally.fail_frac(),
        tally.failed,
        tally.attempted,
        started.elapsed().as_secs_f64()
    );
    for p in tally.problems.iter().take(20) {
        println!("FAILED {p}");
    }
    if let Some(blessed) = ctx.digests.as_ref().and_then(|d| d.blessed.as_ref()) {
        match write_digests(blessed) {
            Ok(path) => println!("blessed {} digests into {}", blessed.len(), path.display()),
            Err(e) => tally.op("bless", vec![e.to_string()]),
        }
    }
    let header =
        format!("workload={}\nseed={}\ntrace={}\n", args.workload, args.seed, u8::from(args.trace));
    let saved = out_dir.join(format!(
        "result-{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&saved, host::result_file(&host, &header, &metrics)) {
        println!("cannot write {}: {e}", saved.display());
    }
    if tally.attempted == 0 {
        tally.op("run", vec!["no operation ran".to_string()]);
    }
    let correct = tally.failed == 0;
    println!("{}", metrics::result_line(correct, tally.attempted, tally.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
