//! The correctness gate: every simulated cell's hits against the
//! functional oracle, and, where references exist, a CRC of its full
//! statistics against the digest kept in `reference/digests.txt`.
//! Nothing here runs inside a timed region.

use gpumem::AccessKind;
use gpusim::frames::crc32;
use gpusim::{HitCapture, SimReport, Workload};
use rtscene::lumibench::SceneId;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vtq::conformance::{compare_hits, OracleRun};

use crate::trace;

/// Reference digests, compiled in so a run cannot read a stale copy.
const DIGESTS: &str = include_str!("../reference/digests.txt");

/// Parses `key hex-crc` lines; `#` starts a comment.
pub fn parse_digests(text: &str) -> BTreeMap<String, u32> {
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let (key, crc) = l.split_once(' ')?;
            Some((key.to_string(), u32::from_str_radix(crc.trim(), 16).ok()?))
        })
        .collect()
}

/// CRC32 of every counter of a run: all of [`gpusim::SimStats`] (per-SM
/// stall buckets and sampled windows included) and every access kind of
/// the memory statistics.
pub fn stats_digest(report: &SimReport) -> u32 {
    let s = &report.stats;
    let mut text = format!(
        "cycles={} lanes={}/{} mode_cycles={:?} mode_isect={:?} box={} tri={} warps={} \
         repack={}/{} dispatch={} cta={}/{}/{} peak_rays={} prefetch={}/{}/{} rays={} \
         qtable={}/{}/{} predict={}/{}/{}/{}",
        s.cycles,
        s.active_lane_steps,
        s.total_lane_steps,
        s.mode_cycles,
        s.mode_isect_tests,
        s.box_tests,
        s.tri_tests,
        s.warps_issued,
        s.repack_events,
        s.repacked_rays,
        s.treelet_dispatches,
        s.cta_suspends,
        s.cta_resumes,
        s.cta_state_bytes,
        s.peak_rays_in_flight,
        s.prefetches_issued,
        s.prefetch_lines,
        s.prefetch_lines_used,
        s.rays_completed,
        s.queue_table_max_chain,
        s.queue_table_peak_entries,
        s.queue_table_overflows,
        s.predict_lookups,
        s.predict_hits,
        s.predict_inserts,
        s.predict_evictions,
    );
    for b in &s.stall {
        let _ = write!(
            text,
            " stall={}/{}/{}/{}/{}",
            b.busy, b.waiting_memory, b.warp_buffer_empty, b.queue_drained, b.idle
        );
    }
    for p in &s.series {
        let _ = write!(
            text,
            " window={}/{}/{}/{}/{:?}/{}/{}/{}/{}/{}",
            p.start_cycle,
            p.covered_cycles,
            p.ray_cycles,
            p.occupied_slot_cycles,
            p.mode_cycles,
            p.stall.busy,
            p.stall.waiting_memory,
            p.stall.warp_buffer_empty,
            p.stall.queue_drained,
            p.stall.idle
        );
    }
    for kind in AccessKind::ALL {
        let k = report.mem.kind(kind);
        let _ = write!(
            text,
            " {kind}={}/{}/{}/{}/{}",
            k.lines, k.l1_hits, k.l2_hits, k.dram, k.l1_lookups
        );
    }
    crc32(text.as_bytes())
}

/// CRC32 of an analytical-model row: every `(batch, speedup)` pair, bit
/// for bit.
pub fn speedups_digest(speedups: &[(usize, f64)]) -> u32 {
    let text: String = speedups.iter().map(|(c, s)| format!("{c}:{:016x} ", s.to_bits())).collect();
    crc32(text.as_bytes())
}

/// What the gate counted: operations attempted and failed, and the
/// conformance layer's own work.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub rays_checked: u64,
    pub divergent: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Settles one operation: failed when it has any problem.
    pub fn op(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.problems.push(format!("{label}: {p}"));
            }
        }
    }

    /// Failed operations over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rays_checked += other.rays_checked;
        self.divergent += other.divergent;
        self.problems.extend(other.problems);
    }
}

/// Digest checking for one run: against the compiled-in references, or,
/// when blessing, collecting new ones.
#[derive(Debug)]
pub struct Digests {
    references: BTreeMap<String, u32>,
    /// `Some` while writing new references instead of checking.
    pub blessed: Option<BTreeMap<String, u32>>,
}

impl Digests {
    /// Checks against the compiled-in reference file.
    pub fn compiled_in() -> Digests {
        Digests::from_text(DIGESTS)
    }

    /// Checks against the references in `text`.
    pub fn from_text(text: &str) -> Digests {
        Digests { references: parse_digests(text), blessed: None }
    }

    /// Collects digests instead of checking them.
    pub fn blessing() -> Digests {
        Digests { references: BTreeMap::new(), blessed: Some(BTreeMap::new()) }
    }

    /// Checks (or records) the digest of `key`.
    pub fn check(&mut self, key: &str, digest: u32) -> Option<String> {
        if let Some(blessed) = &mut self.blessed {
            blessed.insert(key.to_string(), digest);
            return None;
        }
        match self.references.get(key) {
            Some(&want) if want == digest => None,
            Some(&want) => Some(format!("stats digest {digest:08x}, reference {want:08x}")),
            None => Some(format!("no reference digest for {key}")),
        }
    }
}

/// Runs the functional oracle over a workload, as a traced layer call.
pub fn oracle(
    bvh: &rtbvh::Bvh,
    triangles: &[rtscene::Triangle],
    workload: &Workload,
    tag: &str,
) -> OracleRun {
    let _span = trace::span("conformance.oracle", tag);
    vtq::conformance::oracle_run(bvh, triangles, workload)
}

/// Compares a simulated cell's hits with the oracle's answers, counting
/// the rays checked and any divergence into `tally`; returns the problem,
/// if any.
pub fn check_hits(
    tally: &mut Tally,
    scene: SceneId,
    policy: &str,
    workload: &Workload,
    oracle: &OracleRun,
    report: &SimReport,
) -> Option<String> {
    let _span = trace::span("conformance.compare", format!("{}/{policy}", scene.name()));
    let capture = HitCapture::from_report(report);
    match compare_hits(scene, policy, workload, oracle, &capture) {
        Ok(eq) => {
            tally.rays_checked += eq.calls_checked as u64;
            None
        }
        Err(divergence) => {
            tally.divergent += 1;
            Some(divergence.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{GpuConfig, RunOptions, Simulator, TraversalPolicy};
    use rtbvh::{Bvh, BvhConfig};
    use rtscene::lumibench;
    use vtq::workload::PathTracer;

    /// A small scene, its workload and one baseline run.
    fn small_cell() -> (rtscene::Scene, Bvh, Workload, SimReport) {
        let scene = lumibench::build_scaled(SceneId::Bunny, 64);
        let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
        let (workload, _) = PathTracer::new(16, 2).run(&scene, &bvh);
        let cfg = GpuConfig::default().with_policy(TraversalPolicy::Baseline);
        let report = Simulator::new(&bvh, scene.triangles(), cfg)
            .try_run_with(&workload, RunOptions::new())
            .expect("small cell simulates");
        (scene, bvh, workload, report)
    }

    /// Gates one cell the way the workloads do.
    fn gate(
        digests: &mut Digests,
        scene: &rtscene::Scene,
        bvh: &Bvh,
        w: &Workload,
        r: &SimReport,
    ) -> Tally {
        let mut tally = Tally::default();
        let oracle = oracle(bvh, scene.triangles(), w, "BUNNY");
        let mut problems = Vec::new();
        problems.extend(check_hits(&mut tally, SceneId::Bunny, "baseline", w, &oracle, r));
        problems.extend(digests.check("canary/BUNNY/baseline", stats_digest(r)));
        tally.op("BUNNY/baseline", problems);
        tally
    }

    #[test]
    fn canary_gate_goes_red() {
        let (scene, bvh, workload, report) = small_cell();
        let good = format!("canary/BUNNY/baseline {:08x}\n", stats_digest(&report));
        let clean = gate(&mut Digests::from_text(&good), &scene, &bvh, &workload, &report);
        assert_eq!((clean.attempted, clean.failed, clean.divergent), (1, 0, 0));
        assert!(clean.rays_checked as usize == workload.total_rays());

        // A doctored reference digest.
        let doctored = format!("canary/BUNNY/baseline {:08x}\n", stats_digest(&report) ^ 1);
        let red = gate(&mut Digests::from_text(&doctored), &scene, &bvh, &workload, &report);
        assert!(red.fail_frac() > 0.0, "doctored digest passed the gate");

        // One perturbed hit.
        let mut perturbed = report.clone();
        let hit = perturbed
            .hits
            .iter_mut()
            .flatten()
            .find_map(|h| h.as_mut())
            .expect("some ray hits the bunny");
        hit.t = f32::from_bits(hit.t.to_bits() + 1);
        let red = gate(&mut Digests::from_text(&good), &scene, &bvh, &workload, &perturbed);
        assert!(red.fail_frac() > 0.0, "perturbed hit passed the gate");
        assert_eq!(red.divergent, 1);
    }

    #[test]
    fn digest_sees_every_counter_and_blessing_records() {
        let (_, _, _, report) = small_cell();
        let mut bumped = report.clone();
        bumped.stats.cta_resumes += 1;
        assert_ne!(stats_digest(&report), stats_digest(&bumped));
        let mut digests = Digests::blessing();
        assert_eq!(digests.check("k", 7), None);
        assert_eq!(digests.blessed.as_ref().and_then(|b| b.get("k")), Some(&7));
        assert!(Digests::from_text("").check("k", 7).is_some(), "missing reference must fail");
        assert_eq!(parse_digests("# c\na/b 0000000a\n").get("a/b"), Some(&10));
    }
}
