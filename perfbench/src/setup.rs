//! Scene preparation: geometry, BVH and the path-traced workload of each
//! scene a workload uses, timed as the benchmark's set-up.

use std::time::Instant;

use gpusim::Workload;
use rtbvh::Bvh;
use rtscene::lumibench::{self, SceneId};
use rtscene::Scene;
use vtq::workload::PathTracer;
use vtq::ExperimentConfig;

use crate::trace;

/// The path tracer's own default seed: benchmark seed 0 reproduces the
/// workloads every figure of the repository uses.
const DEFAULT_TRACER_SEED: u64 = 0x7222_EE7E;

/// Path-tracer seed for a benchmark seed (0 maps to the default).
pub fn tracer_seed(seed: u64) -> u64 {
    DEFAULT_TRACER_SEED ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One prepared scene.
#[derive(Debug)]
pub struct Prepared {
    pub id: SceneId,
    pub cfg: ExperimentConfig,
    pub scene: Scene,
    pub bvh: Bvh,
    pub workload: Workload,
    /// `SCENE` or `SCENE@res`: the id spans and digests use.
    pub tag: String,
}

/// Builds scene, BVH and workload, each as a traced layer call.
pub fn prepare(id: SceneId, cfg: &ExperimentConfig, seed: u64, tag: &str) -> Prepared {
    let scene = {
        let _span = trace::span("rtscene.build", tag);
        lumibench::build_scaled(id, cfg.detail_divisor)
    };
    let bvh = {
        let _span = trace::span("rtbvh.build", tag);
        Bvh::build(scene.triangles(), &cfg.bvh)
    };
    let (workload, _image) = {
        let _span = trace::span("workload.pathtrace", tag);
        PathTracer::new(cfg.resolution, cfg.max_bounces)
            .with_seed(tracer_seed(seed))
            .run(&scene, &bvh)
    };
    Prepared { id, cfg: *cfg, scene, bvh, workload, tag: tag.to_string() }
}

/// Set-up repeated this many times per run; `setup_s` is the median.
pub const ROUNDS: usize = 3;

/// What set-up produced and measured.
#[derive(Debug)]
pub struct Setup {
    /// The last round's scenes.
    pub scenes: Vec<Prepared>,
    /// Seconds of each round, host-speed probes excluded.
    pub secs: Vec<f64>,
    /// The host-speed probes taken before each scene.
    pub probe_ms: Vec<f64>,
}

/// Prepares every `(scene, config, tag)` [`ROUNDS`] times on one thread.
pub fn setup(specs: &[(SceneId, ExperimentConfig, String)], seed: u64) -> Setup {
    crate::host::take_probes();
    let mut secs = Vec::with_capacity(ROUNDS);
    let mut scenes = Vec::new();
    for round in 0..ROUNDS {
        drop(std::mem::take(&mut scenes));
        let _span = trace::span("setup", format!("round{round}"));
        let mut round_secs = 0.0;
        for (id, cfg, tag) in specs {
            crate::host::probe();
            let start = Instant::now();
            scenes.push(prepare(*id, cfg, seed, tag));
            round_secs += start.elapsed().as_secs_f64();
        }
        secs.push(round_secs);
    }
    Setup { scenes, secs, probe_ms: crate::host::take_probes() }
}

/// Work sizes of the prepared scenes: `(bvh nodes, treelets, rays)`.
pub fn sizes(scenes: &[Prepared]) -> (f64, f64, f64) {
    scenes.iter().fold((0.0, 0.0, 0.0), |(n, t, r), p| {
        (
            n + p.bvh.nodes().len() as f64,
            t + p.bvh.partition().len() as f64,
            r + p.workload.total_rays() as f64,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbvh::BvhConfig;

    #[test]
    fn seed_zero_is_the_path_tracers_default() {
        let scene = lumibench::build_scaled(SceneId::Bunny, 64);
        let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
        let (default, _) = PathTracer::new(12, 2).run(&scene, &bvh);
        let (zero, _) = PathTracer::new(12, 2).with_seed(tracer_seed(0)).run(&scene, &bvh);
        let (one, _) = PathTracer::new(12, 2).with_seed(tracer_seed(1)).run(&scene, &bvh);
        let rays = |w: &Workload| -> Vec<_> {
            w.tasks.iter().flat_map(|t| &t.rays).map(|c| c.ray.dir.x.to_bits()).collect()
        };
        assert_eq!(rays(&default), rays(&zero));
        assert_ne!(rays(&default), rays(&one));
    }
}
