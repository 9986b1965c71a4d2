//! Cycle-level GPU + RT-unit simulator for the treelet-rt reproduction.
//!
//! This crate is the from-scratch stand-in for Vulkan-Sim that the paper's
//! evaluation runs on. It models:
//!
//! * **SMs, CTAs and warps** — CTA scheduling with per-SM slot limits,
//!   fixed-latency raygen/shading phases, and per-warp `traceRayEXT`
//!   hand-off to the RT unit ([`Simulator`]).
//! * **The RT unit** — a warp buffer (Table 1: one slot) stepping warps in
//!   SIMT lockstep through the BVH with real cache/DRAM timing, using the
//!   two-stack *treelet traversal order* of Chou et al. ([`ray`]).
//! * **Ray virtualization** (§3.1/§4.1) — CTAs suspend after issuing their
//!   rays (state saved to memory), freeing slots for new raygen shaders, and
//!   resume with priority when traversal completes.
//! * **Dynamic treelet queues** (§3.2/§4.2) — per-RT-unit queues grouping
//!   rays by next treelet, treelet-stationary warps with bulk treelet
//!   loads + ray-record fetches, preloading (§4.3), grouping of
//!   underpopulated queues (§4.4) and warp repacking (§4.5).
//! * **Baselines** — the plain RT-accelerated GPU and the treelet
//!   prefetcher of Chou et al. \[8], selected via [`TraversalPolicy`].
//! * **Statistics & energy** — SIMT efficiency, per-mode cycle and
//!   intersection-test attribution, virtualization overheads and an
//!   AccelWattch-style energy model ([`SimStats`], [`energy`]).
//!
//! # Example
//!
//! ```
//! use gpusim::{GpuConfig, PathTask, Simulator, TraversalPolicy, VtqParams, Workload};
//! use rtbvh::{Bvh, BvhConfig};
//! use rtscene::lumibench::{self, SceneId};
//!
//! let scene = lumibench::build_scaled(SceneId::Bunny, 64);
//! let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
//! let workload = Workload {
//!     tasks: (0..128)
//!         .map(|i| PathTask { rays: vec![scene.camera().primary_ray(i % 16, i / 16, 16, 8, None).into()] })
//!         .collect(),
//! };
//! let cfg = GpuConfig::default().with_policy(TraversalPolicy::Vtq(VtqParams::default()));
//! let report = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
//! assert_eq!(report.stats.rays_completed as usize, workload.total_rays());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod config;
pub mod energy;
mod error;
pub mod export;
pub mod frames;
pub mod hw_table;
mod observe;
pub mod predict;
pub mod queues;
pub mod ray;
mod sim;
mod stats;

pub use checkpoint::{config_tag, Checkpoint, CHECKPOINT_VERSION};
pub use config::{
    AuditMode, ConfigError, GpuConfig, GpuConfigBuilder, PredictParams, PredictParamsBuilder,
    TraversalPolicy, VtqParams, VtqParamsBuilder, DEFAULT_AUDIT_INTERVAL,
};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::{ForensicsSnapshot, InvariantViolation, SimError, SmSnapshot};
pub use observe::{
    CountingSink, RingSink, SamplePoint, StallBreakdown, StallKind, TraceEvent, TraceSink,
};
pub use predict::{predict_key, PredictTable, PredictTableStats};
pub use queues::TreeletQueues;
pub use ray::{NextNode, RayId, RayTraversal, StackArena, StackEntry, VisitCost};
pub use sim::{
    HitCapture, PathTask, RunOptions, Sabotage, SimReport, Simulator, TraceCall, Workload,
    TRACE_T_MIN,
};
pub use stats::{SimStats, TraversalMode};
