//! Typed simulation failures and deadlock forensics.
//!
//! The integrity layer's contract: [`Simulator::try_run`](crate::Simulator)
//! never panics on a sick configuration or a stuck engine — it returns a
//! [`SimError`] that says *what* went wrong, *when* (the cycle), and, for
//! watchdog trips, carries a [`ForensicsSnapshot`] of the machine state so
//! the stall is diagnosable offline.

use std::fmt;

use crate::config::ConfigError;

/// One conservation-law violation caught by the invariant auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Cycle at which the audit ran.
    pub cycle: u64,
    /// Which invariant failed (`ray-conservation`, `queue-accounting`,
    /// `cta-slots`, `warp-width`, `stall-sum`, `mem-accounting`).
    pub site: String,
    /// Human-readable mismatch description with the observed values.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant `{}` violated at cycle {}: {}", self.site, self.cycle, self.detail)
    }
}

/// Per-SM slice of a [`ForensicsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SmSnapshot {
    /// SM index.
    pub sm: usize,
    /// Unoccupied CTA slots (out of `max_ctas_per_sm`).
    pub free_cta_slots: usize,
    /// Warps resident in the RT unit's warp buffer.
    pub resident_warps: usize,
    /// Total warp-buffer slots.
    pub warp_buffer_slots: usize,
    /// Warps en route to the RT unit (issued, not yet arrived).
    pub incoming_warps: usize,
    /// Rays parked in this SM's treelet queues.
    pub queued_rays: usize,
    /// Number of non-empty treelet queues.
    pub treelet_queues: usize,
    /// Rays in flight on this SM (issued to the RT unit, not completed).
    pub rays_in_flight: usize,
    /// CTAs currently in a raygen/shade phase.
    pub shader_active: usize,
    /// Virtual-ray reservations held by not-yet-launched CTAs.
    pub reserved_rays: usize,
    /// Last cycle at which this SM's RT unit installed or stepped a warp.
    pub last_progress_cycle: u64,
}

/// Structured machine state captured when the watchdog trips (deadlock or
/// cycle-budget exhaustion). Serialized with
/// [`export::snapshot_jsonl`](crate::export::snapshot_jsonl).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ForensicsSnapshot {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Rays created so far (raygen output).
    pub rays_created: u64,
    /// Rays whose traversal completed.
    pub rays_completed: u64,
    /// Total CTAs in the workload.
    pub ctas_total: usize,
    /// CTAs not yet in their terminal phase.
    pub ctas_unfinished: usize,
    /// CTAs waiting for a free SM slot.
    pub pending_ctas: usize,
    /// Suspended CTAs whose rays finished, awaiting resume.
    pub resume_ready_ctas: usize,
    /// Outstanding DRAM fills across all SMs.
    pub mem_in_flight: usize,
    /// Per-SM state, indexed by SM.
    pub sms: Vec<SmSnapshot>,
}

impl ForensicsSnapshot {
    /// Rays in flight across all SMs.
    pub fn rays_in_flight(&self) -> usize {
        self.sms.iter().map(|s| s.rays_in_flight).sum()
    }

    /// Rays parked in treelet queues across all SMs.
    pub fn queued_rays(&self) -> usize {
        self.sms.iter().map(|s| s.queued_rays).sum()
    }

    /// Non-empty treelet queues across all SMs.
    pub fn queue_count(&self) -> usize {
        self.sms.iter().map(|s| s.treelet_queues).sum()
    }
}

/// A typed simulation failure; see the module docs for the contract.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The engine can make no further progress: no schedulable work and no
    /// future event, with CTAs unfinished.
    Deadlock {
        /// Machine state at the stall.
        snapshot: ForensicsSnapshot,
    },
    /// The watchdog's `max_cycles` budget would be exceeded by the next
    /// event.
    CycleBudget {
        /// The configured budget ([`GpuConfig::max_cycles`](crate::GpuConfig)).
        budget: u64,
        /// Machine state when the budget ran out.
        snapshot: ForensicsSnapshot,
    },
    /// The invariant auditor caught a conservation-law violation.
    Invariant(InvariantViolation),
    /// The workload was rejected before simulation started.
    Workload(String),
    /// The configuration failed [`GpuConfig::validate`](crate::GpuConfig).
    Config(ConfigError),
    /// A checkpoint could not be restored: version/geometry validation
    /// failed or the snapshot is internally inconsistent with the target
    /// simulator.
    Checkpoint(String),
}

impl SimError {
    /// Short stable tag for classification (`deadlock`, `cycle-budget`,
    /// `invariant`, `workload`, `config`, `checkpoint`).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::CycleBudget { .. } => "cycle-budget",
            SimError::Invariant(_) => "invariant",
            SimError::Workload(_) => "workload",
            SimError::Config(_) => "config",
            SimError::Checkpoint(_) => "checkpoint",
        }
    }

    /// The forensics snapshot, when this error carries one (deadlock and
    /// cycle-budget trips).
    pub fn snapshot(&self) -> Option<&ForensicsSnapshot> {
        match self {
            SimError::Deadlock { snapshot } | SimError::CycleBudget { snapshot, .. } => {
                Some(snapshot)
            }
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { snapshot } => write!(
                f,
                "simulator deadlock at cycle {}: {} of {} CTAs unfinished, {} rays in flight, \
                 {} rays queued over {} queues (forensics snapshot attached)",
                snapshot.cycle,
                snapshot.ctas_unfinished,
                snapshot.ctas_total,
                snapshot.rays_in_flight(),
                snapshot.queued_rays(),
                snapshot.queue_count(),
            ),
            SimError::CycleBudget { budget, snapshot } => write!(
                f,
                "cycle budget of {budget} exceeded at cycle {}: {} of {} CTAs unfinished \
                 (forensics snapshot attached)",
                snapshot.cycle, snapshot.ctas_unfinished, snapshot.ctas_total,
            ),
            SimError::Invariant(v) => v.fmt(f),
            SimError::Workload(msg) => write!(f, "workload rejected: {msg}"),
            SimError::Config(e) => e.fmt(f),
            SimError::Checkpoint(msg) => write!(f, "checkpoint rejected: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

impl From<InvariantViolation> for SimError {
    fn from(v: InvariantViolation) -> SimError {
        SimError::Invariant(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> ForensicsSnapshot {
        ForensicsSnapshot {
            cycle: 42,
            rays_created: 10,
            rays_completed: 4,
            ctas_total: 3,
            ctas_unfinished: 2,
            pending_ctas: 1,
            resume_ready_ctas: 0,
            mem_in_flight: 5,
            sms: vec![
                SmSnapshot {
                    sm: 0,
                    rays_in_flight: 6,
                    queued_rays: 3,
                    treelet_queues: 2,
                    ..Default::default()
                },
                SmSnapshot { sm: 1, queued_rays: 1, treelet_queues: 1, ..Default::default() },
            ],
        }
    }

    #[test]
    fn snapshot_aggregates() {
        let s = snap();
        assert_eq!(s.rays_in_flight(), 6);
        assert_eq!(s.queued_rays(), 4);
        assert_eq!(s.queue_count(), 3);
    }

    #[test]
    fn display_mentions_the_essentials() {
        let msg = SimError::Deadlock { snapshot: snap() }.to_string();
        assert!(msg.contains("deadlock at cycle 42"), "got: {msg}");
        assert!(msg.contains("2 of 3 CTAs unfinished"), "got: {msg}");
        let msg = SimError::CycleBudget { budget: 99, snapshot: snap() }.to_string();
        assert!(msg.contains("budget of 99"), "got: {msg}");
        let msg = SimError::Invariant(InvariantViolation {
            cycle: 7,
            site: "stall-sum".to_string(),
            detail: "total 6 != 7".to_string(),
        })
        .to_string();
        assert!(msg.contains("`stall-sum`") && msg.contains("cycle 7"), "got: {msg}");
        let msg = SimError::Workload("empty workload".to_string()).to_string();
        assert!(msg.contains("empty workload"), "got: {msg}");
        let msg = SimError::Checkpoint("version 9 unsupported".to_string()).to_string();
        assert!(msg.contains("checkpoint rejected") && msg.contains("version 9"), "got: {msg}");
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(SimError::Deadlock { snapshot: snap() }.kind(), "deadlock");
        assert_eq!(SimError::Workload(String::new()).kind(), "workload");
        assert_eq!(SimError::Checkpoint(String::new()).kind(), "checkpoint");
        assert!(SimError::Deadlock { snapshot: snap() }.snapshot().is_some());
        assert!(SimError::Workload(String::new()).snapshot().is_none());
    }
}
