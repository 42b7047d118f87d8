//! Engine configuration.

use aa_logp::LogPParams;
use aa_partition::{
    BfsGrowPartitioner, HashPartitioner, MultilevelKWay, Partitioner, RoundRobinPartitioner,
};
use aa_runtime::{BackendKind, ExchangeMode, FaultPlan};

/// Which partitioner drives domain decomposition (and repartitioning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionerKind {
    /// Cyclic assignment by vertex id.
    RoundRobin,
    /// Multiplicative hash of the vertex id.
    Hash,
    /// BFS region growing from high-degree seeds.
    BfsGrow,
    /// Multilevel k-way with FM refinement (the METIS substitute; default).
    Multilevel,
}

impl PartitionerKind {
    /// Instantiates the partitioner, seeding randomized ones with `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn Partitioner> {
        match self {
            PartitionerKind::RoundRobin => Box::new(RoundRobinPartitioner),
            PartitionerKind::Hash => Box::new(HashPartitioner),
            PartitionerKind::BfsGrow => Box::new(BfsGrowPartitioner),
            PartitionerKind::Multilevel => Box::new(MultilevelKWay {
                seed,
                ..MultilevelKWay::default()
            }),
        }
    }
}

/// How a processor refines its local distance vectors after receiving
/// boundary updates in a recombination step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refinement {
    /// Label-correcting worklist over local edges until the local fixed point
    /// (default). Static convergence is then bounded by the processor count.
    WorklistRelax,
    /// The papers' Floyd–Warshall variant: a single pass pivoting through
    /// local boundary vertices. Cheaper per step, may need more steps; gives
    /// "more up-to-date partial results" between exchanges.
    PivotPass,
}

/// How the Repartition-S strategy recomputes the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepartitionMode {
    /// ParMETIS-style adaptive multilevel repartitioning: coarsen with
    /// label-constrained matching, project the current partition, refine on
    /// the way up (default — the scheme ParMETIS applies when reused for
    /// repartitioning, as the papers do).
    AdaptiveMultilevel,
    /// Full fresh multilevel repartition with part labels greedily remapped
    /// onto the old partition. Maximum cut quality, heavy migration
    /// (ablation).
    FullRemap,
    /// Flat stability-aware refinement from the current assignment;
    /// near-zero migration, weakest cut (ablation).
    Adaptive,
}

/// Lossy-interconnect fault injection (see `aa_runtime::fault`): every
/// recombination transfer is independently dropped with probability
/// `p_drop` and, when delivered, duplicated with probability `p_dup`;
/// receiver inboxes may additionally be reordered. The ack-based send
/// protocol retransmits dropped rows, so the engine still converges to the
/// exact APSP for any `p_drop < 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-transfer drop probability in `[0, 1]`.
    pub p_drop: f64,
    /// Per-delivered-transfer duplication probability in `[0, 1]`.
    pub p_dup: f64,
    /// Whether receiver inboxes are deterministically reordered.
    pub reorder: bool,
    /// Seed of the fault schedule, independent of the engine seed so the
    /// same chaos replays across algorithm configurations.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            p_drop: 0.0,
            p_dup: 0.0,
            reorder: true,
            seed: 0xFA_017,
        }
    }
}

impl FaultConfig {
    /// Builds the runtime fault plan this configuration describes.
    pub fn build_plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed, self.p_drop, self.p_dup).with_reorder(self.reorder)
    }
}

/// Processor-level fault injection: scheduled fail-stop crashes and
/// straggler slowdowns (see `aa_runtime::fault`). Crashes fire
/// automatically at the scheduled recombination step; the supervision layer
/// (see [`SupervisorConfig`]) detects them via heartbeat timeout and
/// recovers the rank without any manual call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcFaultConfig {
    /// `(step, rank)` pairs: `rank` fail-stops at recombination step `step`.
    pub crashes: Vec<(u64, usize)>,
    /// `(rank, scale)` pairs: `rank`'s compute runs `scale`× slower.
    pub stragglers: Vec<(usize, f64)>,
}

impl ProcFaultConfig {
    /// Whether any processor fault is actually configured.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.stragglers.is_empty()
    }
}

/// Self-healing supervision: heartbeat failure detection and
/// checkpoint-assisted recovery (see `crate::supervisor`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Piggyback one-byte heartbeats on every recombination exchange so
    /// silent ranks are detectable even when no rows are flowing. On by
    /// default; turning it off also disables automatic crash detection.
    pub heartbeats: bool,
    /// Recombination steps of silence before a rank is suspected crashed.
    /// With lossy links, a rank is "heard" when any of its messages or acks
    /// survives, so the false-positive rate per step is roughly
    /// `p_drop^(2·(P−1))` — 5 steps is conservative even at `p_drop` 0.5.
    pub detector_timeout: u64,
    /// A rank is flagged straggling when its per-step compute exceeds this
    /// multiple of the live median...
    pub straggler_factor: f64,
    /// ...and an absolute floor (µs, masks measurement noise)...
    pub straggler_floor_us: f64,
    /// ...for this many consecutive steps.
    pub straggler_patience: u32,
    /// Take a per-rank checkpoint every this many recombination steps
    /// (0 disables periodic checkpoints; recovery then always falls back to
    /// the SSSP reseed).
    pub checkpoint_interval: usize,
    /// Recover suspected ranks automatically inside `rc_step`. When off the
    /// engine only reports suspicion via `health_report()`.
    pub auto_recover: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeats: true,
            detector_timeout: 5,
            straggler_factor: 16.0,
            straggler_floor_us: 100.0,
            straggler_patience: 3,
            checkpoint_interval: 0,
            auto_recover: true,
        }
    }
}

/// Configuration of an [`crate::AnytimeEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of virtual processors `P`.
    pub num_procs: usize,
    /// LogP parameters of the simulated interconnect.
    pub logp: LogPParams,
    /// All-to-all schedule (the papers' serialized schedule by default).
    pub exchange: ExchangeMode,
    /// Local refinement strategy inside recombination steps.
    pub refinement: Refinement,
    /// Domain-decomposition partitioner.
    pub partitioner: PartitionerKind,
    /// Repartition-S flavour.
    pub repartition: RepartitionMode,
    /// Compute calibration: measured wall time is multiplied by this before
    /// entering the virtual clocks (≈10 models the papers' 2012-era Xeons on
    /// a modern host). Default 1.0.
    pub compute_scale: f64,
    /// Seed for all randomized components.
    pub seed: u64,
    /// Network fault injection on the recombination data plane
    /// (`None` = perfect network).
    pub fault: Option<FaultConfig>,
    /// Processor fault injection: scheduled crashes and stragglers
    /// (`None` = trustworthy processors).
    pub proc_fault: Option<ProcFaultConfig>,
    /// Failure detection + recovery policy.
    pub supervision: SupervisorConfig,
    /// Execution backend: the deterministic simulator (default, the
    /// correctness oracle) or real OS threads with the same schedule and
    /// accounting (see `aa_runtime::Cluster`).
    pub backend: BackendKind,
    /// Worker-thread cap for the threads backend (`0` = one worker per
    /// rank). Must be 0 or 1 on the sim backend, which is strictly
    /// sequential — requesting more fails loudly at construction.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_procs: 16,
            logp: LogPParams::ethernet_1gbe(),
            exchange: ExchangeMode::Serialized,
            refinement: Refinement::WorklistRelax,
            partitioner: PartitionerKind::Multilevel,
            repartition: RepartitionMode::AdaptiveMultilevel,
            compute_scale: 1.0,
            seed: 0xA17A,
            fault: None,
            proc_fault: None,
            supervision: SupervisorConfig::default(),
            backend: BackendKind::Sim,
            threads: 0,
        }
    }
}

impl EngineConfig {
    /// Builds the combined runtime fault plan (network + processor faults),
    /// or `None` when neither kind is configured.
    pub fn build_fault_plan(&self) -> Option<FaultPlan> {
        let needs_plan =
            self.fault.is_some() || self.proc_fault.as_ref().is_some_and(|pf| !pf.is_empty());
        if !needs_plan {
            return None;
        }
        let mut plan = self
            .fault
            .unwrap_or(FaultConfig {
                p_drop: 0.0,
                p_dup: 0.0,
                reorder: false,
                ..FaultConfig::default()
            })
            .build_plan();
        if let Some(pf) = &self.proc_fault {
            for &(step, rank) in &pf.crashes {
                plan.schedule_crash(step, rank);
            }
            for &(rank, scale) in &pf.stragglers {
                plan.set_straggler(rank, scale);
            }
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_graph::generators;

    #[test]
    fn every_kind_builds_and_partitions() {
        let g = generators::barabasi_albert(80, 2, 1, 1);
        for kind in [
            PartitionerKind::RoundRobin,
            PartitionerKind::Hash,
            PartitionerKind::BfsGrow,
            PartitionerKind::Multilevel,
        ] {
            let p = kind.build(7).partition(&g, 4);
            p.validate(&g).unwrap();
        }
    }

    #[test]
    fn default_config_matches_paper_setup() {
        let c = EngineConfig::default();
        assert_eq!(c.num_procs, 16, "the papers evaluate on 16 processors");
        assert_eq!(c.refinement, Refinement::WorklistRelax);
        assert_eq!(c.exchange, ExchangeMode::Serialized);
    }
}
