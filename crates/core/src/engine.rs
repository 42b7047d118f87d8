//! The [`AnytimeEngine`]: domain decomposition, initial approximation, and
//! the recombination loop, orchestrated over the simulated cluster.

use crate::closeness::Snapshot;
use crate::config::{EngineConfig, FaultConfig};
use crate::obs::EngineObs;
use crate::proc_state::ProcState;
use crate::rc::{self, Exchanged};
use crate::supervisor::Supervision;
use aa_graph::{Graph, VertexId, Weight, INF};
use aa_logp::Phase;
use aa_obs::Stopwatch;
use aa_partition::Partition;
use aa_runtime::{Cluster, TransferOut};
use std::collections::HashSet;

/// The distributed anytime-anywhere closeness-centrality engine.
///
/// Owns the "world" graph (the ground truth the environment mutates), the
/// current partition, one [`ProcState`] per virtual processor, and the
/// simulated cluster that accounts for every byte moved and every microsecond
/// computed. See the crate docs for the three-phase pipeline.
pub struct AnytimeEngine {
    pub(crate) world: Graph,
    pub(crate) partition: Partition,
    pub(crate) procs: Vec<ProcState>,
    pub(crate) cluster: Cluster,
    pub(crate) config: EngineConfig,
    pub(crate) rc_steps_done: usize,
    pub(crate) converged: bool,
    pub(crate) initialized: bool,
    /// Cursor for round-robin processor assignment of new vertices.
    pub(crate) rr_cursor: usize,
    /// Failure detector, per-rank checkpoint store and recovery log.
    pub(crate) supervision: Supervision,
    /// Bumped by every deletion (and weight increase): per-rank checkpoints
    /// from an older epoch may hold underestimates and are unusable.
    pub(crate) invalidation_epoch: u64,
    /// Span log, progress-probe state and protocol counters (see
    /// [`crate::obs`]).
    pub(crate) obs: EngineObs,
}

/// Builds the execution backend an [`EngineConfig`] asks for, with the
/// configured fault plan and compute calibration installed. Shared by
/// [`AnytimeEngine::new`] and the whole-cluster checkpoint restore path.
pub(crate) fn build_cluster(config: &EngineConfig) -> Cluster {
    let mut cluster = Cluster::build(
        config.backend,
        config.num_procs,
        config.logp,
        config.exchange,
        config.threads,
    )
    // aa-lint: allow(AA01, backend availability is probed at CLI/config time via threads_available; failing here is construction-time misconfiguration, same contract as the num_procs assert)
    .unwrap_or_else(|e| panic!("cannot build execution backend: {e}"));
    cluster.set_compute_scale(config.compute_scale);
    cluster.set_fault_plan(config.build_fault_plan());
    cluster
}

impl AnytimeEngine {
    /// Creates an engine over `graph`. Call [`Self::initialize`] before
    /// stepping.
    pub fn new(graph: Graph, config: EngineConfig) -> Self {
        assert!(config.num_procs >= 1, "need at least one processor");
        let p = config.num_procs;
        let cluster = build_cluster(&config);
        let supervision = Supervision::new(p, &config.supervision);
        AnytimeEngine {
            partition: Partition::unassigned(graph.capacity(), p),
            world: graph,
            procs: Vec::new(),
            cluster,
            config,
            rc_steps_done: 0,
            converged: false,
            initialized: false,
            rr_cursor: 0,
            supervision,
            invalidation_epoch: 0,
            obs: EngineObs::default(),
        }
    }

    /// The partition rank owning `v`. Every vertex that reaches a mutation
    /// or recombination path has an assignment: `initialize()` partitions
    /// the whole world, and the vertex-addition strategies assign before
    /// attaching edges. An unassigned vertex here is a partition/world
    /// desync — a bug, not a runtime condition to degrade on.
    // aa-lint: allow(AA07, structural invariant — callers inherit the assignment guarantee rather than re-proving it at every use)
    pub(crate) fn owner_of(&self, v: VertexId) -> usize {
        self.partition
            .part_of(v)
            // aa-lint: allow(AA01, partition assignment is a structural invariant — initialize covers the world and add-vertex strategies assign before wiring edges)
            .expect("vertex assigned at initialize/add-vertex time")
    }

    /// Domain decomposition + initial approximation. Also used by the
    /// baseline-restart strategy to rebuild from scratch (accounting
    /// accumulates across restarts; use [`Cluster::reset_accounting`]
    /// via [`Self::cluster_mut`] to zero it).
    // aa-lint: allow(AA07, outbox is sized to num_procs which is asserted >= 1 at construction)
    pub fn initialize(&mut self) {
        let p = self.config.num_procs;

        // --- Domain decomposition ---------------------------------------
        let dd_span = self.span_open();
        let partitioner = self.config.partitioner.build(self.config.seed);
        let t = Stopwatch::start();
        self.partition = partitioner.partition(&self.world, p);
        let elapsed = t.elapsed();
        // The papers partition in parallel (ParMETIS); approximate by
        // spreading the measured cost evenly and synchronizing.
        for rank in 0..p {
            self.cluster
                // aa-lint: allow(AA05, p is the processor count, far below u32::MAX)
                .compute_measured(rank, Phase::DomainDecomposition, elapsed / p as u32);
        }
        self.cluster.barrier();

        // Distribute sub-graphs: charge each processor's incoming sub-graph
        // bytes (8 bytes per half-edge + 4 per vertex) from rank 0.
        let mut outbox: Vec<Vec<TransferOut<()>>> = (0..p).map(|_| Vec::new()).collect();
        let members = self.partition.members();
        for (rank, verts) in members.iter().enumerate() {
            if rank == 0 {
                continue;
            }
            let bytes: usize = verts.iter().map(|&v| 4 + 8 * self.world.degree(v)).sum();
            outbox[0].push(TransferOut {
                dst: rank,
                bytes,
                payload: (),
            });
        }
        self.cluster.exchange(Phase::DomainDecomposition, outbox);

        // Build processor states.
        self.procs = (0..p)
            .map(|rank| {
                let mut ps = ProcState::new(rank, self.world.capacity());
                ps.rebuild_view(&self.world, &self.partition);
                for &v in &members[rank] {
                    ps.dv.add_row(v);
                }
                ps
            })
            .collect();
        self.span_close(
            dd_span,
            "domain-decomposition",
            format!("{:?} p={p}", self.config.partitioner),
        );

        // --- Initial approximation ---------------------------------------
        // The heavy per-rank SSSP phase: one closure per rank on the
        // execution backend (sequential on the simulator, worker threads on
        // the threads backend).
        let ia_span = self.span_open();
        self.cluster.run_on_ranks(
            Phase::InitialApproximation,
            &mut self.procs,
            vec![(); p],
            &vec![false; p],
            |_, ps, ()| ps.initial_approximation(),
        );
        self.cluster.barrier();
        self.span_close(ia_span, "initial-approximation", format!("p={p}"));

        self.rc_steps_done = 0;
        self.converged = false;
        self.initialized = true;
        // A (re)initialization resets supervision: old checkpoints describe
        // state the rebuild just discarded, and the detector's clocks restart
        // with the step counter.
        self.supervision = Supervision::new(p, &self.config.supervision);
    }

    /// One recombination step: exchange the distance vectors of boundary
    /// vertices updated since the last step, relax, refine, and agree on
    /// termination. Returns `true` when no processor has pending updates
    /// (the solution is the exact APSP of the current graph).
    ///
    /// Sends are ack-based: a destination is marked as holding a row only
    /// when the exchange's delivery receipt confirms it, and dropped sends
    /// are queued for retransmission with capped exponential backoff. A
    /// processor keeps voting "more updates pending" while any of its sends
    /// is unacknowledged, so [`Self::is_converged`] can never report `true`
    /// with data still in flight — this is what makes convergence loss-safe
    /// under the injected network faults (see `FaultConfig`).
    pub fn rc_step(&mut self) -> bool {
        assert!(self.initialized, "call initialize() first");
        let rc_span = self.span_open();
        let p = self.config.num_procs;
        self.rc_steps_done += 1;
        let now = self.rc_steps_done as u64;
        // Heartbeats (and with them automatic crash detection) need peers.
        let supervise = self.config.supervision.heartbeats && p > 1;

        // 0. Scheduled fail-stop crashes fire; then every live rank takes
        // its periodic checkpoint if one is due. A rank that crashes this
        // step keeps only its previous checkpoint — exactly what a real
        // fail-stop leaves behind.
        self.cluster.fire_crashes_due(now);
        self.take_periodic_checkpoints(now);
        // Per-step compute baseline for the straggler detector.
        let compute_before: Vec<f64> = self.cluster.compute_us_by_rank().to_vec();

        // 1. Plan (see `rc`). Down ranks plan nothing: their dirty sets and
        // retransmit queues stay frozen until recovery.
        let down: Vec<bool> = (0..p).map(|r| self.cluster.is_down(r)).collect();
        let mut plans = self.cluster.run_on_ranks(
            Phase::Recombination,
            &mut self.procs,
            vec![(); p],
            &down,
            |_, ps, ()| ps.plan_sends(&self.partition, now, supervise),
        );
        let mut heartbeats = 0u64;
        for send in plans.iter().flat_map(|plan| &plan.sends) {
            match send {
                rc::Send::Row { retry: true, .. } => self.obs.retransmit_sends += 1,
                rc::Send::Heartbeat { .. } => heartbeats += 1,
                rc::Send::Row { .. } => {}
            }
        }

        // 2. Personalized all-to-all exchange, through the (possibly faulty)
        // network, with per-sender delivery receipts. Heartbeats ride the
        // same network as the data: chaos drops them too, which is why
        // suspicion needs `detector_timeout` consecutive silent steps.
        let outbox = plans
            .iter_mut()
            .map(|plan| std::mem::take(&mut plan.outbox))
            .collect();
        let (inbox, receipts) = self
            .cluster
            .exchange_with_receipts(Phase::Recombination, outbox);
        if supervise {
            self.cluster
                .note_heartbeats(Phase::Recombination, heartbeats, heartbeats);
        }

        // 3. Settle + apply on every rank. Contacts and counters come back
        // to the coordinator, which owns the detector and `obs`.
        let exchanged: Vec<Exchanged> = plans
            .into_iter()
            .zip(receipts)
            .zip(inbox)
            .map(|((plan, receipts), inbox)| Exchanged {
                plan,
                receipts,
                inbox,
            })
            .collect();
        let applied = self.cluster.run_on_ranks(
            Phase::Recombination,
            &mut self.procs,
            exchanged,
            &vec![false; p],
            |_, ps, ex| ps.settle_and_apply(ex, now, self.config.refinement),
        );
        for step in applied {
            for rank in step.contacts {
                self.supervision.detector.observe_contact(rank, now);
            }
            self.obs.acked_sends += step.acked_sends;
            self.obs.failed_sends += step.failed_sends;
        }

        // 4. Failure detection. Stragglers: compare this step's per-rank
        // compute deltas against the live median. Crashes: any rank silent
        // for more than the timeout is suspected; the supervisor confirms it
        // down and (policy permitting) runs the recovery ladder — no manual
        // call anywhere.
        let deltas: Vec<f64> = self
            .cluster
            .compute_us_by_rank()
            .iter()
            .zip(&compute_before)
            .map(|(a, b)| a - b)
            .collect();
        self.supervision
            .detector
            .observe_step_compute(&deltas, &down);
        if supervise {
            for rank in self.supervision.detector.suspects(now) {
                self.supervision.detector.mark_down(rank);
                if self.config.supervision.auto_recover {
                    self.recover_rank_ladder(rank, now);
                }
            }
        }

        // 5. Global termination test. Votes are taken *after* recovery so
        // freshly re-dirtied rows count as pending work; a down rank always
        // votes "pending" — its frozen state is not the fixed point.
        let flags: Vec<bool> = (0..p)
            .zip(&self.procs)
            .map(|(rank, ps)| self.cluster.is_down(rank) || ps.has_pending_work())
            .collect();
        let any = self.cluster.all_reduce_or(Phase::Recombination, &flags);
        self.converged = !any;
        self.span_close(rc_span, "recombination", format!("step {now}"));
        self.record_progress_sample();
        self.feed_capture(false);
        self.converged
    }

    /// Runs recombination steps until convergence or `max_steps`. Returns the
    /// number of steps executed.
    pub fn run_to_convergence(&mut self, max_steps: usize) -> usize {
        let mut steps = 0;
        while steps < max_steps {
            steps += 1;
            if self.rc_step() {
                break;
            }
        }
        steps
    }

    /// The current world graph.
    pub fn graph(&self) -> &Graph {
        &self.world
    }

    /// The current partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The execution backend (clocks + ledger, sim or threads).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access (e.g. to reset accounting between experiment
    /// phases).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Virtual cluster time elapsed so far, in microseconds.
    pub fn makespan_us(&self) -> f64 {
        self.cluster.makespan_us()
    }

    /// Recombination steps executed so far (across dynamic updates).
    pub fn rc_steps(&self) -> usize {
        self.rc_steps_done
    }

    /// Whether the last recombination step reported convergence.
    pub fn is_converged(&self) -> bool {
        self.converged
    }

    /// Whether [`AnytimeEngine::initialize`] has run (domain decomposition
    /// and initial approximation are done, `rc_step` is legal).
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Row sends that are currently unacknowledged (dropped by the network
    /// and awaiting retransmission), totalled across processors. While this
    /// is non-zero the convergence test cannot report convergence.
    pub fn outstanding_rows(&self) -> usize {
        self.procs.iter().map(|ps| ps.outstanding.len()).sum()
    }

    /// Enables lossy-link chaos injection on the recombination data plane
    /// (drop rate `p_drop`, duplication rate `p_dup`); both zero disables
    /// it. Reordering and the fault seed keep their configured (or default)
    /// values. Takes effect from the next exchange; outstanding
    /// retransmissions keep running either way.
    pub fn set_chaos(&mut self, p_drop: f64, p_dup: f64) {
        // aa-lint: allow(AA03, exact zero is the user-set "chaos off" sentinel, not a computed estimate)
        if p_drop == 0.0 && p_dup == 0.0 {
            self.config.fault = None;
        } else {
            let fc = FaultConfig {
                p_drop,
                p_dup,
                ..self.config.fault.unwrap_or_default()
            };
            self.config.fault = Some(fc);
        }
        // Rebuild the combined plan so any configured processor faults
        // (crash schedule, stragglers) survive the link-rate change.
        let plan = self.config.build_fault_plan();
        self.cluster.set_fault_plan(plan);
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// An anytime snapshot: closeness estimates from the current (possibly
    /// partial) distance vectors. Charges the small result gather.
    ///
    /// Graceful degradation: while a rank is down, estimates for its
    /// vertices are served from its frozen pre-crash state and flagged
    /// [`Snapshot::stale`] — still valid anytime upper-bound-derived
    /// estimates, just not improving until recovery.
    // aa-lint: allow(AA07, processor ranks come from owner_of or down_ranks and procs has one entry per rank from initialize; vertex ids are below world capacity)
    pub fn snapshot(&mut self) -> Snapshot {
        let snap_span = self.span_open();
        let cap = self.world.capacity();
        let mut closeness = vec![0.0f64; cap];
        let mut harmonic = vec![0.0f64; cap];
        let mut stale = vec![false; cap];
        let mut dist_sum = vec![0u64; cap];
        let mut finite_targets = vec![0u32; cap];
        // A slot is quiescent when its owning row has no scheduled or
        // in-flight refinement work and its rank is up; dead/unowned slots
        // stay non-quiescent so consumers never treat them as settled.
        let mut row_quiescent = vec![false; cap];
        for rank in self.cluster.down_ranks() {
            for &v in self.procs[rank].dv.vertices() {
                stale[v as usize] = true;
            }
        }
        let p = self.config.num_procs;
        let mut outbox: Vec<Vec<TransferOut<()>>> = (0..p).map(|_| Vec::new()).collect();
        for (rank, ps) in self.procs.iter().enumerate() {
            let t = Stopwatch::start();
            let rank_down = self.cluster.is_down(rank);
            let in_flight: HashSet<VertexId> = ps.outstanding.keys().map(|&(v, _)| v).collect();
            for &v in ps.dv.vertices() {
                let row = ps.dv.row(v);
                let mut sum = 0u64;
                let mut h = 0.0f64;
                let mut finite = 0u32;
                for (t_idx, &d) in row.iter().enumerate() {
                    if t_idx != v as usize && d != INF && d > 0 {
                        sum += d as u64;
                        h += 1.0 / d as f64;
                        finite += 1;
                    }
                }
                closeness[v as usize] = if sum == 0 { 0.0 } else { 1.0 / sum as f64 };
                harmonic[v as usize] = h;
                dist_sum[v as usize] = sum;
                finite_targets[v as usize] = finite;
                row_quiescent[v as usize] =
                    !rank_down && !ps.dirty.contains(&v) && !in_flight.contains(&v);
            }
            self.cluster
                .compute_measured(rank, Phase::Recombination, t.elapsed());
            if rank != 0 {
                // 16 bytes (two f64) per owned vertex to the master.
                outbox[rank].push(TransferOut {
                    dst: 0,
                    bytes: 16 * ps.dv.row_count(),
                    payload: (),
                });
            }
        }
        self.cluster.exchange(Phase::Recombination, outbox);
        let down_ranks = self.cluster.down_ranks().len();
        let snap = Snapshot {
            rc_step: self.rc_steps_done,
            makespan_us: self.cluster.makespan_us(),
            closeness,
            harmonic,
            dist_sum,
            finite_targets,
            row_quiescent,
            stale,
            outstanding_rows: self.outstanding_rows(),
            live_ranks: self.cluster.live_count(),
            down_ranks,
        };
        self.span_close(
            snap_span,
            "snapshot",
            format!("step {}", self.rc_steps_done),
        );
        snap
    }

    /// Gathers the full distance matrix by source vertex id (test/debug
    /// helper; free of cluster charges). Unowned/dead slots yield `INF` rows.
    // aa-lint: allow(AA07, the dense output is sized to world capacity and row vertex ids are below it)
    pub fn distances_dense(&self) -> Vec<Vec<Weight>> {
        let cap = self.world.capacity();
        let mut out = vec![vec![INF; cap]; cap];
        for ps in &self.procs {
            for &v in ps.dv.vertices() {
                let row = ps.dv.row(v);
                out[v as usize][..row.len()].copy_from_slice(row);
            }
        }
        out
    }

    /// Internal consistency checks (tests): every live vertex has exactly one
    /// owning row; views agree with the partition.
    // aa-lint: allow(AA07, the diagnostic tables are sized to world capacity and row vertex ids are below it)
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut owned = vec![0usize; self.world.capacity()];
        for ps in &self.procs {
            for &v in ps.dv.vertices() {
                owned[v as usize] += 1;
                if !ps.is_local[v as usize] {
                    return Err(format!("proc {} owns row {v} but not locality", ps.rank));
                }
                if self.partition.part_of(v) != Some(ps.rank) {
                    return Err(format!("proc {} owns {v} against the partition", ps.rank));
                }
            }
        }
        for v in 0..self.world.capacity() as VertexId {
            let expect = usize::from(self.world.is_alive(v));
            if owned[v as usize] != expect {
                return Err(format!(
                    "vertex {v}: {} owners, expected {expect}",
                    owned[v as usize]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PartitionerKind, Refinement};
    use aa_graph::{algo, generators};

    fn config(p: usize) -> EngineConfig {
        EngineConfig {
            num_procs: p,
            ..Default::default()
        }
    }

    fn assert_matches_oracle(engine: &AnytimeEngine) {
        let dense = engine.distances_dense();
        let oracle = algo::apsp_dijkstra(engine.graph());
        for v in 0..engine.graph().capacity() {
            if engine.graph().is_alive(v as VertexId) {
                assert_eq!(dense[v], oracle[v], "row {v} differs from oracle");
            }
        }
    }

    #[test]
    fn static_pipeline_matches_oracle_scale_free() {
        let g = generators::barabasi_albert(150, 2, 3, 11);
        let mut e = AnytimeEngine::new(g, config(4));
        e.initialize();
        e.check_invariants().unwrap();
        let steps = e.run_to_convergence(32);
        assert!(e.is_converged(), "did not converge in 32 steps");
        // Steps are bounded by the maximum number of cut-edge crossings on
        // any shortest path (the papers bound this by P−1 for processor
        // chains); small-world graphs stay in the single digits.
        assert!(
            steps <= 10,
            "static convergence took too long: {steps} steps"
        );
        assert_matches_oracle(&e);
    }

    #[test]
    fn static_pipeline_matches_oracle_many_procs() {
        let g = generators::erdos_renyi_gnm(120, 360, 4, 5);
        let mut e = AnytimeEngine::new(g, config(8));
        e.initialize();
        e.run_to_convergence(64);
        assert!(e.is_converged());
        assert_matches_oracle(&e);
    }

    #[test]
    fn single_processor_degenerates_to_local_apsp() {
        let g = generators::barabasi_albert(60, 2, 1, 3);
        let mut e = AnytimeEngine::new(g, config(1));
        e.initialize();
        let steps = e.run_to_convergence(8);
        assert!(e.is_converged());
        assert_eq!(steps, 1, "one processor converges in a single step");
        assert_matches_oracle(&e);
    }

    #[test]
    fn disconnected_graph_converges_with_inf_across_components() {
        let mut g = generators::path(20);
        g.remove_edge(9, 10);
        let mut e = AnytimeEngine::new(g, config(4));
        e.initialize();
        e.run_to_convergence(32);
        assert!(e.is_converged());
        assert_matches_oracle(&e);
        let d = e.distances_dense();
        assert_eq!(d[0][19], INF);
    }

    #[test]
    fn pivot_pass_refinement_also_converges_to_oracle() {
        let g = generators::barabasi_albert(120, 2, 2, 9);
        let mut e = AnytimeEngine::new(
            g,
            EngineConfig {
                num_procs: 4,
                refinement: Refinement::PivotPass,
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(200);
        assert!(e.is_converged(), "pivot-pass refinement failed to converge");
        assert_matches_oracle(&e);
    }

    #[test]
    fn all_partitioners_converge_to_oracle() {
        for kind in [
            PartitionerKind::RoundRobin,
            PartitionerKind::Hash,
            PartitionerKind::BfsGrow,
            PartitionerKind::Multilevel,
        ] {
            let g = generators::watts_strogatz(80, 3, 0.2, 2, 6);
            let mut e = AnytimeEngine::new(
                g,
                EngineConfig {
                    num_procs: 5,
                    partitioner: kind,
                    ..Default::default()
                },
            );
            e.initialize();
            e.run_to_convergence(64);
            assert!(e.is_converged(), "{kind:?} did not converge");
            assert_matches_oracle(&e);
        }
    }

    #[test]
    fn anytime_estimates_are_monotone_nonincreasing() {
        let g = generators::barabasi_albert(150, 2, 1, 21);
        let mut e = AnytimeEngine::new(g, config(6));
        e.initialize();
        let mut prev = e.distances_dense();
        for _ in 0..40 {
            let done = e.rc_step();
            let cur = e.distances_dense();
            for (pr, cr) in prev.iter().zip(&cur) {
                for (&a, &b) in pr.iter().zip(cr) {
                    assert!(b <= a, "distance estimate increased: {a} -> {b}");
                }
            }
            prev = cur;
            if done {
                break;
            }
        }
        assert!(e.is_converged());
    }

    #[test]
    fn snapshot_closeness_matches_exact_at_convergence() {
        let g = generators::barabasi_albert(100, 2, 1, 8);
        let exact = algo::exact_closeness(&g);
        let mut e = AnytimeEngine::new(g, config(4));
        e.initialize();
        e.run_to_convergence(32);
        let snap = e.snapshot();
        for (v, (&got, &want)) in snap.closeness.iter().zip(&exact).enumerate() {
            assert!(
                (got - want).abs() < 1e-12,
                "closeness of {v}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn makespan_and_ledger_accumulate() {
        let g = generators::barabasi_albert(80, 2, 1, 4);
        let mut e = AnytimeEngine::new(g, config(4));
        e.initialize();
        let after_init = e.makespan_us();
        assert!(after_init > 0.0);
        e.run_to_convergence(32);
        assert!(e.makespan_us() > after_init);
        let ledger = e.cluster().ledger();
        assert!(ledger.phase(Phase::InitialApproximation).compute_us > 0.0);
        assert!(ledger.phase(Phase::Recombination).bytes > 0);
    }

    #[test]
    #[should_panic(expected = "call initialize")]
    fn stepping_before_initialize_panics() {
        let g = generators::path(4);
        let mut e = AnytimeEngine::new(g, config(2));
        e.rc_step();
    }
}
