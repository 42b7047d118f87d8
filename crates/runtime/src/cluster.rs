//! The [`Cluster`]: byte-accounted collectives over LogP virtual clocks,
//! plus the one parallel stage, [`Cluster::run_on_ranks`].
//!
//! Both execution backends are this one type. The simulator is a cluster
//! with one worker: every per-rank closure runs inline on the caller's
//! thread. The threads backend is the same cluster with more workers: the
//! per-rank closures of [`Cluster::run_on_ranks`] run on scoped OS threads.
//! Everything with global effects — virtual clocks, the cost ledger, fault
//! judging, inbox assembly, trace, reshuffle — runs on the caller's thread
//! through the same code either way, so a run is bit-identical across
//! backends given the same seed (DESIGN.md §16).

use crate::fault::{Delivery, FaultPlan};
use aa_logp::{schedule, CostLedger, LogPParams, Phase, VirtualClocks};
use aa_obs::Stopwatch;
use std::time::Duration;

/// Which execution backend runs the per-rank work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Deterministic superstep simulator: one worker (the correctness
    /// oracle; default).
    Sim,
    /// Per-rank work on real OS threads over the same accounting.
    Threads,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "sim",
            BackendKind::Threads => "threads",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "threads" => Ok(BackendKind::Threads),
            other => Err(format!("unknown backend '{other}' (expected sim|threads)")),
        }
    }
}

/// Whether this host can actually spawn OS threads. Backend selection
/// probes the real `std::thread` machinery so that a threads run fails
/// loudly on a threadless host instead of quietly running sequentially.
pub fn threads_available() -> bool {
    std::thread::Builder::new()
        .name("aa-thread-probe".into())
        .spawn(|| {})
        .map(|handle| handle.join().is_ok())
        .unwrap_or(false)
}

/// How personalized all-to-all exchanges are scheduled and charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// The papers' schedule: one message on the network at a time
    /// (Θ(P²) sequential transfers, flood-free).
    Serialized,
    /// Round-based pairwise exchange (P−1 rounds, links independent).
    /// Used by ablations.
    RoundBased,
}

/// One outgoing transfer: destination processor, payload, and its size in
/// bytes (the algorithm layer knows its own serialization; the cluster only
/// needs the byte count for charging).
#[derive(Debug, Clone)]
pub struct TransferOut<T> {
    pub dst: usize,
    pub bytes: usize,
    pub payload: T,
}

/// Result of [`Cluster::exchange_with_receipts`]: per-receiver inboxes of
/// `(src, payload)`, plus per-*sender* delivery receipts in the order that
/// sender's outbox listed its transfers (`true` = delivered at least once).
pub type ExchangeReceipts<T> = (Vec<Vec<(usize, T)>>, Vec<Vec<bool>>);

/// What the network did with a traced transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// Delivered intact (the only kind on a fault-free cluster).
    Delivered,
    /// Lost by the injected fault plan; the bytes were still charged.
    Dropped,
    /// An injected second copy of a delivered transfer.
    Duplicate,
    /// Sent to (or from) a crashed rank: the transfer rode the network but
    /// nobody was home to receive or ack it. The bytes were still charged.
    LostDown,
}

impl std::fmt::Display for DeliveryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeliveryKind::Delivered => "delivered",
            DeliveryKind::Dropped => "dropped",
            DeliveryKind::Duplicate => "duplicate",
            DeliveryKind::LostDown => "lost-down",
        })
    }
}

/// One recorded communication event (tracing enabled via
/// [`Cluster::enable_trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: usize,
    /// Phase the transfer was charged to.
    pub phase: Phase,
    /// Cluster makespan (µs) right after the transfer was charged.
    pub makespan_us: f64,
    /// Delivery outcome under the active fault plan.
    pub kind: DeliveryKind,
}

/// A cluster of `P` virtual processors.
///
/// All methods are collectives or per-processor charges; the algorithm layer
/// owns the per-processor state and calls these to move data/time.
///
/// ```
/// use aa_runtime::{Cluster, ExchangeMode, TransferOut};
/// use aa_logp::{LogPParams, Phase};
///
/// let mut cluster = Cluster::new(2, LogPParams::ethernet_1gbe(), ExchangeMode::Serialized);
/// let inbox = cluster.exchange(
///     Phase::Recombination,
///     vec![vec![TransferOut { dst: 1, bytes: 64, payload: "hello" }], vec![]],
/// );
/// assert_eq!(inbox[1], vec![(0, "hello")]);
/// assert!(cluster.makespan_us() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    params: LogPParams,
    clocks: VirtualClocks,
    ledger: CostLedger,
    mode: ExchangeMode,
    /// Threads [`Cluster::run_on_ranks`] fans out to; 1 runs every rank
    /// inline on the caller's thread (the simulator).
    workers: usize,
    trace: Option<Vec<TraceEvent>>,
    compute_scale: f64,
    fault: Option<FaultPlan>,
    /// Fail-stop state per rank: a down rank neither receives nor acks.
    down: Vec<bool>,
    /// Per-rank compute slowdown (straggler faults); 1.0 = nominal.
    rank_scale: Vec<f64>,
    /// Compute microseconds charged per rank (after all scaling), the
    /// signal the straggler detector compares across ranks.
    rank_compute_us: Vec<f64>,
    /// Scheduled crashes that already fired, keyed by `(step, rank)` so the
    /// schedule can be extended mid-run without re-firing old entries.
    crashes_fired: std::collections::HashSet<(u64, usize)>,
}

impl Cluster {
    /// Creates a simulator cluster (one worker) of `p` processors with the
    /// given LogP parameters.
    pub fn new(p: usize, params: LogPParams, mode: ExchangeMode) -> Self {
        assert!(p >= 1, "cluster needs at least one processor");
        Cluster {
            params,
            clocks: VirtualClocks::new(p),
            ledger: CostLedger::new(),
            mode,
            workers: 1,
            trace: None,
            compute_scale: 1.0,
            fault: None,
            down: vec![false; p],
            rank_scale: vec![1.0; p],
            rank_compute_us: vec![0.0; p],
            crashes_fired: std::collections::HashSet::new(),
        }
    }

    /// Builds a cluster for the given backend. `threads` is the worker cap
    /// for the threads backend (`0` = one worker per rank) and must be 0 or
    /// 1 for the simulator, which executes strictly sequentially — asking
    /// the sim for parallelism is a configuration error that must fail
    /// loudly, not silently run on one core. The threads backend fails when
    /// the host cannot spawn OS threads.
    pub fn build(
        kind: BackendKind,
        p: usize,
        params: LogPParams,
        mode: ExchangeMode,
        threads: usize,
    ) -> Result<Self, String> {
        let mut cluster = Cluster::new(p, params, mode);
        match kind {
            BackendKind::Sim if threads > 1 => Err(format!(
                "backend 'sim' is single-threaded: --threads {threads} would silently \
                 run sequentially; use --backend threads for real parallelism"
            )),
            BackendKind::Sim => Ok(cluster),
            BackendKind::Threads if !threads_available() => Err(
                "threads backend unavailable: this host cannot spawn OS threads \
                 (std::thread probe failed); use the sim backend instead"
                    .to_string(),
            ),
            BackendKind::Threads => {
                cluster.workers = if threads == 0 { p } else { threads };
                Ok(cluster)
            }
        }
    }

    /// Installs (or with `None`, removes) a network fault plan. Faults apply
    /// only to [`Cluster::exchange_with_receipts`]; the plain collectives
    /// model reliable transport. Straggler faults in the plan take effect
    /// immediately; scheduled crashes fire via
    /// [`Cluster::fire_crashes_due`].
    // aa-lint: allow(AA07, rank-indexed tables are sized to proc_count at construction and the rank is range-guarded or asserted before the access)
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.rank_scale = vec![1.0; self.proc_count()];
        if let Some(plan) = &plan {
            for s in plan.stragglers() {
                if s.rank < self.rank_scale.len() {
                    self.rank_scale[s.rank] = s.scale;
                }
            }
        }
        self.crashes_fired.clear();
        self.fault = plan;
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Mutable access to the active fault plan (e.g. to extend the crash
    /// schedule mid-run). Straggler edits made this way take effect on the
    /// next [`Cluster::refresh_stragglers`] call.
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.fault.as_mut()
    }

    /// Re-reads straggler scales from the installed plan (after mutating it
    /// via [`Cluster::fault_plan_mut`]).
    // aa-lint: allow(AA07, rank-indexed tables are sized to proc_count at construction and the rank is range-guarded or asserted before the access)
    pub fn refresh_stragglers(&mut self) {
        self.rank_scale = vec![1.0; self.proc_count()];
        if let Some(plan) = &self.fault {
            for s in plan.stragglers() {
                if s.rank < self.rank_scale.len() {
                    self.rank_scale[s.rank] = s.scale;
                }
            }
        }
    }

    /// Fires every scheduled crash whose step is due (`c.step <= step`) and
    /// has not fired yet, marking those ranks down. Returns the newly downed
    /// ranks. A crash that would take down the last live rank is skipped
    /// (the simulation keeps at least one survivor to run recovery).
    // aa-lint: allow(AA07, rank-indexed tables are sized to proc_count at construction and the rank is range-guarded or asserted before the access)
    pub fn fire_crashes_due(&mut self, step: u64) -> Vec<usize> {
        let due: Vec<(u64, usize)> = match &self.fault {
            Some(plan) => plan
                .crashes()
                .iter()
                .filter(|c| c.step <= step && !self.crashes_fired.contains(&(c.step, c.rank)))
                .map(|c| (c.step, c.rank))
                .collect(),
            None => return Vec::new(),
        };
        let mut newly_down = Vec::new();
        for (step, rank) in due {
            self.crashes_fired.insert((step, rank));
            if rank >= self.proc_count() || self.down[rank] {
                continue;
            }
            if self.live_count() <= 1 {
                continue; // never kill the last survivor
            }
            self.down[rank] = true;
            newly_down.push(rank);
        }
        newly_down
    }

    /// Whether `rank` is currently down (fail-stopped).
    // aa-lint: allow(AA07, rank-indexed tables are sized to proc_count at construction and the rank is range-guarded or asserted before the access)
    pub fn is_down(&self, rank: usize) -> bool {
        self.down[rank]
    }

    /// The currently down ranks, ascending.
    // aa-lint: allow(AA07, rank-indexed tables are sized to proc_count at construction and the rank is range-guarded or asserted before the access)
    pub fn down_ranks(&self) -> Vec<usize> {
        (0..self.proc_count()).filter(|&r| self.down[r]).collect()
    }

    /// Number of live (not down) ranks.
    pub fn live_count(&self) -> usize {
        self.down.iter().filter(|&&d| !d).count()
    }

    /// Marks `rank` down (fail-stop). Used by manual fault injection; the
    /// scheduled path goes through [`Cluster::fire_crashes_due`].
    // aa-lint: allow(AA07, rank-indexed tables are sized to proc_count at construction and the rank is range-guarded or asserted before the access)
    pub fn mark_down(&mut self, rank: usize) {
        assert!(rank < self.proc_count());
        self.down[rank] = true;
    }

    /// Brings `rank` back up (a replacement processor takes over the rank).
    // aa-lint: allow(AA07, rank-indexed tables are sized to proc_count at construction and the rank is range-guarded or asserted before the access)
    pub fn mark_up(&mut self, rank: usize) {
        assert!(rank < self.proc_count());
        self.down[rank] = false;
    }

    /// Compute microseconds charged so far per rank (after compute-scale and
    /// straggler scaling) — the straggler detector's input signal.
    pub fn compute_us_by_rank(&self) -> &[f64] {
        &self.rank_compute_us
    }

    /// Virtual clock of processor `p` (µs).
    pub fn proc_time_us(&self, p: usize) -> f64 {
        self.clocks.proc_time_us(p)
    }

    /// Sets the compute calibration factor: measured wall microseconds are
    /// multiplied by this before being charged to the virtual clocks. Use it
    /// to model slower (era-appropriate) processors than the host — e.g. ~10
    /// for a 2012 cluster node vs a modern laptop core. Default 1.0.
    pub fn set_compute_scale(&mut self, scale: f64) {
        assert!(scale > 0.0, "compute scale must be positive");
        self.compute_scale = scale;
    }

    /// Starts recording every transfer into an event trace (clears any
    /// previous trace). Intended for debugging and timeline visualization.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops tracing and returns the recorded events (empty if tracing was
    /// never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// Number of virtual processors.
    pub fn proc_count(&self) -> usize {
        self.clocks.proc_count()
    }

    /// LogP parameters in force.
    pub fn params(&self) -> &LogPParams {
        &self.params
    }

    /// Charges `elapsed` of measured local computation on processor `p`
    /// (wall microseconds × the compute-scale calibration factor × the
    /// rank's straggler scale, if any).
    // aa-lint: allow(AA07, rank-indexed tables are sized to proc_count at construction and the rank is range-guarded or asserted before the access)
    pub fn compute_measured(&mut self, p: usize, phase: Phase, elapsed: Duration) {
        let us = elapsed.as_secs_f64() * 1e6 * self.compute_scale * self.rank_scale[p];
        self.clocks.compute(p, us);
        self.rank_compute_us[p] += us;
        self.ledger.record_compute(phase, us);
    }

    /// Charges `us` microseconds of modeled computation on processor `p`
    /// (× the rank's straggler scale, if any).
    // aa-lint: allow(AA07, rank-indexed tables are sized to proc_count at construction and the rank is range-guarded or asserted before the access)
    pub fn compute_modeled(&mut self, p: usize, phase: Phase, us: f64) {
        let us = us * self.rank_scale[p];
        self.clocks.compute(p, us);
        self.rank_compute_us[p] += us;
        self.ledger.record_compute(phase, us);
    }

    /// Personalized all-to-all: every processor sends zero or more transfers;
    /// returns each processor's inbox as `(src, payload)` pairs, in a
    /// deterministic order. Transfers are charged per the configured
    /// [`ExchangeMode`]. `outbox.len()` must equal the processor count, and
    /// self-sends are forbidden (local data never touches the network).
    // aa-lint: allow(AA07, every dst is asserted below proc_count before the p*p pair table sized from proc_count is touched)
    pub fn exchange<T>(
        &mut self,
        phase: Phase,
        outbox: Vec<Vec<TransferOut<T>>>,
    ) -> Vec<Vec<(usize, T)>> {
        let p = self.proc_count();
        assert_eq!(outbox.len(), p, "outbox must have one slot per processor");
        // Group payloads per ordered (src, dst) pair; one aggregated model
        // transfer per pair (the papers batch all boundary DVs for a
        // neighbour into size-M messages).
        let mut per_pair_bytes = vec![0usize; p * p];
        let mut inbox: Vec<Vec<(usize, T)>> = (0..p).map(|_| Vec::new()).collect();
        for (src, transfers) in outbox.into_iter().enumerate() {
            for t in transfers {
                assert!(t.dst < p, "destination {} out of range", t.dst);
                assert_ne!(t.dst, src, "self-send from processor {src}");
                per_pair_bytes[src * p + t.dst] += t.bytes;
                inbox[t.dst].push((src, t.payload));
            }
        }
        self.charge_pairs(phase, &per_pair_bytes);
        inbox
    }

    /// Like [`Cluster::exchange`], but subject to the installed
    /// [`FaultPlan`] and returning per-sender delivery receipts: for each
    /// processor, one `bool` per submitted transfer *in submission order*
    /// (`true` = delivered at least once, `false` = dropped). Dropped
    /// transfers still occupy the network — their bytes are charged to the
    /// clocks and the ledger exactly as if delivered — and are additionally
    /// counted in the ledger's drop counters and the event trace. Duplicated
    /// transfers arrive twice (and are charged twice); their receipt is
    /// `true`. With reordering enabled, each receiver's inbox is
    /// deterministically shuffled. Without a fault plan this is byte- and
    /// clock-identical to [`Cluster::exchange`], with all receipts `true`.
    ///
    /// Transfers are judged in sender order, each sender's in submission
    /// order. The down-rank check comes first and does *not* advance the
    /// link's decision stream (a dead link draws no randomness), so fault
    /// schedules replay identically across crash/recovery timings.
    // aa-lint: allow(AA07, every dst is asserted below proc_count before the down table and the p*p pair table, both sized from proc_count, are touched)
    pub fn exchange_with_receipts<T: Clone>(
        &mut self,
        phase: Phase,
        outbox: Vec<Vec<TransferOut<T>>>,
    ) -> ExchangeReceipts<T> {
        let p = self.proc_count();
        assert_eq!(outbox.len(), p, "outbox must have one slot per processor");
        let mut per_pair_bytes = vec![0usize; p * p];
        let mut inbox: Vec<Vec<(usize, T)>> = (0..p).map(|_| Vec::new()).collect();
        let mut receipts: Vec<Vec<bool>> = (0..p).map(|_| Vec::new()).collect();
        // Faulted transfers are traced after the charge loop (at the final
        // makespan), keeping the trace ordered by time.
        let mut faulted: Vec<(usize, usize, usize, DeliveryKind)> = Vec::new();
        for (src, transfers) in outbox.into_iter().enumerate() {
            for t in transfers {
                assert!(t.dst < p, "destination {} out of range", t.dst);
                assert_ne!(t.dst, src, "self-send from processor {src}");
                per_pair_bytes[src * p + t.dst] += t.bytes;
                let fate = if self.down[src] || self.down[t.dst] {
                    // Nobody home at one end: the transfer rides the network
                    // (its bytes are charged) but is never received or
                    // acked, so the sender sees a nack and will retransmit
                    // until the rank is recovered.
                    Err(DeliveryKind::LostDown)
                } else {
                    match self.fault.as_mut().map(|plan| plan.decide(src, t.dst)) {
                        Some(Delivery::Dropped) => Err(DeliveryKind::Dropped),
                        Some(Delivery::Delivered { duplicated }) => Ok(duplicated),
                        None => Ok(false),
                    }
                };
                let msgs = self.params.message_count(t.bytes) as u64;
                match fate {
                    Err(kind) => {
                        receipts[src].push(false);
                        self.ledger.record_drop(phase, msgs, t.bytes as u64);
                        faulted.push((src, t.dst, t.bytes, kind));
                    }
                    Ok(duplicated) => {
                        receipts[src].push(true);
                        if duplicated {
                            // The second copy also rides the network.
                            per_pair_bytes[src * p + t.dst] += t.bytes;
                            self.ledger.record_duplicate(phase, msgs, t.bytes as u64);
                            faulted.push((src, t.dst, t.bytes, DeliveryKind::Duplicate));
                            inbox[t.dst].push((src, t.payload.clone()));
                        }
                        inbox[t.dst].push((src, t.payload));
                    }
                }
            }
        }
        self.charge_pairs(phase, &per_pair_bytes);
        for (src, dst, bytes, kind) in faulted {
            self.trace_event(src, dst, bytes, phase, kind);
        }
        if let Some(plan) = &mut self.fault {
            if plan.reorder() {
                for (dst, ib) in inbox.iter_mut().enumerate() {
                    plan.shuffle_inbox(dst, ib);
                }
            }
        }
        (inbox, receipts)
    }

    /// Runs `f` once per rank with exclusive access to that rank's state
    /// slot, charging each rank's measured wall time to its virtual clock.
    /// Ranks with `skip[rank]` set contribute `R::default()` and no charge.
    ///
    /// With one worker every rank runs inline on the caller's thread, in
    /// rank order. With more, rank `r` runs on scoped worker `r % workers`.
    /// Either way results come back, and compute is charged, in rank order,
    /// so clock and ledger accumulation never observe completion order;
    /// measured time feeds only the clocks, never control flow or data.
    // aa-lint: allow(AA07, skip and slots are sized to states.len() and every rank comes from enumerate over states)
    pub fn run_on_ranks<S, I, R, F>(
        &mut self,
        phase: Phase,
        states: &mut [S],
        inputs: Vec<I>,
        skip: &[bool],
        f: F,
    ) -> Vec<R>
    where
        S: Send,
        I: Send,
        R: Default + Send,
        F: Fn(usize, &mut S, I) -> R + Sync,
    {
        let p = states.len();
        assert_eq!(inputs.len(), p, "one input per rank");
        assert_eq!(skip.len(), p, "one skip flag per rank");
        let run_rank = |rank: usize, state: &mut S, input: I| -> (R, Option<Duration>) {
            if skip[rank] {
                return (R::default(), None);
            }
            let t = Stopwatch::start();
            let r = f(rank, state, input);
            (r, Some(t.elapsed()))
        };
        let workers = self.workers.clamp(1, p.max(1));
        let ranks = states.iter_mut().zip(inputs).enumerate();
        let results: Vec<(R, Option<Duration>)> = if workers == 1 {
            ranks
                .map(|(rank, (state, input))| run_rank(rank, state, input))
                .collect()
        } else {
            let mut lanes: Vec<Vec<(usize, &mut S, I)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (rank, (state, input)) in ranks {
                lanes[rank % workers].push((rank, state, input));
            }
            let mut slots: Vec<Option<(R, Option<Duration>)>> = (0..p).map(|_| None).collect();
            let run_rank = &run_rank;
            std::thread::scope(|scope| {
                let handles: Vec<_> = lanes
                    .into_iter()
                    .map(|lane| {
                        scope.spawn(move || {
                            lane.into_iter()
                                .map(|(rank, state, input)| (rank, run_rank(rank, state, input)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for handle in handles {
                    // A worker panic is the per-rank closure's own panic:
                    // re-raise it on the caller with its original payload.
                    let lane = handle
                        .join()
                        .unwrap_or_else(|e| std::panic::resume_unwind(e));
                    for (rank, out) in lane {
                        slots[rank] = Some(out);
                    }
                }
            });
            slots
                .into_iter()
                // aa-lint: allow(AA01, every rank 0..p was assigned to exactly one lane above, so every slot is filled once the scope joins)
                .map(|slot| slot.expect("every rank ran exactly once"))
                .collect()
        };
        results
            .into_iter()
            .enumerate()
            .map(|(rank, (r, elapsed))| {
                if let Some(elapsed) = elapsed {
                    self.compute_measured(rank, phase, elapsed);
                }
                r
            })
            .collect()
    }

    /// Charges aggregated per-(src, dst) byte counts to the clocks and
    /// ledger along the configured schedule, tracing each model transfer.
    // aa-lint: allow(AA07, the schedule enumerates src and dst below p and per_pair_bytes is p*p by construction at both call sites)
    fn charge_pairs(&mut self, phase: Phase, per_pair_bytes: &[usize]) {
        let p = self.proc_count();
        match self.mode {
            ExchangeMode::Serialized => {
                for (src, dst) in schedule::serialized_all_to_all(p) {
                    let bytes = per_pair_bytes[src * p + dst];
                    if bytes > 0 {
                        self.clocks
                            .transfer_serialized(src, dst, bytes, &self.params);
                        self.record(phase, bytes);
                        self.trace_transfer(src, dst, bytes, phase);
                    }
                }
            }
            ExchangeMode::RoundBased => {
                for round in schedule::one_factorization(p) {
                    for (a, b) in round {
                        for (src, dst) in [(a, b), (b, a)] {
                            let bytes = per_pair_bytes[src * p + dst];
                            if bytes > 0 {
                                self.clocks
                                    .transfer_concurrent(src, dst, bytes, &self.params);
                                self.record(phase, bytes);
                                self.trace_transfer(src, dst, bytes, phase);
                            }
                        }
                    }
                    self.clocks.barrier();
                }
            }
        }
    }

    /// Binomial-tree broadcast of a `bytes`-byte payload from `root`.
    /// Only the *cost* is simulated; the caller clones the payload itself.
    /// Transfers respect the configured network discipline: under the
    /// papers' serialized schedule every tree edge contends for the single
    /// shared network.
    pub fn broadcast_cost(&mut self, phase: Phase, root: usize, bytes: usize) {
        let p = self.proc_count();
        assert!(root < p);
        for round in schedule::tree_broadcast(p, root) {
            for (src, dst) in round {
                match self.mode {
                    ExchangeMode::Serialized => {
                        self.clocks
                            .transfer_serialized(src, dst, bytes, &self.params);
                    }
                    ExchangeMode::RoundBased => {
                        self.clocks
                            .transfer_concurrent(src, dst, bytes, &self.params);
                    }
                }
                self.record(phase, bytes);
                self.trace_transfer(src, dst, bytes, phase);
            }
        }
    }

    /// Charges one point-to-point transfer of `bytes` from `src` to `dst`
    /// (cost only; the caller moves the payload). Used for out-of-band
    /// control traffic such as shipping a checkpoint to a replacement rank.
    pub fn point_to_point_cost(&mut self, phase: Phase, src: usize, dst: usize, bytes: usize) {
        let p = self.proc_count();
        assert!(src < p && dst < p && src != dst);
        match self.mode {
            ExchangeMode::Serialized => {
                self.clocks
                    .transfer_serialized(src, dst, bytes, &self.params);
            }
            ExchangeMode::RoundBased => {
                self.clocks
                    .transfer_concurrent(src, dst, bytes, &self.params);
            }
        }
        self.record(phase, bytes);
        self.trace_transfer(src, dst, bytes, phase);
    }

    /// Books already-charged transfers as failure-detector heartbeats in the
    /// ledger's heartbeat counters (the transfers themselves go through the
    /// normal exchange path and are charged there).
    pub fn note_heartbeats(&mut self, phase: Phase, messages: u64, bytes: u64) {
        self.ledger.record_heartbeat(phase, messages, bytes);
    }

    /// Barrier: synchronizes all virtual clocks (cost only).
    pub fn barrier(&mut self) {
        self.clocks.barrier();
    }

    /// Logical-or all-reduce of per-processor flags (the papers' "no more
    /// updates in any processor" termination test). Charges a tree gather +
    /// broadcast of one-byte flags and synchronizes clocks.
    pub fn all_reduce_or(&mut self, phase: Phase, flags: &[bool]) -> bool {
        assert_eq!(flags.len(), self.proc_count());
        // Gather up the tree then broadcast down: 2·(P−1) one-byte messages.
        for round in schedule::tree_broadcast(self.proc_count(), 0) {
            for (src, dst) in round {
                self.clocks.transfer_concurrent(src, dst, 1, &self.params);
                self.clocks.transfer_concurrent(dst, src, 1, &self.params);
                self.record(phase, 2);
            }
        }
        self.clocks.barrier();
        flags.iter().any(|&f| f)
    }

    /// All-reduce over one `f64` per processor with the given combiner
    /// (sum, max, …). Charges a tree gather + broadcast of 8-byte values and
    /// synchronizes clocks.
    pub fn all_reduce_f64<F>(&mut self, phase: Phase, values: &[f64], combine: F) -> f64
    where
        F: Fn(f64, f64) -> f64,
    {
        assert_eq!(values.len(), self.proc_count());
        for round in schedule::tree_broadcast(self.proc_count(), 0) {
            for (src, dst) in round {
                self.clocks.transfer_concurrent(src, dst, 8, &self.params);
                self.clocks.transfer_concurrent(dst, src, 8, &self.params);
                self.record(phase, 16);
            }
        }
        self.clocks.barrier();
        values
            .iter()
            .copied()
            .reduce(&combine)
            // aa-lint: allow(AA01, proc_count is asserted >= 1 at construction so the reduce has at least one element)
            .expect("at least one processor")
    }

    fn record(&mut self, phase: Phase, bytes: usize) {
        self.ledger
            .record_transfer(phase, self.params.message_count(bytes) as u64, bytes as u64);
    }

    fn trace_transfer(&mut self, src: usize, dst: usize, bytes: usize, phase: Phase) {
        self.trace_event(src, dst, bytes, phase, DeliveryKind::Delivered);
    }

    fn trace_event(
        &mut self,
        src: usize,
        dst: usize,
        bytes: usize,
        phase: Phase,
        kind: DeliveryKind,
    ) {
        if let Some(trace) = &mut self.trace {
            let makespan_us = self.clocks.makespan_us();
            trace.push(TraceEvent {
                src,
                dst,
                bytes,
                phase,
                makespan_us,
                kind,
            });
        }
    }

    /// Cluster makespan so far (µs of virtual time).
    pub fn makespan_us(&self) -> f64 {
        self.clocks.makespan_us()
    }

    /// The cost ledger (messages / bytes / compute per phase).
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Resets clocks and ledger (used by the baseline-restart strategy).
    /// Fault topology (down ranks, straggler scales, crash schedule) is
    /// preserved: a restart does not repair hardware.
    pub fn reset_accounting(&mut self) {
        self.clocks = VirtualClocks::new(self.proc_count());
        self.ledger = CostLedger::new();
        self.rank_compute_us = vec![0.0; self.proc_count()];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(p: usize, mode: ExchangeMode) -> Cluster {
        Cluster::new(p, LogPParams::ethernet_1gbe(), mode)
    }

    #[test]
    fn exchange_delivers_payloads() {
        let mut c = cluster(3, ExchangeMode::Serialized);
        let outbox = vec![
            vec![TransferOut {
                dst: 1,
                bytes: 10,
                payload: "a",
            }],
            vec![TransferOut {
                dst: 2,
                bytes: 20,
                payload: "b",
            }],
            vec![
                TransferOut {
                    dst: 0,
                    bytes: 30,
                    payload: "c",
                },
                TransferOut {
                    dst: 1,
                    bytes: 5,
                    payload: "d",
                },
            ],
        ];
        let inbox = c.exchange(Phase::Recombination, outbox);
        assert_eq!(inbox[0], vec![(2, "c")]);
        assert_eq!(inbox[1], vec![(0, "a"), (2, "d")]);
        assert_eq!(inbox[2], vec![(1, "b")]);
        let s = c.ledger().phase(Phase::Recombination);
        assert_eq!(s.bytes, 65);
        assert!(c.makespan_us() > 0.0);
    }

    #[test]
    fn exchange_modes_deliver_identically() {
        for mode in [ExchangeMode::Serialized, ExchangeMode::RoundBased] {
            let mut c = cluster(4, mode);
            let outbox = vec![
                vec![TransferOut {
                    dst: 3,
                    bytes: 8,
                    payload: 1u32,
                }],
                vec![],
                vec![TransferOut {
                    dst: 3,
                    bytes: 8,
                    payload: 2u32,
                }],
                vec![],
            ];
            let inbox = c.exchange(Phase::Recombination, outbox);
            let mut got = inbox[3].clone();
            got.sort_unstable();
            assert_eq!(got, vec![(0, 1u32), (2, 2u32)], "{mode:?}");
        }
    }

    #[test]
    fn serialized_costs_more_than_round_based_for_dense_exchange() {
        let dense_outbox = |p: usize| -> Vec<Vec<TransferOut<()>>> {
            (0..p)
                .map(|src| {
                    (0..p)
                        .filter(|&d| d != src)
                        .map(|dst| TransferOut {
                            dst,
                            bytes: 100_000,
                            payload: (),
                        })
                        .collect()
                })
                .collect()
        };
        let mut ser = cluster(8, ExchangeMode::Serialized);
        ser.exchange(Phase::Recombination, dense_outbox(8));
        let mut rb = cluster(8, ExchangeMode::RoundBased);
        rb.exchange(Phase::Recombination, dense_outbox(8));
        assert!(
            ser.makespan_us() > 2.0 * rb.makespan_us(),
            "serialized {} vs round-based {}",
            ser.makespan_us(),
            rb.makespan_us()
        );
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_rejected() {
        let mut c = cluster(2, ExchangeMode::Serialized);
        c.exchange(
            Phase::Recombination,
            vec![
                vec![TransferOut {
                    dst: 0,
                    bytes: 1,
                    payload: (),
                }],
                vec![],
            ],
        );
    }

    #[test]
    fn broadcast_cost_charges_p_minus_1_messages() {
        let mut c = cluster(8, ExchangeMode::Serialized);
        c.broadcast_cost(Phase::DynamicUpdate, 3, 500);
        let s = c.ledger().phase(Phase::DynamicUpdate);
        assert_eq!(s.messages, 7);
        assert_eq!(s.bytes, 7 * 500);
    }

    #[test]
    fn all_reduce_or_semantics() {
        let mut c = cluster(5, ExchangeMode::Serialized);
        assert!(!c.all_reduce_or(Phase::Recombination, &[false; 5]));
        assert!(c.all_reduce_or(Phase::Recombination, &[false, false, true, false, false]));
    }

    #[test]
    fn compute_charges_clock_and_ledger() {
        let mut c = cluster(2, ExchangeMode::Serialized);
        c.compute_modeled(1, Phase::InitialApproximation, 250.0);
        assert_eq!(c.makespan_us(), 250.0);
        assert_eq!(
            c.ledger().phase(Phase::InitialApproximation).compute_us,
            250.0
        );
        c.compute_measured(0, Phase::InitialApproximation, Duration::from_micros(100));
        assert!((c.ledger().phase(Phase::InitialApproximation).compute_us - 350.0).abs() < 1e-6);
    }

    #[test]
    fn reset_accounting_zeroes_state() {
        let mut c = cluster(2, ExchangeMode::Serialized);
        c.compute_modeled(0, Phase::Recombination, 10.0);
        c.reset_accounting();
        assert_eq!(c.makespan_us(), 0.0);
        assert_eq!(c.ledger().totals().compute_us, 0.0);
    }

    #[test]
    fn trace_records_transfers_in_time_order() {
        let mut c = cluster(3, ExchangeMode::Serialized);
        c.enable_trace();
        c.exchange(
            Phase::Recombination,
            vec![
                vec![TransferOut {
                    dst: 1,
                    bytes: 100,
                    payload: (),
                }],
                vec![TransferOut {
                    dst: 2,
                    bytes: 200,
                    payload: (),
                }],
                vec![],
            ],
        );
        c.broadcast_cost(Phase::DynamicUpdate, 0, 50);
        let trace = c.take_trace();
        assert_eq!(
            trace.len(),
            2 + 2,
            "two exchange transfers + two tree edges"
        );
        for pair in trace.windows(2) {
            assert!(pair[1].makespan_us >= pair[0].makespan_us);
        }
        assert!(trace.iter().any(|e| e.phase == Phase::DynamicUpdate));
        // Taking the trace disables recording.
        c.broadcast_cost(Phase::DynamicUpdate, 0, 50);
        assert!(c.take_trace().is_empty());
    }

    #[test]
    fn receipts_without_fault_plan_match_plain_exchange() {
        let outbox = || {
            vec![
                vec![TransferOut {
                    dst: 1,
                    bytes: 10,
                    payload: "a",
                }],
                vec![TransferOut {
                    dst: 2,
                    bytes: 20,
                    payload: "b",
                }],
                vec![
                    TransferOut {
                        dst: 0,
                        bytes: 30,
                        payload: "c",
                    },
                    TransferOut {
                        dst: 1,
                        bytes: 5,
                        payload: "d",
                    },
                ],
            ]
        };
        let mut plain = cluster(3, ExchangeMode::Serialized);
        let expect = plain.exchange(Phase::Recombination, outbox());
        let mut faulty = cluster(3, ExchangeMode::Serialized);
        let (inbox, receipts) = faulty.exchange_with_receipts(Phase::Recombination, outbox());
        assert_eq!(inbox, expect);
        assert_eq!(receipts, vec![vec![true], vec![true], vec![true, true]]);
        assert_eq!(plain.ledger(), faulty.ledger());
        assert_eq!(plain.makespan_us(), faulty.makespan_us());
    }

    #[test]
    fn dropped_transfer_still_charged_and_counted() {
        let mut c = cluster(2, ExchangeMode::Serialized);
        let mut plan = crate::FaultPlan::new(5, 0.0, 0.0);
        plan.set_link(0, 1, crate::LinkFaults::new(1.0, 0.0));
        c.set_fault_plan(Some(plan));
        c.enable_trace();
        let (inbox, receipts) = c.exchange_with_receipts(
            Phase::Recombination,
            vec![
                vec![TransferOut {
                    dst: 1,
                    bytes: 40,
                    payload: 7u32,
                }],
                vec![TransferOut {
                    dst: 0,
                    bytes: 24,
                    payload: 9u32,
                }],
            ],
        );
        assert!(inbox[1].is_empty(), "dropped payload must not arrive");
        assert_eq!(inbox[0], vec![(1, 9u32)]);
        assert_eq!(receipts, vec![vec![false], vec![true]]);
        let s = c.ledger().phase(Phase::Recombination);
        assert_eq!(s.bytes, 64, "dropped bytes still occupy the network");
        assert_eq!(s.dropped_bytes, 40);
        assert!(s.dropped_messages >= 1);
        assert_eq!(s.dup_bytes, 0);
        let trace = c.take_trace();
        assert!(trace
            .iter()
            .any(|e| e.kind == DeliveryKind::Dropped && e.src == 0 && e.bytes == 40));
        for pair in trace.windows(2) {
            assert!(pair[1].makespan_us >= pair[0].makespan_us);
        }
    }

    #[test]
    fn duplicated_transfer_arrives_twice_and_charges_twice() {
        let mut c = cluster(2, ExchangeMode::Serialized);
        let plan = crate::FaultPlan::new(5, 0.0, 1.0).with_reorder(false);
        c.set_fault_plan(Some(plan));
        c.enable_trace();
        let (inbox, receipts) = c.exchange_with_receipts(
            Phase::Recombination,
            vec![
                vec![TransferOut {
                    dst: 1,
                    bytes: 16,
                    payload: "x",
                }],
                vec![],
            ],
        );
        assert_eq!(inbox[1], vec![(0, "x"), (0, "x")]);
        assert_eq!(receipts[0], vec![true]);
        let s = c.ledger().phase(Phase::Recombination);
        assert_eq!(s.bytes, 32, "both copies ride the network");
        assert_eq!(s.dup_bytes, 16);
        assert!(c
            .take_trace()
            .iter()
            .any(|e| e.kind == DeliveryKind::Duplicate));
    }

    #[test]
    fn faulted_exchange_replays_deterministically() {
        let run = |seed: u64| {
            let mut c = cluster(4, ExchangeMode::Serialized);
            c.set_fault_plan(Some(crate::FaultPlan::new(seed, 0.4, 0.2)));
            let mut all_receipts = Vec::new();
            let mut all_inboxes = Vec::new();
            for step in 0..20u32 {
                let outbox: Vec<Vec<TransferOut<u32>>> = (0..4)
                    .map(|src| {
                        (0..4)
                            .filter(|&d| d != src)
                            .map(|dst| TransferOut {
                                dst,
                                bytes: 8,
                                payload: step,
                            })
                            .collect()
                    })
                    .collect();
                let (inbox, receipts) = c.exchange_with_receipts(Phase::Recombination, outbox);
                all_inboxes.push(inbox);
                all_receipts.push(receipts);
            }
            (all_inboxes, all_receipts, c.makespan_us())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77).1, run(78).1, "different seeds fault differently");
    }

    #[test]
    fn transfers_to_a_down_rank_are_nacked_and_charged() {
        let mut c = cluster(3, ExchangeMode::Serialized);
        c.set_fault_plan(Some(crate::FaultPlan::new(0, 0.0, 0.0).with_reorder(false)));
        c.mark_down(1);
        c.enable_trace();
        let (inbox, receipts) = c.exchange_with_receipts(
            Phase::Recombination,
            vec![
                vec![
                    TransferOut {
                        dst: 1,
                        bytes: 48,
                        payload: "dead",
                    },
                    TransferOut {
                        dst: 2,
                        bytes: 16,
                        payload: "live",
                    },
                ],
                vec![],
                vec![],
            ],
        );
        assert!(inbox[1].is_empty(), "a down rank receives nothing");
        assert_eq!(inbox[2], vec![(0, "live")]);
        assert_eq!(receipts[0], vec![false, true]);
        let s = c.ledger().phase(Phase::Recombination);
        assert_eq!(s.bytes, 64, "the lost transfer still rode the network");
        assert_eq!(s.dropped_bytes, 48);
        assert!(c
            .take_trace()
            .iter()
            .any(|e| e.kind == DeliveryKind::LostDown && e.dst == 1 && e.bytes == 48));
        // Recovery brings the rank back.
        c.mark_up(1);
        assert_eq!(c.down_ranks(), Vec::<usize>::new());
        let (inbox, receipts) = c.exchange_with_receipts(
            Phase::Recombination,
            vec![
                vec![TransferOut {
                    dst: 1,
                    bytes: 48,
                    payload: "retry",
                }],
                vec![],
                vec![],
            ],
        );
        assert_eq!(inbox[1], vec![(0, "retry")]);
        assert_eq!(receipts[0], vec![true]);
    }

    #[test]
    fn scheduled_crashes_fire_once_and_spare_the_last_survivor() {
        let mut c = cluster(2, ExchangeMode::Serialized);
        let plan = crate::FaultPlan::new(0, 0.0, 0.0)
            .with_crash(3, 0)
            .with_crash(5, 1);
        c.set_fault_plan(Some(plan));
        assert_eq!(c.fire_crashes_due(2), Vec::<usize>::new());
        assert_eq!(c.fire_crashes_due(3), vec![0]);
        assert!(c.is_down(0));
        // Firing the same step again is idempotent.
        assert_eq!(c.fire_crashes_due(3), Vec::<usize>::new());
        // Rank 1 is the last survivor: its crash is skipped.
        assert_eq!(c.fire_crashes_due(10), Vec::<usize>::new());
        assert_eq!(c.live_count(), 1);
        // After recovery, late crashes do not re-fire.
        c.mark_up(0);
        assert_eq!(c.fire_crashes_due(11), Vec::<usize>::new());
    }

    #[test]
    fn straggler_scale_inflates_compute_and_clock() {
        let mut c = cluster(2, ExchangeMode::Serialized);
        c.set_fault_plan(Some(
            crate::FaultPlan::new(0, 0.0, 0.0).with_straggler(1, 10.0),
        ));
        c.compute_modeled(0, Phase::Recombination, 100.0);
        c.compute_modeled(1, Phase::Recombination, 100.0);
        assert_eq!(c.compute_us_by_rank(), &[100.0, 1000.0]);
        assert_eq!(c.proc_time_us(1), 1000.0);
        assert_eq!(c.makespan_us(), 1000.0, "the straggler drags the makespan");
        // Removing the plan resets the scale.
        c.set_fault_plan(None);
        c.compute_modeled(1, Phase::Recombination, 50.0);
        assert_eq!(c.compute_us_by_rank()[1], 1050.0);
    }

    #[test]
    fn point_to_point_cost_charges_one_transfer() {
        let mut c = cluster(4, ExchangeMode::Serialized);
        c.point_to_point_cost(Phase::Recovery, 0, 2, 1000);
        let s = c.ledger().phase(Phase::Recovery);
        assert_eq!(s.bytes, 1000);
        assert!(c.makespan_us() > 0.0);
    }

    #[test]
    fn single_proc_cluster_is_degenerate_but_valid() {
        let mut c = cluster(1, ExchangeMode::Serialized);
        let inbox = c.exchange::<()>(Phase::Recombination, vec![vec![]]);
        assert_eq!(inbox.len(), 1);
        assert!(inbox[0].is_empty());
        assert!(!c.all_reduce_or(Phase::Recombination, &[false]));
    }

    #[test]
    fn backend_kind_round_trips_through_strings() {
        for kind in [BackendKind::Sim, BackendKind::Threads] {
            assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
        }
        assert!("fibers".parse::<BackendKind>().is_err());
    }

    #[test]
    fn sim_backend_rejects_parallelism_loudly() {
        let build = |threads| {
            Cluster::build(
                BackendKind::Sim,
                4,
                LogPParams::ethernet_1gbe(),
                ExchangeMode::Serialized,
                threads,
            )
        };
        let err = build(8).unwrap_err();
        assert!(err.contains("single-threaded"), "unhelpful error: {err}");
        // threads <= 1 is the sequential contract the sim satisfies.
        for threads in [0, 1] {
            assert!(build(threads).is_ok());
        }
    }

    #[test]
    fn probe_reports_threads_on_test_host() {
        assert!(threads_available());
    }

    /// Worker counts every `run_on_ranks` contract is checked at: the
    /// inline simulator, two and three lanes (ranks multiplexed per lane),
    /// and one worker per rank.
    fn worker_counts(p: usize) -> Vec<Cluster> {
        let sim = cluster(p, ExchangeMode::Serialized);
        let threads = [2, 3, 0].map(|threads| {
            Cluster::build(
                BackendKind::Threads,
                p,
                LogPParams::ethernet_1gbe(),
                ExchangeMode::Serialized,
                threads,
            )
            .expect("test host spawns threads")
        });
        std::iter::once(sim).chain(threads).collect()
    }

    #[test]
    fn run_on_ranks_runs_every_rank_with_exclusive_state() {
        for mut c in worker_counts(8) {
            let mut states: Vec<u64> = vec![0; 8];
            let inputs: Vec<u64> = (0..8).collect();
            let out = c.run_on_ranks(
                Phase::Recombination,
                &mut states,
                inputs,
                &[false; 8],
                |rank, state, input| {
                    *state = input * 10;
                    rank as u64 + input
                },
            );
            let workers = c.workers;
            assert_eq!(
                states,
                (0..8).map(|r| r * 10).collect::<Vec<_>>(),
                "{workers}"
            );
            assert_eq!(out, (0..8).map(|r| 2 * r).collect::<Vec<_>>(), "{workers}");
            assert!(c.makespan_us() > 0.0, "measured compute was charged");
        }
    }

    #[test]
    fn run_on_ranks_skips_without_charging() {
        for mut c in worker_counts(4) {
            let mut states = vec![0u32; 4];
            let out = c.run_on_ranks(
                Phase::Recombination,
                &mut states,
                vec![(); 4],
                &[false, true, false, true],
                |rank, state, ()| {
                    *state = 1;
                    rank as u32 + 1
                },
            );
            let workers = c.workers;
            assert_eq!(
                states,
                vec![1, 0, 1, 0],
                "skipped ranks left untouched ({workers})"
            );
            assert_eq!(
                out,
                vec![1, 0, 3, 0],
                "skipped ranks yield R::default() ({workers})"
            );
            let charged = c.compute_us_by_rank();
            assert_eq!(charged[1], 0.0);
            assert_eq!(charged[3], 0.0);
        }
    }

    #[test]
    fn run_on_ranks_with_one_worker_stays_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let mut c = cluster(4, ExchangeMode::Serialized);
        let ran_on = c.run_on_ranks(
            Phase::Recombination,
            &mut [(); 4],
            vec![(); 4],
            &[false; 4],
            |_, _, ()| Some(std::thread::current().id()),
        );
        assert_eq!(ran_on, vec![Some(caller); 4]);
    }
}
