//! Deterministic network-fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] decides, per individual transfer on a directed (src, dst)
//! link, whether the network drops it, duplicates it, or delivers it intact,
//! and whether each receiver's inbox is reordered. Every decision is drawn
//! from a ChaCha8 stream keyed by `(plan seed, src, dst, per-link decision
//! index)`, so a run replays bit-exactly from the same seed regardless of
//! how other links interleave — the property the chaos property tests and
//! the `chaos` CLI command rely on.
//!
//! The plan only *decides*; [`crate::Cluster::exchange_with_receipts`]
//! applies the decisions, keeps charging clocks and ledger for dropped
//! bytes (the network was used either way), and reports per-sender delivery
//! receipts so the protocol layer can retransmit.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Fault probabilities of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a transfer is dropped entirely.
    pub p_drop: f64,
    /// Probability a delivered transfer arrives twice.
    pub p_dup: f64,
}

impl LinkFaults {
    /// Validates and builds link fault rates.
    pub fn new(p_drop: f64, p_dup: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_drop) && (0.0..=1.0).contains(&p_dup),
            "fault probabilities must lie in [0, 1]: p_drop={p_drop} p_dup={p_dup}"
        );
        LinkFaults { p_drop, p_dup }
    }

    /// A perfectly reliable link.
    pub fn reliable() -> Self {
        LinkFaults {
            p_drop: 0.0,
            p_dup: 0.0,
        }
    }
}

/// The network's verdict on one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The transfer arrives; `duplicated` means it arrives twice.
    Delivered {
        /// Whether a second copy also arrives.
        duplicated: bool,
    },
    /// The transfer is lost.
    Dropped,
}

/// A scheduled fail-stop processor crash: `rank` dies at the start of
/// recombination step `step` (1-based, matching the engine's step counter)
/// and stays down until the supervision layer recovers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// Recombination step at which the rank dies.
    pub step: u64,
    /// The dying rank.
    pub rank: usize,
}

/// A straggler fault: `rank`'s compute charges (and therefore its LogP
/// virtual clock) are inflated by `scale` for the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerFault {
    /// The slow rank.
    pub rank: usize,
    /// Compute slowdown factor (> 1 means slower).
    pub scale: f64,
}

/// A seeded, replayable schedule of message faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    default: LinkFaults,
    overrides: HashMap<(usize, usize), LinkFaults>,
    reorder: bool,
    /// Scheduled fail-stop crashes, kept sorted by step.
    crashes: Vec<CrashFault>,
    /// Per-rank compute slowdowns.
    stragglers: Vec<StragglerFault>,
    /// Decisions drawn so far per directed link (the replay position).
    counters: HashMap<(usize, usize), u64>,
    /// Shuffles drawn so far per receiver.
    shuffle_counters: HashMap<usize, u64>,
}

/// SplitMix64-style finalizer used to key per-decision streams.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan applying `p_drop`/`p_dup` to every link, with reordering on.
    pub fn new(seed: u64, p_drop: f64, p_dup: f64) -> Self {
        FaultPlan {
            seed,
            default: LinkFaults::new(p_drop, p_dup),
            overrides: HashMap::new(),
            reorder: true,
            crashes: Vec::new(),
            stragglers: Vec::new(),
            counters: HashMap::new(),
            shuffle_counters: HashMap::new(),
        }
    }

    /// Enables or disables inbox reordering (on by default).
    pub fn with_reorder(mut self, reorder: bool) -> Self {
        self.reorder = reorder;
        self
    }

    /// Overrides the fault rates of the directed link `src -> dst`.
    pub fn set_link(&mut self, src: usize, dst: usize, faults: LinkFaults) {
        self.overrides.insert((src, dst), faults);
    }

    /// Fault rates in force on the directed link `src -> dst`.
    pub fn link(&self, src: usize, dst: usize) -> LinkFaults {
        self.overrides
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default)
    }

    /// Schedules a fail-stop crash: `rank` dies at recombination step `step`.
    /// The schedule is part of the plan, so a run replays the same crashes
    /// from the same plan. Crashes are kept sorted by step.
    pub fn schedule_crash(&mut self, step: u64, rank: usize) {
        self.crashes.push(CrashFault { step, rank });
        self.crashes.sort_by_key(|c| (c.step, c.rank));
    }

    /// Builder form of [`FaultPlan::schedule_crash`].
    pub fn with_crash(mut self, step: u64, rank: usize) -> Self {
        self.schedule_crash(step, rank);
        self
    }

    /// Marks `rank` as a straggler: its compute charges are multiplied by
    /// `scale` (> 1 = slower). A later call for the same rank overrides the
    /// earlier one.
    pub fn set_straggler(&mut self, rank: usize, scale: f64) {
        assert!(scale > 0.0, "straggler scale must be positive: {scale}");
        if let Some(s) = self.stragglers.iter_mut().find(|s| s.rank == rank) {
            s.scale = scale;
        } else {
            self.stragglers.push(StragglerFault { rank, scale });
        }
    }

    /// Builder form of [`FaultPlan::set_straggler`].
    pub fn with_straggler(mut self, rank: usize, scale: f64) -> Self {
        self.set_straggler(rank, scale);
        self
    }

    /// Removes any straggler fault on `rank` (the rank runs at nominal
    /// speed again).
    pub fn clear_straggler(&mut self, rank: usize) {
        self.stragglers.retain(|s| s.rank != rank);
    }

    /// The scheduled crashes, sorted by step.
    pub fn crashes(&self) -> &[CrashFault] {
        &self.crashes
    }

    /// The configured stragglers.
    pub fn stragglers(&self) -> &[StragglerFault] {
        &self.stragglers
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether receiver inboxes are reordered.
    pub fn reorder(&self) -> bool {
        self.reorder
    }

    /// Rewinds all decision streams to the beginning: a plan reset this way
    /// replays the exact same fault schedule.
    pub fn reset_replay(&mut self) {
        self.counters.clear();
        self.shuffle_counters.clear();
    }

    /// Draws the fate of the next transfer on `src -> dst`.
    pub fn decide(&mut self, src: usize, dst: usize) -> Delivery {
        let n = self.counters.entry((src, dst)).or_insert(0);
        *n += 1;
        let count = *n;
        let faults = self.link(src, dst);
        // aa-lint: allow(AA03, exact zero is the "link is reliable" config sentinel, not a computed estimate)
        if faults.p_drop == 0.0 && faults.p_dup == 0.0 {
            // Keep the zero-fault path free of RNG work.
            return Delivery::Delivered { duplicated: false };
        }
        let key =
            mix(self.seed ^ mix((src as u64) << 40 | (dst as u64) << 20 | 0x5EED) ^ mix(count));
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        if rng.gen_bool(faults.p_drop) {
            Delivery::Dropped
        } else {
            Delivery::Delivered {
                duplicated: rng.gen_bool(faults.p_dup),
            }
        }
    }

    /// Deterministically shuffles receiver `dst`'s inbox (no-op unless
    /// reordering is enabled).
    pub fn shuffle_inbox<T>(&mut self, dst: usize, inbox: &mut [T]) {
        if !self.reorder || inbox.len() < 2 {
            return;
        }
        let n = self.shuffle_counters.entry(dst).or_insert(0);
        *n += 1;
        let key = mix(self.seed ^ mix(0x00DD_BA11 ^ (dst as u64) << 32) ^ mix(*n));
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        // Fisher–Yates.
        for i in (1..inbox.len()).rev() {
            let j = rng.gen_range(0..=i);
            inbox.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_deterministic_per_link() {
        let mut a = FaultPlan::new(42, 0.3, 0.2);
        let mut b = FaultPlan::new(42, 0.3, 0.2);
        // Interleave links differently; per-link streams must agree.
        let from_a: Vec<Delivery> = (0..100).map(|_| a.decide(0, 1)).collect();
        for i in 0..300 {
            b.decide(2, 3 + i % 2);
        }
        let from_b: Vec<Delivery> = (0..100).map(|_| b.decide(0, 1)).collect();
        assert_eq!(from_a, from_b);
    }

    #[test]
    fn reset_replay_rewinds_the_schedule() {
        let mut plan = FaultPlan::new(7, 0.5, 0.1);
        let first: Vec<Delivery> = (0..50).map(|_| plan.decide(1, 0)).collect();
        plan.reset_replay();
        let second: Vec<Delivery> = (0..50).map(|_| plan.decide(1, 0)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn rates_are_roughly_respected() {
        let mut plan = FaultPlan::new(1, 0.3, 0.25);
        let mut drops = 0;
        let mut dups = 0;
        let trials = 10_000;
        for _ in 0..trials {
            match plan.decide(0, 1) {
                Delivery::Dropped => drops += 1,
                Delivery::Delivered { duplicated: true } => dups += 1,
                Delivery::Delivered { duplicated: false } => {}
            }
        }
        let drop_rate = drops as f64 / trials as f64;
        // Duplication is conditional on delivery.
        let dup_rate = dups as f64 / (trials - drops) as f64;
        assert!((drop_rate - 0.3).abs() < 0.03, "drop rate {drop_rate}");
        assert!((dup_rate - 0.25).abs() < 0.03, "dup rate {dup_rate}");
    }

    #[test]
    fn per_link_overrides_take_precedence() {
        let mut plan = FaultPlan::new(3, 0.0, 0.0);
        plan.set_link(0, 1, LinkFaults::new(1.0, 0.0));
        for _ in 0..20 {
            assert_eq!(plan.decide(0, 1), Delivery::Dropped);
            assert_eq!(plan.decide(1, 0), Delivery::Delivered { duplicated: false });
        }
        assert_eq!(plan.link(0, 1), LinkFaults::new(1.0, 0.0));
        assert_eq!(plan.link(2, 3), LinkFaults::reliable());
    }

    #[test]
    fn zero_rates_never_fault() {
        let mut plan = FaultPlan::new(9, 0.0, 0.0);
        for i in 0..200 {
            assert_eq!(
                plan.decide(i % 4, (i + 1) % 4),
                Delivery::Delivered { duplicated: false }
            );
        }
    }

    #[test]
    fn shuffle_permutes_deterministically() {
        let mut a = FaultPlan::new(11, 0.1, 0.0);
        let mut b = FaultPlan::new(11, 0.1, 0.0);
        let mut xs: Vec<u32> = (0..40).collect();
        let mut ys = xs.clone();
        a.shuffle_inbox(2, &mut xs);
        b.shuffle_inbox(2, &mut ys);
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "40 elements almost surely move");
        // Reorder disabled: identity.
        let mut plan = FaultPlan::new(11, 0.1, 0.0).with_reorder(false);
        let mut zs: Vec<u32> = (0..10).collect();
        plan.shuffle_inbox(0, &mut zs);
        assert_eq!(zs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_probability_rejected() {
        FaultPlan::new(0, 1.5, 0.0);
    }

    #[test]
    fn crash_schedule_is_sorted_and_replayable() {
        let plan = FaultPlan::new(0, 0.0, 0.0)
            .with_crash(30, 2)
            .with_crash(5, 1)
            .with_crash(30, 0);
        let steps: Vec<(u64, usize)> = plan.crashes().iter().map(|c| (c.step, c.rank)).collect();
        assert_eq!(steps, vec![(5, 1), (30, 0), (30, 2)]);
        // Cloning the plan (how a run is replayed) preserves the schedule.
        assert_eq!(plan.clone().crashes(), plan.crashes());
    }

    #[test]
    fn straggler_override_replaces_earlier_entry() {
        let mut plan = FaultPlan::new(0, 0.0, 0.0).with_straggler(3, 10.0);
        plan.set_straggler(3, 25.0);
        plan.set_straggler(1, 4.0);
        assert_eq!(plan.stragglers().len(), 2);
        let s3 = plan.stragglers().iter().find(|s| s.rank == 3).unwrap();
        assert_eq!(s3.scale, 25.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_straggler_scale_rejected() {
        FaultPlan::new(0, 0.0, 0.0).with_straggler(0, 0.0);
    }
}
