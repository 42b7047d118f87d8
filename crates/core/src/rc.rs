//! The two per-rank stages of [`AnytimeEngine::rc_step`], run through
//! `Cluster::run_on_ranks` with the exchange between them: plan
//! ([`ProcState::plan_sends`]) and settle+apply
//! ([`ProcState::settle_and_apply`]).
//!
//! [`AnytimeEngine::rc_step`]: crate::engine::AnytimeEngine::rc_step

use crate::config::Refinement;
use crate::proc_state::{retry_backoff, Outstanding, ProcState, RowUpdate};
use aa_graph::VertexId;
use aa_partition::Partition;
use aa_runtime::TransferOut;
use std::collections::HashSet;

/// What a recombination exchange carries: boundary-row updates, plus the
/// supervision layer's piggybacked one-byte heartbeats.
#[derive(Debug, Clone)]
pub(crate) enum RcPayload {
    Row(VertexId, RowUpdate),
    Heartbeat,
}

/// What one outbox entry is, as the settle stage needs to know it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Send {
    /// Boundary row `row` to rank `dst`; `retry` marks a retransmit of a
    /// send the network dropped.
    Row {
        row: VertexId,
        dst: usize,
        retry: bool,
    },
    /// A one-byte liveness heartbeat to rank `dst`.
    Heartbeat { dst: usize },
}

impl Send {
    fn dst(self) -> usize {
        match self {
            Send::Row { dst, .. } | Send::Heartbeat { dst } => dst,
        }
    }
}

/// One rank's sends for one step, in the order the exchange judges them:
/// fresh rows (contiguous per row, in `fresh` order), then due
/// retransmits, then heartbeats.
#[derive(Debug, Default)]
pub(crate) struct SendPlan {
    /// The transfers; the coordinator takes them for the exchange.
    pub(crate) outbox: Vec<TransferOut<RcPayload>>,
    /// `sends[i]` describes `outbox[i]`.
    pub(crate) sends: Vec<Send>,
    /// Per fresh dirty row that has neighbour ranks: the destinations that
    /// were already up to date (delivered without bytes).
    pub(crate) fresh: Vec<(VertexId, Vec<usize>)>,
}

impl SendPlan {
    fn push(&mut self, send: Send, bytes: usize, payload: RcPayload) {
        self.outbox.push(TransferOut {
            dst: send.dst(),
            bytes,
            payload,
        });
        self.sends.push(send);
    }

    fn push_row(&mut self, row: VertexId, dst: usize, retry: bool, update: RowUpdate) {
        let bytes = update.bytes();
        self.push(
            Send::Row { row, dst, retry },
            bytes,
            RcPayload::Row(row, update),
        );
    }
}

/// One rank's side of the exchange: the input of the settle+apply stage.
#[derive(Debug)]
pub(crate) struct Exchanged {
    pub(crate) plan: SendPlan,
    /// Delivery receipt of each of `plan.sends`, in order.
    pub(crate) receipts: Vec<bool>,
    /// Received `(src, payload)` messages.
    pub(crate) inbox: Vec<(usize, RcPayload)>,
}

/// What the settle+apply stage reports to the coordinator.
#[derive(Debug, Default)]
pub(crate) struct Applied {
    /// Ranks heard from this step: positive receipts and inbound messages.
    pub(crate) contacts: Vec<usize>,
    /// Row sends acked by their receipt.
    pub(crate) acked_sends: u64,
    /// Row sends nacked by their receipt (queued or kept for retransmit).
    pub(crate) failed_sends: u64,
}

impl Applied {
    fn tally(&mut self, send: Send, ok: bool) {
        if ok {
            self.contacts.push(send.dst());
        }
        if let Send::Row { .. } = send {
            if ok {
                self.acked_sends += 1;
            } else {
                self.failed_sends += 1;
            }
        }
    }
}

impl ProcState {
    /// Stage 1: full rows on first contact, only the changed entries
    /// afterwards (the papers' "send only the updated values of the
    /// boundary DVs"), plus due retransmits of dropped rows and, with
    /// `heartbeats`, a one-byte heartbeat to every other rank so a silent
    /// but live rank stays distinguishable from a crashed one.
    pub(crate) fn plan_sends(&mut self, part: &Partition, now: u64, heartbeats: bool) -> SendPlan {
        let mut plan = SendPlan::default();
        let mut dirty: Vec<VertexId> = self.dirty.drain().collect();
        dirty.sort_unstable(); // deterministic order
        for u in dirty {
            // A fresh send supersedes any pending retransmit of the same
            // row: destinations still neighbouring get the new data below,
            // the rest no longer need the row at all.
            self.outstanding.retain(|&(v, _), _| v != u);
            let ranks = self.neighbor_ranks(u, part);
            if ranks.is_empty() {
                continue; // interior vertex: no neighbour processor needs it
            }
            let mut trivial = Vec::new();
            for (&dst, update) in ranks.iter().zip(self.build_row_updates(u, &ranks)) {
                match update {
                    Some(update) => plan.push_row(u, dst, false, update),
                    None => trivial.push(dst),
                }
            }
            plan.fresh.push((u, trivial));
        }
        // Due retransmits. The destination left `sent_to` when its receipt
        // came back negative, so these are always full rows.
        let mut due: Vec<(VertexId, usize)> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.next_step <= now)
            .map(|(&key, _)| key)
            .collect();
        due.sort_unstable();
        for (u, dst) in due {
            match self.build_row_update(u, dst) {
                Some(update) => plan.push_row(u, dst, true, update),
                // dst already holds the current row (it was acked through
                // another path); nothing left to deliver.
                None => {
                    self.outstanding.remove(&(u, dst));
                }
            }
        }
        if heartbeats {
            for dst in (0..part.num_parts).filter(|&dst| dst != self.rank) {
                plan.push(Send::Heartbeat { dst }, 1, RcPayload::Heartbeat);
            }
        }
        plan
    }

    /// Stage 2: settles the receipts, then applies the inbox and refines.
    /// Settling reads and writes only this rank's send state, so one pass
    /// can do both. Every inbound message (row or heartbeat) is liveness
    /// evidence for its sender.
    pub(crate) fn settle_and_apply(
        &mut self,
        ex: Exchanged,
        now: u64,
        refinement: Refinement,
    ) -> Applied {
        let mut applied = self.settle(&ex.plan, &ex.receipts, now);
        let mut seeds = Vec::new();
        for (src, payload) in ex.inbox {
            applied.contacts.push(src);
            if let RcPayload::Row(v, update) = payload {
                seeds.extend(self.apply_row_update(v, update));
            }
        }
        if refinement == Refinement::WorklistRelax {
            self.propagate_worklist(seeds);
        } else if !seeds.is_empty() || self.pivot_pending {
            self.pivot_pending = self.pivot_pass();
        }
        applied
    }

    /// Settles receipts *before* received rows are applied: each row still
    /// equals its value at send time, so an all-acked row's delta baseline
    /// can be refreshed to exactly what every receiver now holds. A
    /// positive receipt also proves the destination was up this step.
    fn settle(&mut self, plan: &SendPlan, receipts: &[bool], now: u64) -> Applied {
        debug_assert_eq!(plan.sends.len(), receipts.len());
        let mut applied = Applied::default();
        let mut walk = plan.sends.iter().zip(receipts).peekable();
        for (u, trivial) in &plan.fresh {
            let mut holders: HashSet<usize> = trivial.iter().copied().collect();
            let mut missed = Vec::new();
            while let Some((&send, &ok)) =
                walk.next_if(|(s, _)| matches!(s, Send::Row { row, .. } if row == u))
            {
                applied.tally(send, ok);
                if ok {
                    holders.insert(send.dst());
                } else {
                    missed.push(send.dst());
                }
            }
            // Destinations that missed this send (dropped, or their cut
            // edges to `u` came and went) leave the up-to-date set: they
            // get a full row on next contact.
            self.sent_to.insert(*u, holders);
            // Refresh the delta baseline only when every destination got
            // this send; otherwise keep the old baseline (an upper bound of
            // every member's cache) so deltas remain supersets of what each
            // member still needs. First sends always refresh — there is no
            // older member to protect.
            if missed.is_empty() || !self.sent_snapshot.contains_key(u) {
                self.refresh_snapshot(*u);
            }
            for dst in missed {
                let first = Outstanding {
                    attempts: 1,
                    next_step: now + 1,
                };
                self.outstanding.insert((*u, dst), first);
            }
        }
        // The rest: due retransmits (a fresh send dropped its row's
        // pending retransmits), then heartbeats.
        for (&send, &ok) in walk {
            applied.tally(send, ok);
            let Send::Row { row, dst, .. } = send else {
                continue;
            };
            if ok {
                // The receiver now caches the row as it was at send time,
                // which is ≤ the (older) baseline snapshot, so future deltas
                // against that snapshot stay a superset of what it needs.
                // Deliberately no baseline refresh: other members may still
                // be on the older snapshot.
                self.sent_to.entry(row).or_default().insert(dst);
                self.outstanding.remove(&(row, dst));
            } else if let Some(o) = self.outstanding.get_mut(&(row, dst)) {
                o.attempts += 1;
                o.next_step = now + retry_backoff(o.attempts);
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_graph::{Weight, INF};

    const NOW: u64 = 7;

    /// Rank 0 owning row 1 of a 4-column matrix, its current values `row`.
    fn rank_with_row(row: [Weight; 4]) -> ProcState {
        let mut ps = ProcState::new(0, 4);
        ps.dv.add_row(1);
        ps.dv.row_mut(1).copy_from_slice(&row);
        ps
    }

    fn fresh(dst: usize) -> Send {
        Send::Row {
            row: 1,
            dst,
            retry: false,
        }
    }

    fn retry(dst: usize) -> Send {
        Send::Row {
            row: 1,
            dst,
            retry: true,
        }
    }

    fn plan(sends: Vec<Send>, fresh: Vec<(VertexId, Vec<usize>)>) -> SendPlan {
        SendPlan {
            outbox: Vec::new(),
            sends,
            fresh,
        }
    }

    #[test]
    fn plan_lists_fresh_rows_then_due_retransmits_then_heartbeats() {
        // Path 0-1-2-3 as {0, 1} | {2, 3} on three ranks; rank 2 is empty.
        let g = aa_graph::generators::path(4);
        let mut part = Partition::unassigned(4, 3);
        for (v, rank) in [(0, 0), (1, 0), (2, 1), (3, 1)] {
            part.assign(v, rank);
        }
        let mut ps = ProcState::new(0, 4);
        ps.rebuild_view(&g, &part);
        ps.dv.add_row(0);
        ps.dv.add_row(1);
        ps.initial_approximation();
        ps.dirty.remove(&0);
        let due = Outstanding {
            attempts: 1,
            next_step: NOW,
        };
        ps.outstanding.insert((0, 1), due);
        let got = ps.plan_sends(&part, NOW, true);
        let want = vec![
            fresh(1),
            Send::Row {
                row: 0,
                dst: 1,
                retry: true,
            },
            Send::Heartbeat { dst: 1 },
            Send::Heartbeat { dst: 2 },
        ];
        assert_eq!(got.sends, want);
        let dsts: Vec<usize> = got.outbox.iter().map(|t| t.dst).collect();
        assert_eq!(dsts, vec![1, 1, 1, 2]);
        assert_eq!(got.outbox[3].bytes, 1);
        assert_eq!(got.fresh, vec![(1, Vec::new())]);
        assert!(ps.dirty.is_empty());
    }

    #[test]
    fn all_acked_row_joins_every_destination_and_refreshes_its_baseline() {
        let mut ps = rank_with_row([1, 0, 2, 3]);
        ps.sent_snapshot.insert(1, vec![1, 0, 5, INF]);
        let sends = plan(vec![fresh(1), fresh(3)], vec![(1, vec![2])]);
        let got = ps.settle(&sends, &[true, true], NOW);
        assert_eq!(ps.sent_to[&1], HashSet::from([1, 2, 3]));
        assert_eq!(ps.sent_snapshot[&1], vec![1, 0, 2, 3]);
        assert!(ps.outstanding.is_empty());
        assert_eq!((got.acked_sends, got.failed_sends), (2, 0));
        assert_eq!(got.contacts, vec![1, 3]);
    }

    #[test]
    fn dropped_destination_keeps_the_old_baseline_and_queues_a_retransmit() {
        let queued = Outstanding {
            attempts: 1,
            next_step: NOW + 1,
        };
        for first_send in [false, true] {
            let mut ps = rank_with_row([1, 0, 2, 3]);
            if !first_send {
                ps.sent_snapshot.insert(1, vec![1, 0, 5, INF]);
                ps.sent_to.insert(1, HashSet::from([1, 3]));
            }
            let sends = plan(vec![fresh(1), fresh(3)], vec![(1, Vec::new())]);
            let got = ps.settle(&sends, &[true, false], NOW);
            assert_eq!(ps.sent_to[&1], HashSet::from([1]), "3 missed the send");
            let want = if first_send {
                vec![1, 0, 2, 3]
            } else {
                vec![1, 0, 5, INF]
            };
            assert_eq!(ps.sent_snapshot[&1], want, "first send: {first_send}");
            assert_eq!(ps.outstanding.len(), 1);
            assert_eq!(ps.outstanding[&(1, 3)], queued);
            assert_eq!((got.acked_sends, got.failed_sends), (1, 1));
            assert_eq!(got.contacts, vec![1]);
        }
    }

    #[test]
    fn retransmits_back_off_on_failure_and_join_without_a_refresh_on_ack() {
        let mut ps = rank_with_row([1, 0, 2, 3]);
        ps.sent_snapshot.insert(1, vec![1, 0, 5, INF]);
        ps.sent_to.insert(1, HashSet::from([3]));
        for dst in [1, 2] {
            let due = Outstanding {
                attempts: 2,
                next_step: NOW,
            };
            ps.outstanding.insert((1, dst), due);
        }
        let sends = plan(vec![retry(1), retry(2)], Vec::new());
        let got = ps.settle(&sends, &[false, true], NOW);
        let backed_off = Outstanding {
            attempts: 3,
            next_step: NOW + retry_backoff(3),
        };
        assert_eq!(ps.outstanding.len(), 1);
        assert_eq!(ps.outstanding[&(1, 1)], backed_off);
        assert_eq!(ps.sent_to[&1], HashSet::from([2, 3]));
        assert_eq!(ps.sent_snapshot[&1], vec![1, 0, 5, INF], "no refresh");
        assert_eq!((got.acked_sends, got.failed_sends), (1, 1));
        assert_eq!(got.contacts, vec![2]);
    }

    #[test]
    fn heartbeat_receipts_yield_contacts_only() {
        let mut ps = rank_with_row([1, 0, 2, 3]);
        let beats = vec![Send::Heartbeat { dst: 1 }, Send::Heartbeat { dst: 2 }];
        let got = ps.settle(&plan(beats, Vec::new()), &[true, false], NOW);
        assert_eq!(got.contacts, vec![1]);
        assert_eq!((got.acked_sends, got.failed_sends), (0, 0));
        assert!(ps.sent_to.is_empty() && ps.sent_snapshot.is_empty());
        assert!(ps.outstanding.is_empty());
    }
}
