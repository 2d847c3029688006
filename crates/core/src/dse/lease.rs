//! Range leasing for the DSE coordinator service.
//!
//! The [`crate::serve`] coordinator splits a sweep's canonical seq space
//! into contiguous ranges and hands them out to worker processes as
//! *leases*. Workers crash, hang and disconnect; [`LeaseTable`] keeps the
//! sweep correct anyway. It tracks which ranges are pending, leased (to
//! whom, until when) or done. Leases expire on a virtual-millisecond
//! clock (the caller supplies `now`, so tests drive time
//! deterministically), and a disconnected owner's leases are released at
//! once. Completion is idempotent: a stale lease finishing after its
//! range was reassigned — and the reassigned lease finishing too — both
//! just confirm the range. A worker's completion is not trusted
//! ([`LeaseTable::accept`]): only records inside the leased range and of
//! the sweep's mode are merged, and the range is done only once all of it
//! is recorded.
//!
//! Completed records go into the job's [`MergeLedger`], the seq-keyed
//! assembly every sweep's shard comes out of (see [`crate::dse::shard`]).
//! At-least-once execution means the same seq can arrive more than once
//! (a timed-out worker that was not actually dead, a range completed by
//! both the original and the reassigned lease); there as everywhere the
//! first outcome per seq wins, which is safe because design-point
//! outcomes are deterministic. Once complete, the ledger assembles the
//! exact full-sweep shard a single-process run would have produced, so
//! rendering it is byte-identical by construction.
//!
//! The table is a pure state machine (no I/O, no wall clock), which is
//! what `tests/serve_protocol.rs` leans on: arbitrary join/leave/timeout
//! event sequences must keep leased ranges disjoint and eventually cover
//! every seq exactly once.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::dse::shard::{MergeLedger, ShardRecord};

/// A contiguous run of canonical sweep sequence numbers: `start`
/// inclusive, `end` exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeqRange {
    /// First seq of the range.
    pub start: u64,
    /// One past the last seq of the range.
    pub end: u64,
}

impl SeqRange {
    /// The seqs of the range.
    pub fn seqs(&self) -> impl Iterator<Item = u64> {
        self.start..self.end
    }

    /// Number of seqs in the range.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True when the range contains no seqs.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// True when `seq` lies in the range.
    pub fn contains(&self, seq: u64) -> bool {
        self.start <= seq && seq < self.end
    }
}

impl fmt::Display for SeqRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start, self.end)
    }
}

/// State of one work item (range) of a [`LeaseTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemState {
    /// Not yet handed out (or returned after an expiry / disconnect).
    Pending,
    /// Held by a worker.
    Leased {
        /// The lease id returned by [`LeaseTable::acquire`].
        lease: u64,
        /// The owning worker's connection id.
        owner: u64,
        /// Virtual-millisecond deadline; past it the lease is expirable.
        deadline: u64,
    },
    /// Completed (result recorded by the ledger).
    Done,
}

struct WorkItem {
    range: SeqRange,
    state: ItemState,
}

/// Leases of one sweep's ranges. See the module docs for the lifecycle.
pub struct LeaseTable {
    items: Vec<WorkItem>,
    /// Lease id → item index, for completion by lease id (stale ids
    /// included: they still name the item they leased).
    by_lease: BTreeMap<u64, usize>,
    next_lease: u64,
    /// Ranges handed out more than once (expiry or disconnect), for stats.
    reassigned: u64,
}

impl LeaseTable {
    /// Partitions `0..total` into ranges of at most `chunk` seqs
    /// (`chunk` is clamped to at least 1), skipping any seq for which
    /// `already_done` returns true — those were seeded from a previous
    /// run and never need a lease. Seeded seqs split ranges, so a lease
    /// never covers work that is already done.
    pub fn new(total: u64, chunk: u64, already_done: impl Fn(u64) -> bool) -> LeaseTable {
        let chunk = chunk.max(1);
        let mut items = Vec::new();
        let mut start = None;
        for seq in 0..total {
            if already_done(seq) {
                if let Some(s) = start.take() {
                    items.push(WorkItem {
                        range: SeqRange { start: s, end: seq },
                        state: ItemState::Pending,
                    });
                }
                continue;
            }
            match start {
                None => start = Some(seq),
                Some(s) if seq - s >= chunk => {
                    items.push(WorkItem {
                        range: SeqRange { start: s, end: seq },
                        state: ItemState::Pending,
                    });
                    start = Some(seq);
                }
                Some(_) => {}
            }
        }
        if let Some(s) = start {
            items.push(WorkItem {
                range: SeqRange {
                    start: s,
                    end: total,
                },
                state: ItemState::Pending,
            });
        }
        LeaseTable {
            items,
            by_lease: BTreeMap::new(),
            next_lease: 1,
            reassigned: 0,
        }
    }

    /// Leases the first pending range to `owner` until `now + timeout`
    /// virtual milliseconds. Returns the lease id and the range, or
    /// `None` when nothing is pending (everything is leased or done).
    pub fn acquire(&mut self, owner: u64, now: u64, timeout: u64) -> Option<(u64, SeqRange)> {
        let idx = self
            .items
            .iter()
            .position(|i| i.state == ItemState::Pending)?;
        let lease = self.next_lease;
        self.next_lease += 1;
        self.items[idx].state = ItemState::Leased {
            lease,
            owner,
            deadline: now.saturating_add(timeout),
        };
        self.by_lease.insert(lease, idx);
        Some((lease, self.items[idx].range))
    }

    /// Returns every lease whose deadline lies strictly before `now` to
    /// the pending pool and reports the reverted ranges. The stale lease
    /// ids stay valid for [`LeaseTable::complete`]: if the slow worker
    /// finishes after all, its result still lands (idempotently).
    pub fn expire(&mut self, now: u64) -> Vec<SeqRange> {
        let mut reverted = Vec::new();
        for item in &mut self.items {
            if let ItemState::Leased { deadline, .. } = item.state {
                if deadline < now {
                    item.state = ItemState::Pending;
                    self.reassigned += 1;
                    reverted.push(item.range);
                }
            }
        }
        reverted
    }

    /// Releases every lease held by `owner` (worker disconnect) and
    /// reports the reverted ranges.
    pub fn release_owner(&mut self, owner: u64) -> Vec<SeqRange> {
        let mut reverted = Vec::new();
        for item in &mut self.items {
            if matches!(item.state, ItemState::Leased { owner: o, .. } if o == owner) {
                item.state = ItemState::Pending;
                self.reassigned += 1;
                reverted.push(item.range);
            }
        }
        reverted
    }

    /// Marks the range leased as `lease` done and returns it. Idempotent
    /// and stale-tolerant: completing an already-done range (the original
    /// worker of a reassigned lease finishing late, or a retransmit)
    /// returns the range again without changing state; an unknown lease
    /// id returns `None`.
    pub fn complete(&mut self, lease: u64) -> Option<SeqRange> {
        let idx = *self.by_lease.get(&lease)?;
        self.items[idx].state = ItemState::Done;
        Some(self.items[idx].range)
    }

    /// Merges a worker's completion of `lease` into `ledger`, or returns
    /// `None` for an unknown lease id. Only records that belong to the
    /// leased range are merged: one whose seq lies outside the range, or
    /// whose outcome kind the sweep mode does not produce, is dropped and
    /// counted. The range is marked done (as by [`LeaseTable::complete`])
    /// only once the ledger holds every one of its seqs; an empty or
    /// partial completion leaves the lease as it is, so expiry reassigns
    /// the range.
    pub fn accept(
        &mut self,
        lease: u64,
        records: Vec<ShardRecord>,
        ledger: &mut MergeLedger,
    ) -> Option<Completion> {
        let range = self.items[*self.by_lease.get(&lease)?].range;
        let mut completion = Completion::default();
        for record in records {
            if !range.contains(record.seq) || !ledger.header().mode.admits(&record.outcome) {
                completion.rejected += 1;
            } else if ledger.insert(record.clone()) {
                completion.fresh.push(record);
            }
        }
        completion.done = range.seqs().all(|seq| ledger.contains(seq));
        if completion.done {
            self.complete(lease);
        }
        Some(completion)
    }

    /// True when every range is done.
    pub fn is_done(&self) -> bool {
        self.items.iter().all(|i| i.state == ItemState::Done)
    }

    /// Ranges currently pending (neither leased nor done).
    pub fn pending(&self) -> usize {
        self.items
            .iter()
            .filter(|i| i.state == ItemState::Pending)
            .count()
    }

    /// Ranges currently out on a live lease.
    pub fn leased(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i.state, ItemState::Leased { .. }))
            .count()
    }

    /// How often a range went back to pending after an expiry or a
    /// disconnect.
    pub fn reassigned(&self) -> u64 {
        self.reassigned
    }

    /// Every item's range and current state, for invariant checks and
    /// coordinator logging.
    pub fn items(&self) -> impl Iterator<Item = (SeqRange, ItemState)> + '_ {
        self.items.iter().map(|i| (i.range, i.state))
    }
}

/// What [`LeaseTable::accept`] made of one worker completion.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Completion {
    /// Records merged for the first time, in arrival order: exactly the
    /// ones to append to the spool.
    pub fresh: Vec<ShardRecord>,
    /// Records dropped because they do not belong to the leased range.
    pub rejected: usize,
    /// True when the whole range is recorded and the lease is done.
    pub done: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::shard::{ShardHeader, ShardOutcome, ShardSpec, SweepMode, SweepSignature};
    use crate::dse::SkippedPoint;

    fn ranges(table: &LeaseTable) -> Vec<(SeqRange, ItemState)> {
        table.items().collect()
    }

    #[test]
    fn table_chunks_cover_the_seq_space_without_overlap() {
        for total in [0u64, 1, 5, 8, 23] {
            for chunk in [1u64, 2, 4, 7, 100] {
                let table = LeaseTable::new(total, chunk, |_| false);
                let mut covered = vec![false; total as usize];
                for (range, state) in ranges(&table) {
                    assert_eq!(state, ItemState::Pending);
                    assert!(range.len() <= chunk);
                    assert!(!range.is_empty());
                    for seq in range.seqs() {
                        assert!(!covered[seq as usize], "seq {seq} covered twice");
                        covered[seq as usize] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "total={total} chunk={chunk}");
            }
        }
    }

    #[test]
    fn seeded_seqs_are_never_leased() {
        let table = LeaseTable::new(10, 4, |seq| seq % 3 == 0);
        let leased: Vec<u64> = ranges(&table).iter().flat_map(|(r, _)| r.seqs()).collect();
        assert_eq!(leased, vec![1, 2, 4, 5, 7, 8]);
        // A fully-seeded sweep needs no leases at all.
        assert!(LeaseTable::new(6, 2, |_| true).is_done());
    }

    #[test]
    fn expiry_returns_ranges_and_stale_completion_is_idempotent() {
        let mut table = LeaseTable::new(4, 2, |_| false);
        let (stale, r0) = table.acquire(1, 0, 100).unwrap();
        assert_eq!(r0, SeqRange { start: 0, end: 2 });
        // Not yet expired at the deadline itself.
        assert!(table.expire(100).is_empty());
        assert_eq!(table.expire(101), vec![r0]);
        assert_eq!(table.reassigned(), 1);

        // Reassigned to another worker, completed by it…
        let (fresh, r0b) = table.acquire(2, 200, 100).unwrap();
        assert_eq!(r0b, r0);
        assert_eq!(table.complete(fresh), Some(r0));
        // …and the stale lease completing late changes nothing.
        assert_eq!(table.complete(stale), Some(r0));
        assert_eq!(table.complete(stale), Some(r0));
        assert_eq!(table.complete(9999), None);

        let (l1, r1) = table.acquire(1, 300, 100).unwrap();
        assert_eq!(r1, SeqRange { start: 2, end: 4 });
        assert!(
            table.acquire(1, 300, 100).is_none(),
            "nothing left to lease"
        );
        table.complete(l1);
        assert!(table.is_done());
    }

    #[test]
    fn disconnect_releases_only_that_owner() {
        let mut table = LeaseTable::new(6, 2, |_| false);
        let (_, ra) = table.acquire(1, 0, 1000).unwrap();
        let (lb, rb) = table.acquire(2, 0, 1000).unwrap();
        let (_, rc) = table.acquire(1, 0, 1000).unwrap();
        assert_eq!(table.release_owner(1), vec![ra, rc]);
        assert_eq!(table.pending(), 2);
        assert_eq!(table.leased(), 1);
        assert_eq!(table.complete(lb), Some(rb));
        assert_eq!(table.release_owner(2), Vec::new());
    }

    fn header(total: u64) -> ShardHeader {
        ShardHeader {
            mode: SweepMode::Binders,
            shard: ShardSpec::full(),
            total_configs: total,
            signature: SweepSignature {
                apps: vec!["a".into()],
                digests: vec![0],
                tile_counts: vec![1, 2],
                include_noc: false,
                binders: vec!["greedy".into()],
            },
        }
    }

    fn record(seq: u64) -> ShardRecord {
        ShardRecord {
            seq,
            outcome: ShardOutcome::Skipped(SkippedPoint {
                tiles: seq as usize,
                interconnect: "fsl",
                strategy: "greedy",
                reason: "test".into(),
            }),
        }
    }

    #[test]
    fn completion_must_cover_the_leased_range() {
        let mut table = LeaseTable::new(4, 2, |_| false);
        let mut ledger = MergeLedger::new(header(4));
        let (lease, range) = table.acquire(1, 0, 100).unwrap();
        assert_eq!(range, SeqRange { start: 0, end: 2 });
        assert_eq!(table.accept(9999, vec![record(0)], &mut ledger), None);

        // Empty: nothing recorded, the lease stays open.
        let empty = table.accept(lease, Vec::new(), &mut ledger).unwrap();
        assert_eq!(
            (empty.fresh.len(), empty.rejected, empty.done),
            (0, 0, false)
        );
        // Wrong mode: binder records do not belong to a use-case sweep.
        let mut use_cases = MergeLedger::new(ShardHeader {
            mode: SweepMode::UseCases,
            ..header(4)
        });
        let wrong = table.accept(lease, vec![record(0), record(1)], &mut use_cases);
        assert_eq!(wrong.map(|c| (c.rejected, c.done)), Some((2, false)));
        assert!(use_cases.is_empty());
        // Out of range and partial: seq 2 is dropped, seq 1 is missing.
        let partial = table.accept(lease, vec![record(0), record(2)], &mut ledger);
        let partial = partial.unwrap();
        assert_eq!((partial.fresh, partial.rejected), (vec![record(0)], 1));
        assert!(!partial.done && !ledger.contains(2));
        assert_eq!(table.leased(), 1);

        // The open lease expires and the range is leased again, in full.
        assert_eq!(table.expire(101), vec![range]);
        let (again, _) = table.acquire(2, 200, 100).unwrap();
        let full = table.accept(again, vec![record(0), record(1)], &mut ledger);
        let full = full.unwrap();
        assert_eq!((full.fresh, full.done), (vec![record(1)], true));
        assert_eq!(
            (ledger.len(), ledger.duplicates(), table.pending()),
            (2, 1, 1)
        );
    }
}
