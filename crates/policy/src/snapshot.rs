//! Published snapshots of the region store — the guard read path.
//!
//! The region table is textbook read-mostly state: writes happen at
//! insmod/rmmod and grant/revoke rates, reads on *every* module load and
//! store. [`SnapshotStore`] therefore keeps an immutable
//! [`PolicySnapshot`] behind a `Mutex<Arc<_>>` that only writers and
//! re-pinning readers take: writers rebuild a fresh snapshot from the
//! authoritative (mutex-protected) store and install it whole; readers go
//! through [`SnapshotStore::with_current`], which serves the check from a
//! per-thread pinned `Arc` while that pin's generation is still the
//! store's current one. A reader mid-check keeps the snapshot it pinned
//! alive — it can never observe a torn table — and the old snapshot is
//! freed when the last pin on it is replaced.
//!
//! Every publish bumps a monotonic **generation**. The generation is the
//! invalidation signal for the per-thread pins and for every cached grant
//! ([`crate::site::SiteCache`] slots, promoted inline guards): a pinned
//! snapshot or a cached grant is valid only while its generation equals
//! the store's current one, so any table write — grant, revoke, wholesale
//! replace — retires every pin and every cached grant at the cost of one
//! atomic store. Nothing is notified: each holder compares its tag at
//! use.
//!
//! Memory-ordering argument (revoke → publish → reader-miss): the writer
//! installs the new snapshot under the `current` mutex *before* it stores
//! the new generation (`SeqCst`), so a revoke does not return until the
//! shrunken table is the installed one. A reader that starts a check
//! after revoke returns loads a generation at least as new as the
//! revoke's. It uses its pin only if the pinned snapshot's generation
//! equals the loaded one — which the old snapshot's cannot — and
//! otherwise clones `current` under the mutex, which already holds the
//! new table. A cached grant tagged with the old generation can never match
//! again either.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kop_core::{AccessFlags, Region, Size, VAddr};
use kop_trace::Counter;

use crate::frozen::{FrozenKind, FrozenStore};
use crate::store::{Lookup, StoreKind};

/// How many `(generation, regions)` pairs the store retains for
/// [`SnapshotStore::regions_at`]. The translation validator re-derives
/// inlined guard bounds from the grant a *cited* generation held; eight
/// generations of history comfortably covers a promote → validate window
/// while bounding memory on churn-heavy workloads.
pub const SNAPSHOT_HISTORY_CAP: usize = 8;

/// An immutable, self-contained copy of the policy at one generation.
///
/// Lookup semantics replicate the paper's table exactly: an access is
/// permitted if **any** covering region grants the intent; otherwise the
/// first covering region makes it [`Lookup::Forbidden`]; otherwise
/// [`Lookup::NoMatch`]. Lookups are served by a [`FrozenStore`] built at
/// publish time: a one-probe sorted array when the regions are disjoint,
/// an augmented interval tree when they overlap — O(log n) either way,
/// with bit-exact flat-scan semantics (store-order any-grant-wins).
pub struct PolicySnapshot {
    generation: u64,
    kind: StoreKind,
    /// The frozen index (also owns the store-order region list).
    frozen: FrozenStore,
}

impl PolicySnapshot {
    /// Build a snapshot over `regions` (in the authoritative store's
    /// snapshot order) at `generation`.
    pub fn build(kind: StoreKind, regions: Vec<Region>, generation: u64) -> PolicySnapshot {
        PolicySnapshot {
            generation,
            kind,
            frozen: FrozenStore::build(regions),
        }
    }

    /// The generation this snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The kind of the authoritative store this snapshot was built from.
    pub fn kind(&self) -> StoreKind {
        self.kind
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.frozen.len()
    }

    /// Whether the snapshot holds no regions.
    pub fn is_empty(&self) -> bool {
        self.frozen.is_empty()
    }

    /// The regions, in the authoritative store's order.
    pub fn regions(&self) -> &[Region] {
        self.frozen.regions()
    }

    /// The frozen index serving this snapshot's lookups.
    pub fn frozen(&self) -> &FrozenStore {
        &self.frozen
    }

    /// Which frozen index this snapshot built (sorted vs interval).
    pub fn frozen_kind(&self) -> FrozenKind {
        self.frozen.kind()
    }

    /// Classify an access against this frozen table. Pure: no locks, no
    /// mutation, callable from any thread.
    #[inline]
    pub fn lookup(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Lookup {
        self.frozen.lookup_frozen(addr, size, flags)
    }
}

impl std::fmt::Debug for PolicySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicySnapshot")
            .field("generation", &self.generation)
            .field("kind", &self.kind)
            .field("regions", &self.frozen.len())
            .field("frozen", &self.frozen.kind())
            .finish()
    }
}

/// Source of [`SnapshotStore`] ids. Ids are never reused, so a pin left
/// behind by a dropped store can never match a later store allocated at
/// the same address (every store's generations start at 1, so the
/// generation alone cannot tell them apart).
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's pinned snapshot, `(store id, snapshot)`: one slot
    /// shared by every store the thread checks against.
    static PIN: Cell<Option<(u64, Arc<PolicySnapshot>)>> = const { Cell::new(None) };
}

/// The published cell: current snapshot + generation + publish counter.
///
/// Writers must be externally serialized (the policy module publishes
/// while holding its store mutex); readers take the `current` mutex only
/// when their per-thread pin is stale.
pub struct SnapshotStore {
    /// Process-unique store id keying the per-thread pins.
    id: u64,
    current: Mutex<Arc<PolicySnapshot>>,
    /// Stored *after* `current` is replaced on publish; the validity tag
    /// of pins and cached grants. Starts at 1 so 0 can mean "no cached
    /// entry".
    generation: AtomicU64,
    publishes: Counter,
    /// Bounded `(generation, regions)` history for the validator's grant
    /// oracle; never read on the guard path.
    history: Mutex<VecDeque<(u64, Vec<Region>)>>,
}

impl SnapshotStore {
    /// An empty store of the given kind at generation 1.
    pub fn new(kind: StoreKind) -> SnapshotStore {
        let mut history = VecDeque::with_capacity(SNAPSHOT_HISTORY_CAP);
        history.push_back((1, Vec::new()));
        SnapshotStore {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            current: Mutex::new(Arc::new(PolicySnapshot::build(kind, Vec::new(), 1))),
            generation: AtomicU64::new(1),
            publishes: Counter::new("policy.snapshot_publishes"),
            history: Mutex::new(history),
        }
    }

    /// The current generation. `SeqCst` so that a generation observed
    /// after a publish implies the published snapshot is installed too.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Run `f` on a snapshot at least as new as the generation observed
    /// on entry. The snapshot comes from this thread's pin when the pin
    /// belongs to this store and its generation is the current one (no
    /// lock, no reference-count traffic); otherwise `current` is cloned
    /// under the mutex and becomes the thread's new pin.
    #[inline]
    pub fn with_current<R>(&self, f: impl FnOnce(&PolicySnapshot) -> R) -> R {
        let gen = self.generation();
        let snap = match PIN.try_with(Cell::take).ok().flatten() {
            Some((id, snap)) if id == self.id && snap.generation() == gen => snap,
            _ => self.load_full(),
        };
        let result = f(&snap);
        // Fails only while the thread's locals are being torn down; the
        // snapshot is then simply dropped.
        let _ = PIN.try_with(|pin| pin.set(Some((self.id, snap))));
        result
    }

    /// Clone out the current snapshot (takes the `current` mutex).
    pub fn load_full(&self) -> Arc<PolicySnapshot> {
        Arc::clone(&self.current.lock())
    }

    /// Rebuild and publish a new snapshot; returns the new generation.
    /// Callers serialize publishes (the policy module holds its store
    /// mutex across mutate + publish, so generation order matches
    /// mutation order).
    pub fn publish(&self, kind: StoreKind, regions: Vec<Region>) -> u64 {
        let gen = self.generation.load(Ordering::SeqCst) + 1;
        {
            let mut history = self.history.lock();
            history.push_back((gen, regions.clone()));
            while history.len() > SNAPSHOT_HISTORY_CAP {
                history.pop_front();
            }
        }
        let snap = Arc::new(PolicySnapshot::build(kind, regions, gen));
        // The replaced snapshot is dropped after the lock is released.
        let _old = std::mem::replace(&mut *self.current.lock(), snap);
        // Snapshot first, generation second: a pin or cached grant that
        // sees the new generation is guaranteed the new snapshot is
        // installed.
        self.generation.store(gen, Ordering::SeqCst);
        self.publishes.inc();
        gen
    }

    /// The regions the table held at `generation`, if still retained
    /// (last [`SNAPSHOT_HISTORY_CAP`] publishes). The validator's grant
    /// oracle: lets it recompute what an inlined bound *should* have been
    /// at the generation a promoted trace cites.
    pub fn regions_at(&self, generation: u64) -> Option<Vec<Region>> {
        self.history
            .lock()
            .iter()
            .find(|(g, _)| *g == generation)
            .map(|(_, regions)| regions.clone())
    }

    /// The live publish counter cell (for registry registration).
    pub fn publish_counter(&self) -> &Counter {
        &self.publishes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_core::Protection;

    fn r(base: u64, len: u64, prot: Protection) -> Region {
        Region::new(VAddr(base), Size(len), prot).unwrap()
    }

    #[test]
    fn empty_snapshot_matches_nothing() {
        let s = SnapshotStore::new(StoreKind::Table);
        assert_eq!(s.generation(), 1);
        assert_eq!(
            s.with_current(|snap| snap.lookup(VAddr(0x1000), Size(8), AccessFlags::READ)),
            Lookup::NoMatch
        );
    }

    #[test]
    fn publish_bumps_generation_and_swaps_table() {
        let s = SnapshotStore::new(StoreKind::Table);
        let g = s.publish(
            StoreKind::Table,
            vec![r(0x1000, 0x1000, Protection::READ_WRITE)],
        );
        assert_eq!(g, 2);
        assert_eq!(s.generation(), 2);
        assert_eq!(s.publish_counter().get(), 1);
        assert!(matches!(
            s.with_current(|snap| snap.lookup(VAddr(0x1800), Size(8), AccessFlags::RW)),
            Lookup::Permitted(_)
        ));
        let g = s.publish(StoreKind::Table, Vec::new());
        assert_eq!(g, 3);
        assert_eq!(
            s.with_current(|snap| snap.lookup(VAddr(0x1800), Size(8), AccessFlags::RW)),
            Lookup::NoMatch
        );
    }

    #[test]
    fn history_answers_recent_generations_and_forgets_old_ones() {
        let s = SnapshotStore::new(StoreKind::Table);
        assert_eq!(s.regions_at(1), Some(Vec::new()));
        let region = r(0x1000, 0x1000, Protection::READ_WRITE);
        let g = s.publish(StoreKind::Table, vec![region]);
        assert_eq!(s.regions_at(g), Some(vec![region]));
        assert_eq!(s.regions_at(g + 1), None, "future generation unknown");
        // Push the first generation out of the bounded window.
        for _ in 0..SNAPSHOT_HISTORY_CAP {
            s.publish(StoreKind::Table, vec![region]);
        }
        assert_eq!(s.regions_at(1), None, "evicted from bounded history");
        assert_eq!(s.regions_at(s.generation()), Some(vec![region]));
    }

    #[test]
    fn disjoint_fast_path_agrees_with_scan() {
        // Same region set built both ways must classify identically.
        let disjoint = vec![
            r(0x1000, 0x1000, Protection::READ_WRITE),
            r(0x3000, 0x1000, Protection::READ_ONLY),
            r(0x8000, 0x100, Protection::NONE),
        ];
        let snap = PolicySnapshot::build(StoreKind::Table, disjoint.clone(), 1);
        assert_eq!(snap.frozen_kind(), FrozenKind::Sorted);
        let probes = [
            (0x1800u64, 8u64, AccessFlags::RW),
            (0x3000, 8, AccessFlags::READ),
            (0x3000, 8, AccessFlags::WRITE),
            (0x8000, 4, AccessFlags::READ),
            (0x2000, 8, AccessFlags::READ),
            (0x3ff8, 16, AccessFlags::READ), // straddles region end
        ];
        for (a, s, f) in probes {
            let mut first = None;
            let mut want = Lookup::NoMatch;
            for reg in &disjoint {
                if reg.covers(VAddr(a), Size(s)) {
                    if reg.prot.allows(f) {
                        want = Lookup::Permitted(*reg);
                        break;
                    }
                    if first.is_none() {
                        first = Some(*reg);
                    }
                }
            }
            if matches!(want, Lookup::NoMatch) {
                if let Some(reg) = first {
                    want = Lookup::Forbidden(reg);
                }
            }
            assert_eq!(snap.lookup(VAddr(a), Size(s), f), want, "probe {a:#x}");
        }
    }

    #[test]
    fn overlapping_regions_use_any_grant_wins() {
        // A NONE rule shadowed by a later RW rule over the same bytes:
        // table semantics say any granting cover wins.
        let regions = vec![
            r(0x1000, 0x1000, Protection::NONE),
            r(0x1000, 0x1000, Protection::READ_WRITE),
        ];
        let snap = PolicySnapshot::build(StoreKind::Table, regions, 1);
        assert_eq!(
            snap.frozen_kind(),
            FrozenKind::Interval,
            "overlap selects the interval index"
        );
        assert!(matches!(
            snap.lookup(VAddr(0x1400), Size(8), AccessFlags::RW),
            Lookup::Permitted(_)
        ));
        // EXEC is granted by neither: Forbidden, reported on the first
        // covering region.
        assert!(matches!(
            snap.lookup(VAddr(0x1400), Size(8), AccessFlags::EXEC),
            Lookup::Forbidden(_)
        ));
    }
}
