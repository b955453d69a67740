//! The per-thread site cache — one cached grant per guard site, so the
//! steady-state datapath answers a guard with three tag loads and one
//! bound compare instead of a policy lookup.
//!
//! A guarded driver hits the same few call sites with addresses that land
//! in the same few policy regions, millions of times. [`SiteCache`] owns
//! its [`PolicyModule`] and keeps one slot per site id its [`SiteMap`] can
//! return. A slot holds the [`Bound`] of the region that granted the
//! site's last access, tagged with the `(namespace, generation,
//! revocation epoch)` it was granted under.
//!
//! * **Hit:** the slot's tags equal the policy's current ones *and*
//!   [`Bound::admits`] vouches for the access (shape, bounds,
//!   permission) — the same predicate the promoted bytecode's inline
//!   guards run.
//! * **Miss:** anything else goes to [`PolicyModule::check_classified`];
//!   a region grant refills the slot. A miss at a slot that held a bound
//!   is also a **deopt** (stale tags, or an access the bound cannot
//!   vouch for).
//!
//! Invalidation is a tag compare at use: any table write bumps the
//! generation ([`crate::snapshot::SnapshotStore`]), a re-bind changes the
//! namespace, a fleet revocation bumps the epoch — each retires every
//! slot of every cache at once, with no callback. Only **region grants**
//! are cached: denials must reach the policy module for stats, log and
//! enforcement, and default-action allows are not tied to any region
//! (flipping the default action does not bump the generation). A cached
//! region grant stays sound because any covering, granting region wins
//! regardless of the default action.
//!
//! Slots can also be filled ahead of traffic from profiled envelopes
//! ([`SiteCache::prefill`]), so a freshly promoted or restarted worker
//! starts on the hit path. A prefill charges no policy check.
//!
//! **Accounting** is batched: hits, misses and deopts accumulate in plain
//! cells, and [`SiteCache::flush`] — run by every accessor and on drop —
//! drains them into the shared counters and charges the hits to the
//! policy through [`PolicyModule::record_fast_permits`]. So `hits +
//! misses == guard calls`, and after a flush `policy.checks == guard
//! calls` whichever layer answered.
//!
//! The cache is intentionally **not** `Sync` (slots are `Cell`s): it
//! models a per-thread / per-simulated-CPU structure. Give each worker its
//! own instance and a distinct counter prefix.

use std::cell::Cell;
use std::sync::Arc;

use kop_core::{AccessFlags, Bound, Size, VAddr, Violation};
use kop_trace::{Counter, CounterRegistry};

use crate::module::PolicyModule;
use crate::store::Lookup;
use crate::PolicyCheck;

/// Maps guarded addresses to site ids — how a native (non-interpreted)
/// build recovers the per-site identity the compiler pass would have
/// assigned. Ranges are checked in insertion order; unmatched addresses
/// get the fallback site.
#[derive(Clone, Debug)]
pub struct SiteMap {
    /// `(start, end_exclusive, site)` triples.
    ranges: Vec<(u64, u64, u32)>,
    fallback: u32,
}

impl SiteMap {
    /// An empty map classifying everything as `fallback`.
    pub fn new(fallback: u32) -> SiteMap {
        SiteMap {
            ranges: Vec::new(),
            fallback,
        }
    }

    /// Add a `[start, end)` → `site` range (builder style).
    pub fn range(mut self, start: u64, end: u64, site: u32) -> SiteMap {
        self.ranges.push((start, end, site));
        self
    }

    /// Classify an address.
    #[inline]
    pub fn classify(&self, addr: u64) -> u32 {
        for &(start, end, site) in &self.ranges {
            if addr >= start && addr < end {
                return site;
            }
        }
        self.fallback
    }

    /// One more than the largest site id [`Self::classify`] can return.
    pub fn site_count(&self) -> usize {
        let max = self
            .ranges
            .iter()
            .map(|r| r.2)
            .fold(self.fallback, u32::max);
        max as usize + 1
    }
}

/// A profiled envelope to prefill: bake the region granting this site's
/// observed address range `[lo, hi)` for accesses with `flags` intent.
/// Envelopes come from the tracer's per-site profiles
/// (`SiteProfile::envelope`).
#[derive(Clone, Copy, Debug)]
pub struct HotSite {
    /// The guard site id (the [`SiteMap`] must classify the site's
    /// addresses to this id).
    pub site: u32,
    /// Lowest address the site was observed to touch.
    pub lo: u64,
    /// One past the highest byte the site was observed to touch.
    pub hi: u64,
    /// The access intent the site issues.
    pub flags: AccessFlags,
}

/// One site's cached grant. `gen == 0` means empty (store generations
/// start at 1, so an empty slot never matches).
#[derive(Clone, Copy)]
struct Slot {
    /// Namespace the policy was bound to when the grant was cached.
    ns: u64,
    /// Store generation the grant was observed under.
    gen: u64,
    /// Revocation epoch observed when the grant was cached.
    epoch: u64,
    bound: Bound,
}

const EMPTY: Slot = Slot {
    ns: 0,
    gen: 0,
    epoch: 0,
    bound: Bound {
        lo: 0,
        hi: 0,
        perm: 0,
    },
};

/// A per-thread [`PolicyCheck`] front: one cached grant per site over a
/// shared [`PolicyModule`].
pub struct SiteCache {
    policy: Arc<PolicyModule>,
    map: SiteMap,
    slots: Box<[Cell<Slot>]>,
    pending_hits: Cell<u64>,
    pending_misses: Cell<u64>,
    pending_deopts: Cell<u64>,
    hits: Counter,
    misses: Counter,
    deopts: Counter,
    prefilled: Counter,
}

impl SiteCache {
    /// An empty cache over `policy` with counters `"<prefix>.hits"`,
    /// `.misses`, `.deopts` and `.prefilled` — use distinct prefixes
    /// (e.g. `policy.tlb.q3`) when several caches register into one
    /// counter registry.
    pub fn new(policy: Arc<PolicyModule>, map: SiteMap, prefix: &str) -> SiteCache {
        SiteCache {
            slots: (0..map.site_count()).map(|_| Cell::new(EMPTY)).collect(),
            policy,
            map,
            pending_hits: Cell::new(0),
            pending_misses: Cell::new(0),
            pending_deopts: Cell::new(0),
            hits: Counter::new(format!("{prefix}.hits")),
            misses: Counter::new(format!("{prefix}.misses")),
            deopts: Counter::new(format!("{prefix}.deopts")),
            prefilled: Counter::new(format!("{prefix}.prefilled")),
        }
    }

    /// Fill slots ahead of traffic: for each envelope, look up the region
    /// that grants all of `[lo, hi)` in the *current* snapshot and cache
    /// its bound exactly as a miss refill would — without a policy check
    /// or a hit/miss (nothing was guarded). Envelopes no single region
    /// grants are skipped; those sites just miss as usual. Returns how
    /// many slots were filled.
    pub fn prefill(&self, sites: &[HotSite]) -> usize {
        // Tags read BEFORE the snapshot: a revoke or re-bind racing past
        // the fill leaves the slot already stale, never falsely fresh.
        let ns = self.policy.namespace();
        let epoch = self.policy.revocation_epoch();
        let snap = self.policy.policy_snapshot();
        let mut filled = 0;
        for s in sites {
            let Some(slot) = self.slots.get(s.site as usize) else {
                continue;
            };
            let len = s.hi.saturating_sub(s.lo);
            if len == 0 {
                continue;
            }
            if let Lookup::Permitted(region) = snap.lookup(VAddr(s.lo), Size(len), s.flags) {
                slot.set(Slot {
                    ns,
                    gen: snap.generation(),
                    epoch,
                    bound: Bound::of(&region),
                });
                filled += 1;
            }
        }
        self.prefilled.add(filled as u64);
        filled
    }

    /// Guard an access attributed to `site`. A site beyond the map's
    /// range has no slot and always takes the full check.
    #[inline]
    pub fn check_at(
        &self,
        site: u32,
        addr: VAddr,
        size: Size,
        flags: AccessFlags,
    ) -> Result<(), Violation> {
        let Some(slot) = self.slots.get(site as usize) else {
            bump(&self.pending_misses);
            return self.policy.check(addr, size, flags);
        };
        let s = slot.get();
        if s.gen == self.policy.store_generation()
            && s.ns == self.policy.namespace()
            && s.epoch == self.policy.revocation_epoch()
            && s.bound.admits(addr, size, flags)
        {
            bump(&self.pending_hits);
            return Ok(());
        }
        bump(&self.pending_misses);
        if s.gen != 0 {
            bump(&self.pending_deopts);
        }
        // Tags read BEFORE the classified check; the generation comes
        // from the snapshot that granted. A publish, revoke or re-bind
        // racing past the lookup leaves the refilled slot already stale
        // (a harmless re-miss), never falsely fresh.
        let ns = self.policy.namespace();
        let epoch = self.policy.revocation_epoch();
        let out = self.policy.check_classified(addr, size, flags);
        if let Some((region, gen)) = out.grant {
            slot.set(Slot {
                ns,
                gen,
                epoch,
                bound: Bound::of(&region),
            });
        }
        out.result
    }

    /// Drain the batched accounting into the shared counters, and charge
    /// the hits to the policy as permitted checks, so `policy.checks ==
    /// guard calls` holds for any observer from here on.
    pub fn flush(&self) {
        let h = self.pending_hits.replace(0);
        if h > 0 {
            self.hits.add(h);
            self.policy.record_fast_permits(h);
        }
        let m = self.pending_misses.replace(0);
        if m > 0 {
            self.misses.add(m);
        }
        let d = self.pending_deopts.replace(0);
        if d > 0 {
            self.deopts.add(d);
        }
    }

    /// Guards answered from a slot so far.
    pub fn hits(&self) -> u64 {
        self.flush();
        self.hits.get()
    }

    /// Guards that took the full check so far.
    pub fn misses(&self) -> u64 {
        self.flush();
        self.misses.get()
    }

    /// Misses at a slot that held a bound (stale tags, or an access the
    /// bound could not vouch for).
    pub fn deopts(&self) -> u64 {
        self.flush();
        self.deopts.get()
    }

    /// Register the hit/miss/deopt/prefill cells into a counter registry
    /// (the tracer's, so `/dev/trace counters` shows them after a flush).
    pub fn register_into(&self, registry: &CounterRegistry) {
        registry.register(&self.hits);
        registry.register(&self.misses);
        registry.register(&self.deopts);
        registry.register(&self.prefilled);
    }
}

#[inline]
fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

impl Drop for SiteCache {
    fn drop(&mut self) {
        self.flush();
    }
}

impl PolicyCheck for SiteCache {
    #[inline]
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation> {
        self.check_at(self.map.classify(addr.raw()), addr, size, flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DefaultAction;
    use kop_core::error::ViolationKind;
    use kop_core::{Protection, Region};

    fn pm_with_region(base: u64, len: u64) -> Arc<PolicyModule> {
        let pm = Arc::new(PolicyModule::new());
        pm.add_region(Region::new(VAddr(base), Size(len), Protection::READ_WRITE).unwrap())
            .unwrap();
        pm
    }

    fn cache(pm: &Arc<PolicyModule>) -> SiteCache {
        SiteCache::new(Arc::clone(pm), SiteMap::new(7), "test")
    }

    fn rw(c: &SiteCache, site: u32, addr: u64) -> Result<(), Violation> {
        c.check_at(site, VAddr(addr), Size(8), AccessFlags::RW)
    }

    #[test]
    fn steady_state_hits_and_every_guard_is_charged() {
        let pm = pm_with_region(0x1000, 0x1000);
        let c = cache(&pm);
        for _ in 0..100 {
            rw(&c, 3, 0x1800).unwrap();
        }
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 99);
        assert_eq!(c.deopts(), 0);
        // Flushed by the accessors: one check per guard call.
        let s = pm.stats();
        assert_eq!((s.checks, s.permitted), (100, 100));
    }

    #[test]
    fn malformed_accesses_never_hit() {
        let pm = pm_with_region(0x1000, 0x1000);
        let c = cache(&pm);
        rw(&c, 0, 0x1800).unwrap();
        for (size, flags) in [(8, AccessFlags::NONE), (0, AccessFlags::NONE)] {
            let v = c.check_at(0, VAddr(0x1800), Size(size), flags).unwrap_err();
            assert_eq!(v.kind, ViolationKind::MalformedAccess);
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.deopts(), 2);
    }

    #[test]
    fn table_write_invalidates_cached_grants() {
        let pm = pm_with_region(0x1000, 0x1000);
        let c = cache(&pm);
        rw(&c, 0, 0x1800).unwrap();
        pm.remove_region(VAddr(0x1000)).unwrap();
        // Stale generation: the check misses, consults the new table,
        // and denies.
        assert!(rw(&c, 0, 0x1800).is_err());
        assert_eq!((c.hits(), c.misses(), c.deopts()), (0, 2, 1));
    }

    #[test]
    fn denials_and_default_allows_are_never_cached() {
        let pm = Arc::new(PolicyModule::new());
        pm.set_default_action(DefaultAction::Allow);
        let c = cache(&pm);
        for _ in 0..5 {
            c.check_at(1, VAddr(0x9000), Size(8), AccessFlags::READ)
                .unwrap();
        }
        assert_eq!((c.hits(), c.misses()), (0, 5));
        // Flipping the default back is honoured at once.
        pm.set_default_action(DefaultAction::Deny);
        assert!(c
            .check_at(1, VAddr(0x9000), Size(8), AccessFlags::READ)
            .is_err());
    }

    #[test]
    fn cached_bound_is_revalidated_per_access() {
        let pm = pm_with_region(0x1000, 0x1000);
        let c = cache(&pm);
        rw(&c, 2, 0x1000).unwrap();
        // Outside the cached bound, then insufficient permission: both
        // reach the policy and deny.
        assert!(rw(&c, 2, 0x5000).is_err());
        assert!(c
            .check_at(2, VAddr(0x1000), Size(8), AccessFlags::EXEC)
            .is_err());
        assert_eq!((c.hits(), c.deopts()), (0, 2));
    }

    #[test]
    fn revocation_epoch_and_rebind_invalidate_without_generation_churn() {
        let pm = pm_with_region(0x1000, 0x1000);
        let c = cache(&pm);
        rw(&c, 0, 0x1800).unwrap();
        let gen = pm.store_generation();
        pm.bump_revocation();
        assert_eq!(pm.store_generation(), gen, "no publish happened");
        rw(&c, 0, 0x1800).unwrap();
        assert_eq!(c.misses(), 2);
        // The refill carries the new epoch, so it hits again.
        rw(&c, 0, 0x1800).unwrap();
        assert_eq!(c.hits(), 1);
        pm.set_namespace(42);
        rw(&c, 0, 0x1800).unwrap();
        assert_eq!(c.misses(), 3, "rebind forced a re-miss");
    }

    #[test]
    fn map_classifies_sites_and_out_of_range_sites_take_the_full_check() {
        let pm = pm_with_region(0x1000, 0x2000);
        let map = SiteMap::new(7)
            .range(0x1000, 0x2000, 0)
            .range(0x2000, 0x3000, 1);
        assert_eq!(map.site_count(), 8);
        let c = SiteCache::new(Arc::clone(&pm), map, "test");
        for addr in [0x1100, 0x2100, 0x1100] {
            c.carat_guard(VAddr(addr), Size(8), AccessFlags::READ)
                .unwrap();
        }
        assert_eq!((c.hits(), c.misses()), (1, 2), "one miss per site");
        rw(&c, 99, 0x1100).unwrap();
        rw(&c, 99, 0x1100).unwrap();
        assert_eq!((c.hits(), c.misses()), (1, 4));
    }

    #[test]
    fn prefill_starts_warm_without_a_policy_check() {
        let pm = pm_with_region(0x1000, 0x1000);
        let c = cache(&pm);
        let site = |site, lo, hi| HotSite {
            site,
            lo,
            hi,
            flags: AccessFlags::RW,
        };
        // The second envelope overruns the region; the third is empty.
        let n = c.prefill(&[
            site(3, 0x1000, 0x1100),
            site(4, 0x1000, 0x2100),
            site(5, 0x1800, 0x1800),
        ]);
        assert_eq!(n, 1);
        assert_eq!(pm.stats().checks, 0, "prefill charged no check");
        rw(&c, 3, 0x1800).unwrap();
        assert_eq!((c.hits(), c.misses()), (1, 0));
        assert_eq!(pm.stats().checks, 1);
        // A table write after prefill still invalidates the slot.
        pm.remove_region(VAddr(0x1000)).unwrap();
        assert!(rw(&c, 3, 0x1800).is_err());
        assert_eq!(c.deopts(), 1);
    }

    #[test]
    fn drop_flushes_pending_hits() {
        let pm = pm_with_region(0x1000, 0x1000);
        let c = cache(&pm);
        for _ in 0..10 {
            rw(&c, 0, 0x1800).unwrap();
        }
        assert_eq!(pm.stats().checks, 1, "hits still pending");
        drop(c);
        assert_eq!(pm.stats().checks, 10);
    }
}
