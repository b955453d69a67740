//! Concurrency torture tests for the SMP guard path: N readers hammer
//! `check` while a writer grants/revokes — no torn tables, no stale
//! admits after a revoke returns, generations monotonic, per-thread
//! snapshot pins never answer for the wrong policy or a revoked
//! generation, and the check agrees with the store kind's own lookup on
//! every input.
//!
//! The stale-admit detector uses an odd/even state counter to rule out
//! TOCTOU false positives: the writer stores `2k` (even) *before* it
//! starts a grant and `2k+1` (odd) only *after* the matching revoke has
//! returned. A reader samples the counter before (`s1`) and after (`s2`)
//! its check; `s1 == s2 && odd` proves — in the `SeqCst` total order —
//! that the whole check ran inside a window where the revoke had
//! completed and no new grant had begun, so an allowed access in that
//! window is a genuine stale admit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use kop_core::error::ViolationKind;
use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
use kop_policy::store::{make_store, Lookup};
use kop_policy::{PolicyModule, SiteCache, SiteMap, StoreKind};

use proptest::prelude::*;

fn region(base: u64, len: u64, prot: Protection) -> Region {
    Region::new(VAddr(base), Size(len), prot).unwrap()
}

/// Run `readers` concurrent reader bodies against a grant/revoke storm.
/// `reader` receives (policy, state counter, stop flag) and returns the
/// number of stale admits it observed.
fn storm<F>(churns: u64, readers: usize, reader: F) -> u64
where
    F: Fn(&Arc<PolicyModule>, &AtomicU64, &AtomicBool) -> u64 + Sync,
{
    let pm = Arc::new(PolicyModule::new()); // default deny
    let state = AtomicU64::new(1); // odd: nothing granted yet
    let stop = AtomicBool::new(false);
    let r = region(0x1000, 0x1000, Protection::READ_WRITE);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|_| s.spawn(|| reader(&pm, &state, &stop)))
            .collect();
        for k in 0..churns {
            state.store(2 * k + 2, Ordering::SeqCst); // grant may begin
            pm.add_region(r).unwrap();
            pm.remove_region(r.base).unwrap();
            state.store(2 * k + 3, Ordering::SeqCst); // revoke settled
        }
        stop.store(true, Ordering::SeqCst);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

#[test]
fn revoke_storm_never_admits_stale_access_on_snapshot_path() {
    let stale = storm(2_000, 4, |pm, state, stop| {
        let mut stale = 0u64;
        while !stop.load(Ordering::SeqCst) {
            let s1 = state.load(Ordering::SeqCst);
            let allowed = pm.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_ok();
            let s2 = state.load(Ordering::SeqCst);
            if allowed && s1 == s2 && s1 % 2 == 1 {
                stale += 1;
            }
        }
        stale
    });
    assert_eq!(stale, 0, "snapshot path admitted after revoke returned");
}

#[test]
fn revoke_storm_never_admits_stale_access_through_site_cache() {
    let stale = storm(2_000, 4, |pm, state, stop| {
        // Each reader owns its cache — the per-thread structure under test.
        let cache = SiteCache::new(Arc::clone(pm), SiteMap::new(0), "torture.site");
        let mut stale = 0u64;
        while !stop.load(Ordering::SeqCst) {
            let s1 = state.load(Ordering::SeqCst);
            let allowed = cache
                .check_at(0, VAddr(0x1800), Size(8), AccessFlags::RW)
                .is_ok();
            let s2 = state.load(Ordering::SeqCst);
            if allowed && s1 == s2 && s1 % 2 == 1 {
                stale += 1;
            }
        }
        stale
    });
    assert_eq!(stale, 0, "site cache admitted after revoke returned");
}

#[test]
fn generations_are_monotonic_under_churn() {
    let pm = PolicyModule::new();
    let stop = AtomicBool::new(false);
    let r = region(0x1000, 0x1000, Protection::READ_WRITE);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut last = 0u64;
                    let mut observed = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let g = pm.store_generation();
                        assert!(g >= last, "generation went backwards: {last} -> {g}");
                        if g != last {
                            observed += 1;
                        }
                        last = g;
                    }
                    observed
                })
            })
            .collect();
        for _ in 0..2_000 {
            pm.add_region(r).unwrap();
            pm.remove_region(r.base).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        for h in readers {
            h.join().unwrap();
        }
    });
    // 2 publishes per churn, +1 initial generation.
    assert_eq!(pm.store_generation(), 1 + 2 * 2_000);
}

#[test]
fn replace_regions_is_atomic_no_torn_rulesets() {
    // Two disjoint rule sets; readers must only ever observe exactly one
    // of them, never a mixture.
    let set_a = vec![
        region(0x1000, 0x1000, Protection::READ_WRITE),
        region(0x3000, 0x1000, Protection::READ_ONLY),
    ];
    let set_b = vec![
        region(0x10_000, 0x1000, Protection::READ_WRITE),
        region(0x30_000, 0x1000, Protection::READ_ONLY),
        region(0x50_000, 0x1000, Protection::NONE),
    ];
    let key = |rs: &[Region]| -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = rs.iter().map(|r| (r.base.raw(), r.len.raw())).collect();
        v.sort_unstable();
        v
    };
    let key_a = key(&set_a);
    let key_b = key(&set_b);

    let pm = PolicyModule::new();
    pm.replace_regions(set_a.iter().copied()).unwrap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut seen_a = false;
                    let mut seen_b = false;
                    while !stop.load(Ordering::SeqCst) {
                        let snap = pm.policy_snapshot();
                        let k = key(snap.regions());
                        if k == key_a {
                            seen_a = true;
                        } else if k == key_b {
                            seen_b = true;
                        } else {
                            panic!("torn ruleset observed: {k:?}");
                        }
                    }
                    (seen_a, seen_b)
                })
            })
            .collect();
        for i in 0..2_000 {
            let set = if i % 2 == 0 { &set_b } else { &set_a };
            pm.replace_regions(set.iter().copied()).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        for h in readers {
            h.join().unwrap();
        }
    });
}

#[test]
fn concurrent_stats_reconcile_exactly() {
    // Fixed policy, hammering readers: the relaxed counters must not
    // lose updates.
    let pm = Arc::new(PolicyModule::new());
    pm.add_region(region(0x1000, 0x1000, Protection::READ_WRITE))
        .unwrap();
    let per_thread = 10_000u64;
    std::thread::scope(|s| {
        for t in 0..4 {
            let pm = Arc::clone(&pm);
            s.spawn(move || {
                for i in 0..per_thread {
                    // Half permitted, half denied.
                    let addr = if (i + t) % 2 == 0 { 0x1800 } else { 0x9000 };
                    let _ = pm.check(VAddr(addr), Size(8), AccessFlags::RW);
                }
            });
        }
    });
    let s = pm.stats();
    assert_eq!(s.checks, 4 * per_thread);
    assert_eq!(s.permitted + s.denied_no_match, 4 * per_thread);
}

// ---------------------------------------------------------------------
// Per-thread snapshot pins.
// ---------------------------------------------------------------------

#[test]
fn alternating_policies_on_one_thread_answer_from_their_own_rules() {
    // One thread, one pin slot, two stores: every check re-pins, and
    // each answer must come from the policy that was asked.
    let a = PolicyModule::new();
    a.add_region(region(0x1000, 0x1000, Protection::READ_WRITE))
        .unwrap();
    let b = PolicyModule::new();
    b.add_region(region(0x8000, 0x1000, Protection::READ_ONLY))
        .unwrap();
    assert_eq!(a.store_generation(), b.store_generation());
    for _ in 0..100 {
        assert!(a.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_ok());
        assert_eq!(
            b.check(VAddr(0x1800), Size(8), AccessFlags::RW)
                .unwrap_err()
                .kind,
            ViolationKind::NoMatchingRegion
        );
        assert!(b.check(VAddr(0x8800), Size(8), AccessFlags::READ).is_ok());
        assert_eq!(
            a.check(VAddr(0x8800), Size(8), AccessFlags::READ)
                .unwrap_err()
                .kind,
            ViolationKind::NoMatchingRegion
        );
    }
}

#[test]
fn pin_of_a_dropped_policy_never_answers_for_its_successor() {
    // Both policies go through the same generation history (1 -> 2), and
    // the allocator is free to place the second at the first one's
    // address: only the never-reused store id tells the pins apart.
    for _ in 0..32 {
        let old = Box::new(PolicyModule::new());
        old.add_region(region(0x1000, 0x1000, Protection::READ_WRITE))
            .unwrap();
        assert!(old.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_ok());
        let old_gen = old.store_generation();
        drop(old);

        let new = Box::new(PolicyModule::new());
        new.add_region(region(0x8000, 0x1000, Protection::READ_WRITE))
            .unwrap();
        assert_eq!(new.store_generation(), old_gen);
        assert_eq!(
            new.check(VAddr(0x1800), Size(8), AccessFlags::RW)
                .unwrap_err()
                .kind,
            ViolationKind::NoMatchingRegion,
            "answered from the dropped policy's pinned rules"
        );
        assert!(new.check(VAddr(0x8800), Size(8), AccessFlags::RW).is_ok());
    }
}

#[test]
fn revoke_on_another_thread_retires_this_threads_pin() {
    let pm = PolicyModule::new();
    let grant = region(0x1000, 0x1000, Protection::READ_WRITE);
    pm.add_region(grant).unwrap();
    let pinned = Barrier::new(2);
    let revoked = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            // Thread A: pin the granting generation.
            assert!(pm.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_ok());
            pinned.wait();
            revoked.wait();
            // The revoke has returned: the pin is stale and must not
            // answer.
            assert_eq!(
                pm.check(VAddr(0x1800), Size(8), AccessFlags::RW)
                    .unwrap_err()
                    .kind,
                ViolationKind::NoMatchingRegion
            );
        });
        s.spawn(|| {
            // Thread B: revoke while A holds its pin.
            pinned.wait();
            pm.remove_region(grant.base).unwrap();
            revoked.wait();
        });
    });
}

// ---------------------------------------------------------------------
// Property tests: the check agrees with the store kind's own lookup.
// ---------------------------------------------------------------------

/// What a default-deny `check` must answer for a store lookup.
fn expected(lookup: Lookup) -> Result<(), ViolationKind> {
    match lookup {
        Lookup::Permitted(_) => Ok(()),
        Lookup::Forbidden(_) => Err(ViolationKind::InsufficientPermissions),
        Lookup::NoMatch => Err(ViolationKind::NoMatchingRegion),
    }
}

fn arb_prot() -> impl Strategy<Value = Protection> {
    prop_oneof![
        Just(Protection::NONE),
        Just(Protection::READ_ONLY),
        Just(Protection::READ_WRITE),
        Just(Protection::ALL),
    ]
}

fn arb_region() -> impl Strategy<Value = Region> {
    // Bases on a coarse grid so regions overlap often.
    (0u64..32, 1u64..5, arb_prot())
        .prop_map(|(slot, pages, prot)| region(0x1000 * slot, 0x1000 * pages, prot))
}

fn arb_flags() -> impl Strategy<Value = AccessFlags> {
    prop_oneof![
        Just(AccessFlags::READ),
        Just(AccessFlags::WRITE),
        Just(AccessFlags::RW),
        Just(AccessFlags::EXEC),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn check_agrees_with_store_reference(
        regions in proptest::collection::vec(arb_region(), 0..10),
        probes in proptest::collection::vec(
            (0u64..0x40_000, prop_oneof![Just(1u64), Just(2), Just(4), Just(8)], arb_flags()),
            1..20,
        ),
    ) {
        for kind in [StoreKind::Table, StoreKind::Sorted, StoreKind::Interval] {
            let pm = PolicyModule::with_kind(kind);
            let mut reference = make_store(kind);
            for r in &regions {
                // Some stores reject duplicate bases — the policy and its
                // reference must reject the same rules.
                prop_assert_eq!(pm.add_region(*r).is_ok(), reference.insert(*r).is_ok());
            }
            for &(addr, size, flags) in &probes {
                let got = pm.check(VAddr(addr), Size(size), flags).map_err(|v| v.kind);
                let want = expected(reference.lookup(VAddr(addr), Size(size), flags));
                prop_assert_eq!(got, want, "check diverged from {:?} at {:#x}", kind, addr);
            }
        }
    }

    #[test]
    fn site_cache_agrees_with_full_check(
        regions in proptest::collection::vec(arb_region(), 0..10),
        steps in proptest::collection::vec(arb_step(), 1..60),
    ) {
        // Two identical policies: one behind the cache, one checked
        // directly. Every publish and revocation is applied to both.
        let pm = Arc::new(PolicyModule::new());
        let reference = PolicyModule::new();
        for r in &regions {
            prop_assert_eq!(pm.add_region(*r).is_ok(), reference.add_region(*r).is_ok());
        }
        let cache = SiteCache::new(Arc::clone(&pm), SiteMap::new(7), "prop.site");
        let mut probes = 0u64;
        for step in &steps {
            match *step {
                Step::Add(r) => {
                    prop_assert_eq!(pm.add_region(r).is_ok(), reference.add_region(r).is_ok());
                }
                Step::Remove(pick) => {
                    // Revoke one of the live rules, so cached grants
                    // really go stale.
                    let live = reference.regions();
                    if let Some(r) = live.get(pick % live.len().max(1)) {
                        pm.remove_region(r.base).unwrap();
                        reference.remove_region(r.base).unwrap();
                    }
                }
                Step::Revoke => {
                    pm.bump_revocation();
                    reference.bump_revocation();
                }
                Step::Probe(site, addr, size, flags) => {
                    probes += 1;
                    let cached = cache
                        .check_at(site, VAddr(addr), Size(size), flags)
                        .map_err(|v| v.kind);
                    let direct = reference
                        .check(VAddr(addr), Size(size), flags)
                        .map_err(|v| v.kind);
                    prop_assert_eq!(cached, direct, "cache diverged at {:#x}+{} {:?}", addr, size, flags);
                    prop_assert_eq!(cache.hits() + cache.misses(), probes);
                    // The accessors flushed: every guard is one check.
                    prop_assert_eq!(pm.stats().checks, probes);
                }
            }
        }
    }
}

/// One step of the cache-vs-full-check property: a guarded probe at a
/// site, or a publish / revocation applied to both policies.
#[derive(Clone, Copy, Debug)]
enum Step {
    Probe(u32, u64, u64, AccessFlags),
    Add(Region),
    /// Remove the live rule at this index (modulo the rule count).
    Remove(usize),
    Revoke,
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Each site probes its own two pages of the region grid, so repeat
    // probes at a site often land in the slot's cached bound; one probe
    // in four goes within 16 bytes of the top of the address space.
    let site_addr = (0u32..8, 0u64..2, 0u64..0x1000, 0u32..4, 0u64..17).prop_map(
        |(site, page, off, pick, top)| {
            let addr = match pick {
                0 => u64::MAX - top,
                _ => 0x1000 * (4 * u64::from(site) + page) + off,
            };
            (site, addr)
        },
    );
    let size = prop_oneof![Just(0u64), Just(1), Just(2), Just(4), Just(8)];
    let flags = prop_oneof![arb_flags(), Just(AccessFlags::NONE)];
    let top = prop_oneof![Just(0x10u64), Just(0x1000)]
        .prop_map(|len| region(u64::MAX - len + 1, len, Protection::ALL));
    let add = prop_oneof![arb_region(), top];
    let remove = 0usize..16;
    // 12 : 2 : 2 : 1 probes to adds, removes and revocations.
    ((0u32..17, site_addr, size, flags), (add, remove)).prop_map(
        |((pick, (site, addr), size, flags), (add, remove))| match pick {
            0..=11 => Step::Probe(site, addr, size, flags),
            12..=13 => Step::Add(add),
            14..=15 => Step::Remove(remove),
            _ => Step::Revoke,
        },
    )
}

#[test]
fn malformed_access_kinds_survive_concurrency() {
    // The precheck path (malformed/overflow) is lock-free and classifies
    // before any snapshot is read.
    let pm = PolicyModule::new();
    // Size-0 with intent flags is the vacuous range-guard case —
    // allowed. Only the flag-less shape is malformed.
    assert!(pm.check(VAddr(0x1000), Size(0), AccessFlags::READ).is_ok());
    let v = pm
        .check(VAddr(0x1000), Size(0), AccessFlags::NONE)
        .unwrap_err();
    assert_eq!(v.kind, ViolationKind::MalformedAccess);
    let v = pm
        .check(VAddr(u64::MAX), Size(8), AccessFlags::READ)
        .unwrap_err();
    assert_eq!(v.kind, ViolationKind::AddressOverflow);
}
