//! Property tests for the frozen snapshot-side index (DESIGN §3.19).
//!
//! Two families:
//!
//! 1. **Lookup parity** — [`FrozenStore`] (every index shape, including
//!    the fleet-scale interval tree) must agree *bit-for-bit* with the
//!    reference linear scan over the same region vector: same verdict
//!    class and the same witness region, including store-order
//!    tiebreaks among overlapping rules. Checked for arbitrary
//!    (overlapping) sets, for every authoritative store kind's
//!    snapshot, and at 5,000 regions.
//!
//! 2. **Insert-validation uniformity** — all 7 [`StoreKind`]s must
//!    classify duplicate-base, zero-size, and overflowing inserts
//!    identically, and end up with identical rule sets, for arbitrary
//!    insert sequences. A store that silently swallowed (or
//!    mis-ordered) a validation error would desynchronize the fleet's
//!    per-tenant stores from the reference.

use proptest::prelude::*;

use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
use kop_policy::store::{make_store, Lookup, PolicyError, StoreKind};
use kop_policy::FrozenStore;

/// The reference semantics, straight from the paper's flat table: the
/// first granting region in store order wins; otherwise the first
/// covering region forbids; otherwise no rule matches.
fn linear_scan(regions: &[Region], addr: VAddr, size: Size, flags: AccessFlags) -> Lookup {
    let mut covering = None;
    for r in regions {
        if r.covers(addr, size) {
            if r.prot.allows(flags) {
                return Lookup::Permitted(*r);
            }
            if covering.is_none() {
                covering = Some(*r);
            }
        }
    }
    match covering {
        Some(r) => Lookup::Forbidden(r),
        None => Lookup::NoMatch,
    }
}

fn prot_of(sel: u32) -> Protection {
    match sel {
        0 => Protection::READ_ONLY,
        1 => Protection::READ_WRITE,
        2 => Protection::ALL,
        _ => Protection::NONE,
    }
}

fn flags_of(sel: u32) -> AccessFlags {
    match sel {
        0 => AccessFlags::READ,
        1 => AccessFlags::WRITE,
        _ => AccessFlags::RW,
    }
}

/// Arbitrary — freely overlapping — region vectors.
fn arb_overlapping(max: usize) -> impl Strategy<Value = Vec<Region>> {
    proptest::collection::vec((0u64..0x4000, 1u64..0x1000, 0u32..4), 1..max).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(slot, len, p)| {
                Region::new(VAddr(0x10_0000 + slot * 0x10), Size(len), prot_of(p)).expect("fits")
            })
            .collect()
    })
}

fn arb_access() -> impl Strategy<Value = (VAddr, Size, AccessFlags)> {
    (0u64..0x5000, 1u64..96, 0u32..3)
        .prop_map(|(off, size, f)| (VAddr(0x10_0000 + off * 0x10), Size(size), flags_of(f)))
}

/// Disjoint regions on a grid (acceptable to every store kind).
fn arb_disjoint(max: usize) -> impl Strategy<Value = Vec<Region>> {
    proptest::collection::vec((0u64..200, 1u64..0x1000, 0u32..4), 1..max).prop_map(|specs| {
        let mut used = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for (slot, len, p) in specs {
            if !used.insert(slot) {
                continue;
            }
            out.push(
                Region::new(VAddr(0x10_0000 + slot * 0x1000), Size(len), prot_of(p)).expect("fits"),
            );
        }
        out
    })
}

/// One error class per validation outcome, so sequences compare across
/// store kinds without caring about error payload details.
fn classify_insert(r: Result<(), PolicyError>) -> &'static str {
    match r {
        Ok(()) => "ok",
        Err(PolicyError::DuplicateBase { .. }) => "duplicate-base",
        Err(PolicyError::ZeroLength) => "zero-length",
        Err(PolicyError::Overflow) => "overflow",
        Err(PolicyError::Overlap { .. }) => "overlap",
        Err(e) => panic!("unexpected insert error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Frozen indexes agree with the linear scan on overlapping sets —
    /// verdict AND witness region (the tiebreak among covering rules).
    #[test]
    fn frozen_matches_linear_scan_exactly(
        regions in arb_overlapping(256),
        accesses in proptest::collection::vec(arb_access(), 1..96),
    ) {
        let frozen = FrozenStore::build(regions.clone());
        let flat = FrozenStore::flat(regions.clone());
        for &(addr, size, flags) in &accesses {
            let expect = linear_scan(&regions, addr, size, flags);
            prop_assert_eq!(
                frozen.lookup_frozen(addr, size, flags), expect,
                "frozen index {} diverges at {:?}", frozen.kind().name(), addr
            );
            prop_assert_eq!(
                flat.lookup_frozen(addr, size, flags), expect,
                "flat baseline diverges at {:?}", addr
            );
        }
    }

    /// Every authoritative store's snapshot, frozen, still answers
    /// exactly like the store itself (and like the linear scan).
    #[test]
    fn frozen_snapshot_agrees_with_every_store_kind(
        regions in arb_disjoint(48),
        accesses in proptest::collection::vec(arb_access(), 1..48),
    ) {
        for kind in StoreKind::ALL {
            let mut store = make_store(kind);
            for r in &regions {
                store.insert(*r).expect("disjoint regions accepted");
            }
            let snap = store.snapshot();
            let frozen = FrozenStore::build(snap.clone());
            for &(addr, size, flags) in &accesses {
                let expect = linear_scan(&snap, addr, size, flags);
                prop_assert_eq!(
                    frozen.lookup_frozen(addr, size, flags), expect,
                    "frozen {} of {} snapshot diverges", frozen.kind().name(), kind
                );
                // The mutable store path must agree on the verdict class
                // (witness regions are identical for disjoint sets).
                prop_assert_eq!(
                    store.lookup(addr, size, flags), expect,
                    "store {} diverges from its own frozen snapshot", kind
                );
            }
        }
    }

    /// Duplicate-base, zero-size, and overflow inserts classify
    /// identically across all 7 store kinds, and the surviving rule
    /// sets are identical.
    #[test]
    fn insert_validation_uniform_across_all_kinds(
        specs in proptest::collection::vec((0u64..40, 0u64..0x1000, 0u32..4, 0u32..16), 1..48),
    ) {
        // Build the insert sequence: mostly valid disjoint grid slots,
        // with natural duplicate bases (shared slots), explicit
        // zero-size rules, and the occasional overflow.
        let inserts: Vec<Region> = specs
            .iter()
            .map(|&(slot, len, p, degenerate)| match degenerate {
                0 => Region {
                    base: VAddr(0x10_0000 + slot * 0x1000),
                    len: Size(0),
                    prot: prot_of(p),
                },
                1 => Region {
                    base: VAddr(u64::MAX - 0x10),
                    len: Size(0x100),
                    prot: prot_of(p),
                },
                _ => Region {
                    base: VAddr(0x10_0000 + slot * 0x1000),
                    len: Size(len.clamp(1, 0xfff)),
                    prot: prot_of(p),
                },
            })
            .collect();

        let mut reference: Option<(Vec<&'static str>, Vec<Region>)> = None;
        for kind in StoreKind::ALL {
            let mut store = make_store(kind);
            let outcomes: Vec<&'static str> = inserts
                .iter()
                .map(|r| classify_insert(store.insert(*r)))
                .collect();
            let mut snap = store.snapshot();
            snap.sort_by_key(|r| r.base);
            match &reference {
                None => reference = Some((outcomes, snap)),
                Some((ref_outcomes, ref_snap)) => {
                    prop_assert_eq!(
                        &outcomes, ref_outcomes,
                        "store {} classifies inserts differently", kind
                    );
                    prop_assert_eq!(
                        &snap, ref_snap,
                        "store {} retains different rules", kind
                    );
                }
            }
        }
    }
}

/// The fleet-scale end of the satellite: 5,000 regions through a
/// deterministic generator, thousands of probes, exact parity.
#[test]
fn frozen_agrees_with_linear_scan_at_5000_regions() {
    let mut state = 0x243f_6a88_85a3_08d3u64; // deterministic LCG
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut regions = Vec::with_capacity(5000);
    for _ in 0..5000 {
        let base = 0x10_0000 + (next() % 0x80_0000);
        let len = 1 + (next() % 0x800);
        let prot = prot_of((next() % 4) as u32);
        regions.push(Region::new(VAddr(base), Size(len), prot).unwrap());
    }
    let frozen = FrozenStore::build(regions.clone());
    let flat = FrozenStore::flat(regions.clone());
    assert_eq!(frozen.len(), 5000);
    for _ in 0..4000 {
        let addr = VAddr(0x10_0000 + (next() % 0x81_0000));
        let size = Size(1 + (next() % 64));
        let flags = flags_of((next() % 3) as u32);
        let expect = linear_scan(&regions, addr, size, flags);
        assert_eq!(frozen.lookup_frozen(addr, size, flags), expect);
        assert_eq!(flat.lookup_frozen(addr, size, flags), expect);
    }
}
