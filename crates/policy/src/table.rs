//! The paper's policy structure: a fixed 64-entry region table with linear
//! scan.
//!
//! §3.1: *"We use a table describing a maximum of 64 memory regions and
//! thus a permissions check has O(n) time complexity. A table was chosen in
//! order to minimize pointer chasing, lending speedup over other
//! implementations like the Linux kernel's red-black tree ... Each entry
//! stores a region's lower bound, length, and protection flags. When the
//! guard function is invoked, the policy module then simply walks the
//! region table and checks if the access should be permitted."*
//!
//! The table *does* support overlapping rules (unlike the tree structures);
//! an access is permitted if **any** rule covers it entirely and grants the
//! intent.

use kop_core::{AccessFlags, Region, Size, VAddr};

use crate::store::{validate_region, Lookup, PolicyError, RegionStore, StoreKind};

/// Maximum number of regions in the paper's table.
pub const MAX_REGIONS: usize = 64;

/// Fixed-capacity region table, scanned linearly.
///
/// Entries are stored in a flat array (no pointer chasing); the scan visits
/// entries in insertion order, which makes the *position* of the matching
/// rule the dominant cost — the Figure 5 experiment ("carat64") measures
/// exactly that.
#[derive(Clone, Debug)]
pub struct RegionTable {
    entries: [Option<Region>; MAX_REGIONS],
    len: usize,
    capacity: usize,
}

impl Default for RegionTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RegionTable {
    /// A table with the paper's capacity of 64.
    pub fn new() -> RegionTable {
        Self::with_capacity(MAX_REGIONS)
    }

    /// A table with reduced capacity (still backed by the fixed array; the
    /// capacity only limits how many rules may be inserted).
    pub fn with_capacity(capacity: usize) -> RegionTable {
        assert!(capacity <= MAX_REGIONS, "table capacity is at most 64");
        RegionTable {
            entries: [None; MAX_REGIONS],
            len: 0,
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterate over live entries in scan order.
    pub fn iter(&self) -> impl Iterator<Item = &Region> {
        self.entries.iter().take(self.len).flatten()
    }
}

impl RegionStore for RegionTable {
    fn kind(&self) -> StoreKind {
        StoreKind::Table
    }

    fn insert(&mut self, region: Region) -> Result<(), PolicyError> {
        validate_region(&region)?;
        // Bases key removal, so duplicates are rejected uniformly across
        // all stores (overlap *acceptance* still differs by structure).
        if let Some(existing) = self.iter().find(|r| r.base == region.base) {
            return Err(PolicyError::DuplicateBase {
                existing: *existing,
            });
        }
        if self.len >= self.capacity {
            return Err(PolicyError::TableFull {
                capacity: self.capacity,
            });
        }
        // Compact invariant: entries[0..len] are Some, rest None.
        self.entries[self.len] = Some(region);
        self.len += 1;
        Ok(())
    }

    fn remove(&mut self, base: VAddr) -> Result<Region, PolicyError> {
        let idx = (0..self.len)
            .find(|&i| self.entries[i].map(|r| r.base) == Some(base))
            .ok_or(PolicyError::NoSuchRegion { base })?;
        let removed = self.entries[idx].take().expect("live entry");
        // Keep the prefix compact: shift the tail left (the kernel table
        // does the same; removal is rare and off the fast path).
        for i in idx..self.len - 1 {
            self.entries[i] = self.entries[i + 1];
        }
        self.entries[self.len - 1] = None;
        self.len -= 1;
        Ok(removed)
    }

    fn clear(&mut self) {
        self.entries = [None; MAX_REGIONS];
        self.len = 0;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn snapshot(&self) -> Vec<Region> {
        self.iter().copied().collect()
    }

    #[inline]
    fn lookup(&mut self, addr: VAddr, size: Size, flags: AccessFlags) -> Lookup {
        // The fast path the paper measures: a forward scan over a compact
        // array, one branch per entry in the common (covered + permitted)
        // case.
        let mut covering: Option<Region> = None;
        for i in 0..self.len {
            // Safety of unwrap: compact invariant.
            let r = self.entries[i].expect("compact prefix");
            if r.covers(addr, size) {
                if r.prot.allows(flags) {
                    return Lookup::Permitted(r);
                }
                covering.get_or_insert(r);
            }
        }
        match covering {
            Some(r) => Lookup::Forbidden(r),
            None => Lookup::NoMatch,
        }
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
    fn insert_and_lookup() {
        let mut t = RegionTable::new();
        t.insert(r(0x1000, 0x1000, Protection::READ_WRITE)).unwrap();
        assert_eq!(t.len(), 1);
        assert!(matches!(
            t.lookup(VAddr(0x1800), Size(8), AccessFlags::RW),
            Lookup::Permitted(_)
        ));
        assert!(matches!(
            t.lookup(VAddr(0x2000), Size(8), AccessFlags::READ),
            Lookup::NoMatch
        ));
    }

    #[test]
    fn forbidden_when_covered_but_not_granted() {
        let mut t = RegionTable::new();
        t.insert(r(0x1000, 0x1000, Protection::READ_ONLY)).unwrap();
        assert!(matches!(
            t.lookup(VAddr(0x1000), Size(8), AccessFlags::WRITE),
            Lookup::Forbidden(_)
        ));
        assert!(matches!(
            t.lookup(VAddr(0x1000), Size(8), AccessFlags::READ),
            Lookup::Permitted(_)
        ));
    }

    #[test]
    fn overlapping_rules_any_grant_wins() {
        // A read-only blanket rule plus a small read-write window inside it.
        let mut t = RegionTable::new();
        t.insert(r(0x1000, 0x10000, Protection::READ_ONLY)).unwrap();
        t.insert(r(0x4000, 0x1000, Protection::READ_WRITE)).unwrap();
        assert!(matches!(
            t.lookup(VAddr(0x4800), Size(8), AccessFlags::WRITE),
            Lookup::Permitted(_)
        ));
        assert!(matches!(
            t.lookup(VAddr(0x2000), Size(8), AccessFlags::WRITE),
            Lookup::Forbidden(_)
        ));
    }

    #[test]
    fn access_straddling_region_end_denied() {
        let mut t = RegionTable::new();
        t.insert(r(0x1000, 0x100, Protection::ALL)).unwrap();
        // Last byte in range: ok.
        assert!(matches!(
            t.lookup(VAddr(0x10f8), Size(8), AccessFlags::READ),
            Lookup::Permitted(_)
        ));
        // One byte past: straddles out.
        assert!(matches!(
            t.lookup(VAddr(0x10f9), Size(8), AccessFlags::READ),
            Lookup::NoMatch
        ));
    }

    #[test]
    fn access_straddling_two_adjacent_regions_denied() {
        // Adjacent rules do not merge: an access must be covered by a
        // single rule. (Documented behaviour; a firewall would write one
        // rule for the union.)
        let mut t = RegionTable::new();
        t.insert(r(0x1000, 0x100, Protection::ALL)).unwrap();
        t.insert(r(0x1100, 0x100, Protection::ALL)).unwrap();
        assert!(matches!(
            t.lookup(VAddr(0x10fc), Size(8), AccessFlags::READ),
            Lookup::NoMatch
        ));
    }

    #[test]
    fn capacity_enforced_at_64() {
        let mut t = RegionTable::new();
        for i in 0..MAX_REGIONS as u64 {
            t.insert(r(i * 0x1000, 0x800, Protection::ALL)).unwrap();
        }
        let err = t.insert(r(0x100_0000, 0x800, Protection::ALL)).unwrap_err();
        assert_eq!(err, PolicyError::TableFull { capacity: 64 });
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn remove_compacts_and_preserves_order() {
        let mut t = RegionTable::new();
        t.insert(r(0x1000, 0x100, Protection::ALL)).unwrap();
        t.insert(r(0x2000, 0x100, Protection::ALL)).unwrap();
        t.insert(r(0x3000, 0x100, Protection::ALL)).unwrap();
        let removed = t.remove(VAddr(0x2000)).unwrap();
        assert_eq!(removed.base, VAddr(0x2000));
        assert_eq!(t.len(), 2);
        let snap = t.snapshot();
        assert_eq!(snap[0].base, VAddr(0x1000));
        assert_eq!(snap[1].base, VAddr(0x3000));
        assert_eq!(
            t.remove(VAddr(0x2000)).unwrap_err(),
            PolicyError::NoSuchRegion {
                base: VAddr(0x2000)
            }
        );
    }

    #[test]
    fn clear_empties() {
        let mut t = RegionTable::new();
        t.insert(r(0, 0x100, Protection::ALL)).unwrap();
        t.clear();
        assert!(t.is_empty());
        assert!(matches!(
            t.lookup(VAddr(0), Size(1), AccessFlags::READ),
            Lookup::NoMatch
        ));
    }

    #[test]
    fn scan_order_is_insertion_order() {
        // Both rules cover the address; the permitted one is found even
        // though the forbidden one is first (scan continues past
        // insufficient rules). Distinct bases: duplicate bases are
        // rejected uniformly across stores.
        let mut t = RegionTable::new();
        t.insert(r(0x0800, 0x2000, Protection::NONE)).unwrap();
        t.insert(r(0x1000, 0x1000, Protection::ALL)).unwrap();
        assert!(matches!(
            t.lookup(VAddr(0x1500), Size(4), AccessFlags::RW),
            Lookup::Permitted(_)
        ));
    }

    #[test]
    fn duplicate_base_rejected() {
        let mut t = RegionTable::new();
        t.insert(r(0x1000, 0x1000, Protection::NONE)).unwrap();
        let err = t.insert(r(0x1000, 0x2000, Protection::ALL)).unwrap_err();
        assert!(
            matches!(err, PolicyError::DuplicateBase { existing } if existing.base == VAddr(0x1000))
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reduced_capacity_table() {
        let mut t = RegionTable::with_capacity(2);
        t.insert(r(0x1000, 0x100, Protection::ALL)).unwrap();
        t.insert(r(0x2000, 0x100, Protection::ALL)).unwrap();
        assert_eq!(
            t.insert(r(0x3000, 0x100, Protection::ALL)).unwrap_err(),
            PolicyError::TableFull { capacity: 2 }
        );
    }
}
