//! # kop-policy — the CARAT KOP policy module
//!
//! The paper's policy module (§3.1) exports a single symbol,
//! `carat_guard(void* addr, size_t size, int access_flags)`, backed by a
//! 64-entry table of memory regions that a root user configures through
//! `ioctl /dev/carat` — "what amount to firewall rules".
//!
//! This crate implements:
//!
//! * [`store::RegionStore`] — the interface every policy data structure
//!   implements,
//! * [`table::RegionTable`] — the paper's structure: a fixed 64-entry array
//!   searched linearly (O(n), cache-friendly, supports overlapping rules),
//! * the alternatives the paper sketches for future work (§3.1, §4.2):
//!   [`sorted::SortedRegionTable`] (binary search),
//!   [`splay::SplayRegionTree`] (popularity-adaptive),
//!   [`interval::IntervalTree`] (the "Linux rbtree" comparator),
//!   [`bloom::BloomFrontTable`] and [`cuckoo::CuckooFrontTable`] (AMQ
//!   filter fronts — Bloom and deletable cuckoo, both cited in §3.1), and
//!   [`cache::CachedTable`] (last-hit cache, CARAT CAKE style),
//! * [`module::PolicyModule`] — the loadable policy module itself: a
//!   store + default action + violation action + statistics, exposing the
//!   `carat_guard` entry point,
//! * [`manager::PolicyCmd`] — the binary ioctl protocol spoken by the
//!   `policy-manager` user-space tool,
//! * the SMP guard path (DESIGN §3.13): [`snapshot::SnapshotStore`]
//!   (RCU-style published tables, read through a per-thread pin
//!   revalidated by the store generation — the one check path),
//!   [`site::SiteCache`] (a per-thread front owning its policy, one cached
//!   grant per guard site, invalidated by a tag compare at use and
//!   admitted by the shared [`kop_core::Bound::admits`] test), and
//!   [`vlog::ViolationLog`] (bounded violation ring with a dropped
//!   counter, formatting deferred to read time).

#![warn(missing_docs)]

pub mod bloom;
pub mod cache;
pub mod cuckoo;
pub mod frozen;
pub mod interval;
pub mod intrinsics;
pub mod manager;
pub mod module;
pub mod namespace;
pub mod site;
pub mod snapshot;
pub mod sorted;
pub mod splay;
pub mod stats;
pub mod store;
pub mod table;
pub mod vlog;

pub use frozen::{FrozenKind, FrozenStore};
pub use intrinsics::IntrinsicPolicy;
pub use manager::{PolicyCmd, PolicyCmdError, PolicyResponse};
pub use module::{
    ClassifiedCheck, DatapathGeometry, DefaultAction, GuardOutcome, PolicyModule, ViolationAction,
};
pub use namespace::{NamespaceStore, GLOBAL_NAMESPACE, NAMESPACE_SHARDS};
pub use site::{HotSite, SiteCache, SiteMap};
pub use snapshot::{PolicySnapshot, SnapshotStore, SNAPSHOT_HISTORY_CAP};
pub use stats::GuardStats;
pub use store::{PolicyError, RegionStore, StoreKind};
pub use table::{RegionTable, MAX_REGIONS};
pub use vlog::ViolationLog;

use kop_core::{AccessFlags, Size, VAddr, Violation};

/// The guard check interface — what a protected module calls before every
/// memory access. Implemented by [`module::PolicyModule`] and by the
/// zero-cost [`NoopPolicy`] used for baseline measurements.
pub trait PolicyCheck {
    /// Check an access; `Ok(())` means permitted.
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation>;
}

/// A policy that allows everything — the baseline configuration in which
/// the guard call itself is compiled away (monomorphized to nothing).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopPolicy;

impl PolicyCheck for NoopPolicy {
    #[inline(always)]
    fn carat_guard(&self, _: VAddr, _: Size, _: AccessFlags) -> Result<(), Violation> {
        Ok(())
    }
}
