//! End-to-end SMP guard path: a site-cache-fronted guarded driver
//! transmits while every counter — guard stats, cache hits/misses, snapshot
//! publishes, dropped log entries — flows into the tracer's unified
//! registry and out through the `/dev/trace` control protocol, and the
//! books balance exactly.

use std::sync::Arc;

use kop_e1000e::device::CountSink;
use kop_e1000e::{driver_site_map, DirectMem, E1000Device, E1000Driver, GuardedMem, MemSpace};
use kop_policy::{PolicyModule, SiteCache};
use kop_trace::{control, Tracer};

#[test]
fn tlb_counters_flow_through_dev_trace_and_reconcile() {
    let pm = Arc::new(PolicyModule::two_region_paper_policy());
    let tracer = Tracer::new();
    // All policy counters (guard stats + snapshot publishes + dropped
    // log entries) into the tracer's registry, as the kernel does at
    // boot; the site cache adds its hit/miss cells.
    pm.register_counters(tracer.counters());
    let inner = DirectMem::with_defaults(E1000Device::default());
    let map = driver_site_map(inner.arena_base(), inner.mmio_base());
    let cache = SiteCache::new(Arc::clone(&pm), map, "policy.tlb");
    cache.register_into(tracer.counters());
    let mem = GuardedMem::with_tracer(inner, cache, Arc::clone(&tracer));

    let mut drv = E1000Driver::probe(mem).expect("probe");
    drv.up().expect("up");
    let mut sink = CountSink::default();
    let payload = [0u8; 114];
    for _ in 0..200 {
        drv.xmit_and_flush([0xffu8; 6], 0x88b5, &payload, &mut sink)
            .expect("xmit");
    }
    let guard_calls = drv.counts().guard_calls;
    assert!(guard_calls > 0);

    // A policy mutation mid-run: bumps the publish counter and stales
    // every cached slot via generation bump; traffic keeps flowing
    // afterwards.
    pm.add_region(
        kop_core::Region::new(
            kop_core::VAddr(0x1000),
            kop_core::Size(0x1000),
            kop_core::Protection::READ_ONLY,
        )
        .unwrap(),
    )
    .unwrap();
    for _ in 0..50 {
        drv.xmit_and_flush([0xffu8; 6], 0x88b5, &payload, &mut sink)
            .expect("xmit after publish");
    }
    let guard_calls = drv.counts().guard_calls;
    // Drain the cache's batched accounting into the shared cells.
    drv.mem_ref().policy().flush();

    // Read everything back through the /dev/trace control protocol.
    let text = control::handle(&tracer, "counters").expect("counters view");
    let value = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("{name} missing from counters view:\n{text}"))
            .trim()
            .parse()
            .expect("counter value")
    };

    let hits = value("policy.tlb.hits");
    let misses = value("policy.tlb.misses");
    let publishes = value("policy.snapshot_publishes");
    let dropped = value("policy.log_dropped");

    // Exact reconciliation: every guard the driver issued was either a
    // cache hit or a cache miss — nothing lost, nothing double-counted.
    assert_eq!(hits + misses, guard_calls);
    assert!(hits > misses, "steady-state TX must be hit-dominated");
    // The mid-run mutation published exactly once (two_region_paper_policy
    // itself published twice while being built).
    assert_eq!(publishes, 3);
    assert_eq!(dropped, 0, "no denials, so nothing can have been dropped");
    // Hits and misses alike are charged to the policy: one check per
    // guard call, whichever layer answered.
    assert_eq!(value("policy.checks"), guard_calls);

    // The driver's view agrees with the cache's own cells.
    let cache = drv.mem_ref().policy();
    assert_eq!(cache.hits(), hits);
    assert_eq!(cache.misses(), misses);
}
