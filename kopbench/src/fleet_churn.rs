//! `fleet_churn`: a fleet of tenant modules under policy writes and
//! module churn. 64 instances of `mini-e1000e` are loaded under
//! distinct names; three in four get a namespace policy of 16 regions,
//! the rest fall back to the global policy, which holds the whole
//! fleet's consolidated rule set. Tenant calls run on the promoted
//! engine, with promotion driven through the kernel. About 1% of
//! requests are control operations drawn from the seed: a tenant
//! republish, an `rmmod` + re-`insmod` under a fresh namespace id, or a
//! fleet revocation. One data request is one tenant call.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kop_compiler::{CompileOptions, CompilerKey, SignedModule};
use kop_core::layout::VMALLOC_BASE;
use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
use kop_interp::{Engine, Interp};
use kop_kernel::Kernel;
use kop_policy::{PolicyModule, StoreKind};

use crate::harness::{self, Kind, Lane, Mode, Rng, Step};
use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats::Tally;
use crate::tx_interp::{self, Buffers, FRAME_BYTES, MMIO_BYTES, RING_BYTES};
use crate::Config;

/// Tenant modules in the fleet.
pub const TENANTS: usize = 64;
/// Every fourth tenant resolves to the global policy.
const FALLBACK_EVERY: usize = 4;
/// Decoy regions per tenant, beside its four live ones (16 in all).
const DECOYS: usize = 12;
/// Address stride between tenants' decoy windows.
const DECOY_TENANT_STRIDE: u64 = 1 << 32;
/// Address stride between one tenant's decoys.
const DECOY_STRIDE: u64 = 0x1_0000;
/// One request in 128 is a control operation (about 1%).
const CONTROL_EVERY: u64 = 128;
/// Requests per block of the schedule: each holds one shuffled block
/// of [`CONTROL_MIX`]. A chunk of the timed phase is one block, so every
/// chunk runs the same mix.
const BLOCK: u64 = CONTROL_EVERY * CONTROL_BLOCK_LEN;
/// Control operations come in blocks of 20, shuffled from the seed: 12
/// republishes (3 of a fallback tenant's rules, which republish the
/// global policy), 7 reloads (2 of fallback tenants) and 1 fleet
/// revocation. Fixing the mix, down to the kind of tenant, keeps the
/// cost of a block the same from seed to seed.
const CONTROL_MIX: [(Control, usize); 5] = [
    (Control::Republish, 9),
    (Control::RepublishGlobal, 3),
    (Control::Reload, 5),
    (Control::ReloadGlobal, 2),
    (Control::Revoke, 1),
];
const CONTROL_BLOCK_LEN: u64 = 20;

/// A control operation's kind, before its tenant is drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Control {
    Republish,
    RepublishGlobal,
    Reload,
    ReloadGlobal,
    Revoke,
}

/// Steps of the seeded schedule run as warm-up.
pub const PREFIX: usize = 2 * BLOCK as usize;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Input stream labels.
const STREAM: u64 = 3;
const STREAM_SUBSTITUTE: u64 = 4;
/// Instance name of the unguarded build (traced runs only).
const UNGUARDED: &str = "unguarded";

/// One step of the seeded schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `xmit(slot, len)` on a tenant.
    Call { tenant: usize, slot: u64, len: u64 },
    /// Swap one of a tenant's decoy grants for a fresh one.
    Republish { tenant: usize },
    /// Unload a tenant and load it again.
    Reload { tenant: usize },
    /// Revoke every cached grant in the fleet.
    Revoke,
}

/// The seeded request schedule. Control operations sit at fixed
/// positions and come in shuffled blocks of fixed mix, so every seed
/// runs the same share of each kind; tenants, slots and lengths are
/// drawn from the seed.
#[derive(Clone, Debug)]
pub struct Schedule {
    rng: Rng,
    step: u64,
    block: Vec<Control>,
}

impl Schedule {
    /// The schedule for `seed`.
    pub fn new(seed: u64) -> Schedule {
        Schedule {
            rng: Rng::new(seed, STREAM),
            step: 0,
            block: Vec::new(),
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        self.step += 1;
        if !self.step.is_multiple_of(CONTROL_EVERY) {
            return Op::Call {
                tenant: self.rng.below(TENANTS as u64) as usize,
                slot: self.rng.below(256),
                len: self.rng.payload_len(),
            };
        }
        if self.block.is_empty() {
            self.block = CONTROL_MIX
                .iter()
                .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
                .collect();
            debug_assert_eq!(self.block.len() as u64, CONTROL_BLOCK_LEN);
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        // Tenant `t` falls back to the global policy iff
        // `t % FALLBACK_EVERY == FALLBACK_EVERY - 1`.
        let group = (TENANTS / FALLBACK_EVERY) as u64;
        let own = |rng: &mut Rng| {
            let t = rng.below(group * (FALLBACK_EVERY as u64 - 1)) as usize;
            t / (FALLBACK_EVERY - 1) * FALLBACK_EVERY + t % (FALLBACK_EVERY - 1)
        };
        let fallback =
            |rng: &mut Rng| rng.below(group) as usize * FALLBACK_EVERY + FALLBACK_EVERY - 1;
        let rng = &mut self.rng;
        match self.block.pop().expect("refilled") {
            Control::Republish => Op::Republish { tenant: own(rng) },
            Control::RepublishGlobal => Op::Republish {
                tenant: fallback(rng),
            },
            Control::Reload => Op::Reload { tenant: own(rng) },
            Control::ReloadGlobal => Op::Reload {
                tenant: fallback(rng),
            },
            Control::Revoke => Op::Revoke,
        }
    }
}

fn region(base: u64, len: u64) -> Region {
    Region::new(VAddr(base), Size(len), Protection::READ_WRITE).expect("region fits")
}

struct Tenant {
    name: String,
    /// Its namespace policy; `None` for a tenant on the global policy.
    own: Option<Arc<PolicyModule>>,
    /// Its buffers and the current instance's `@stats`.
    buf: Buffers,
    decoys: VecDeque<Region>,
    next_decoy: u64,
    index: u64,
    /// Calls and payload bytes since the current instance was loaded,
    /// which its `@stats` must equal.
    calls: u64,
    bytes: u64,
}

impl Tenant {
    fn decoy(&mut self) -> Region {
        let base = VMALLOC_BASE + self.index * DECOY_TENANT_STRIDE + self.next_decoy * DECOY_STRIDE;
        self.next_decoy += 1;
        region(base, 0x1000)
    }

    fn regions(&self) -> Vec<Region> {
        let b = &self.buf;
        let mut v = vec![
            region(b.ring.raw(), RING_BYTES),
            region(b.frame.raw(), FRAME_BYTES),
            region(b.mmio.raw(), MMIO_BYTES),
            region(b.stats.raw(), 24),
        ];
        v.extend(self.decoys.iter().copied());
        v
    }
}

/// The fleet outside the kernel: tenants, the global policy, and what
/// control operations measured.
struct Fleet {
    global: Arc<PolicyModule>,
    tenants: Vec<Tenant>,
    signed: SignedModule,
    /// Stage-to-commit latency of each reload, ns, in the current chunk.
    insmod_ns: Vec<f64>,
    /// Publish-to-repromoted latency of each control operation, ns, in
    /// the current chunk.
    publish_ns: Vec<f64>,
    /// The same, per finished chunk.
    insmod_chunks: Vec<Vec<f64>>,
    publish_chunks: Vec<Vec<f64>>,
    /// Stale-admit probes issued through the public check, and how
    /// many of them admitted (must stay 0).
    probes: u64,
    stale_admits: u64,
    /// Control operations that failed.
    control_failed: u64,
}

impl Fleet {
    fn consolidated(&self) -> Vec<Region> {
        self.tenants.iter().flat_map(Tenant::regions).collect()
    }

    /// Publish tenant `t`'s rule set: its namespace policy, or the
    /// global consolidated set for a fallback tenant.
    fn publish(&self, kernel: &mut Kernel, t: usize, reregister: bool) -> bool {
        let tenant = &self.tenants[t];
        match &tenant.own {
            Some(p) => {
                let ok = p.replace_regions(tenant.regions()).is_ok();
                if reregister {
                    kernel.set_module_policy(&tenant.name, Arc::clone(p));
                }
                ok
            }
            None => self.global.replace_regions(self.consolidated()).is_ok(),
        }
    }

    /// The tenants whose promoted tier a publish for `t` dropped.
    fn affected(&self, t: usize) -> Vec<usize> {
        if self.tenants[t].own.is_some() {
            vec![t]
        } else {
            (0..self.tenants.len())
                .filter(|&i| self.tenants[i].own.is_none())
                .collect()
        }
    }

    /// A probe at a grant just removed must be denied.
    fn probe_denied(&mut self, kernel: &Kernel, t: usize, removed: Region) {
        self.probes += 1;
        let policy = kernel.policy_for(&self.tenants[t].name);
        if policy.check(removed.base, Size(8), AccessFlags::RW).is_ok() {
            self.stale_admits += 1;
        }
    }
}

fn xmit(interp: &mut Interp<'_>, tenant: &mut Tenant, slot: u64, len: u64) -> bool {
    let ok = tx_interp::xmit(interp, &tenant.name, &tenant.buf, (slot, len));
    if ok {
        tenant.calls += 1;
        tenant.bytes += len;
    }
    ok
}

/// Promote `tenants` through the kernel; whether each got a tier.
fn promote(
    rec: &Recorder,
    interp: &mut Interp<'_>,
    fleet: &Fleet,
    tenants: impl IntoIterator<Item = usize>,
) -> bool {
    let mut ok = true;
    for t in tenants {
        let name = &fleet.tenants[t].name;
        let n = rec.span("vm.promote", || interp.kernel().promote_hot(name, 1));
        ok &= matches!(n, Ok(n) if n > 0);
    }
    ok
}

/// Profile `tenants` with the kernel tracer on (two calls each), then
/// promote them.
fn profile_and_promote(
    rec: &Recorder,
    interp: &mut Interp<'_>,
    fleet: &mut Fleet,
    tenants: &[usize],
) -> bool {
    interp.kernel().tracer().set_enabled(true);
    let mut ok = true;
    for &t in tenants {
        for slot in 0..2 {
            ok &= xmit(interp, &mut fleet.tenants[t], slot, 60);
        }
    }
    interp.kernel().tracer().set_enabled(false);
    ok && promote(rec, interp, fleet, tenants.iter().copied())
}

/// Run one control operation; returns whether it succeeded.
fn control(rec: &Recorder, interp: &mut Interp<'_>, fleet: &mut Fleet, op: Op) -> bool {
    match op {
        Op::Republish { tenant: t } => {
            let t0 = Instant::now();
            let fresh = fleet.tenants[t].decoy();
            let removed = {
                let tn = &mut fleet.tenants[t];
                tn.decoys.push_back(fresh);
                tn.decoys.pop_front().expect("decoys")
            };
            let published = rec.span("policy.publish", || {
                fleet.publish(interp.kernel(), t, false)
            });
            let ok = published && promote(rec, interp, fleet, fleet.affected(t));
            fleet.publish_ns.push(t0.elapsed().as_nanos() as f64);
            fleet.probe_denied(interp.kernel(), t, removed);
            ok
        }
        Op::Reload { tenant: t } => {
            let name = fleet.tenants[t].name.clone();
            let mut ok = harness::rmmod(rec, interp.kernel(), &name).is_ok();
            match harness::insmod(rec, interp.kernel(), &fleet.signed, &name) {
                Ok(ns) => fleet.insmod_ns.push(ns),
                Err(_) => return false,
            }
            let old = {
                let stats = tx_interp::stats_of(interp.kernel(), &name);
                let tn = &mut fleet.tenants[t];
                let old = region(tn.buf.stats.raw(), 24);
                (tn.buf.stats, tn.calls, tn.bytes) = (stats, 0, 0);
                old
            };
            let t0 = Instant::now();
            ok &= rec.span("policy.publish", || fleet.publish(interp.kernel(), t, true));
            // The fresh instance needs a profile before it can be promoted;
            // a global publish also dropped the other fallback tenants' tiers.
            ok &= profile_and_promote(rec, interp, fleet, &[t]);
            let others: Vec<usize> = fleet.affected(t).into_iter().filter(|&i| i != t).collect();
            ok &= promote(rec, interp, fleet, others);
            fleet.publish_ns.push(t0.elapsed().as_nanos() as f64);
            fleet.probe_denied(interp.kernel(), t, old);
            ok
        }
        Op::Revoke => {
            let t0 = Instant::now();
            let bumped = rec.span("policy.revoke", || interp.kernel().revoke_fleet());
            let promoted = rec.span("vm.promote", || interp.kernel().tick());
            fleet.publish_ns.push(t0.elapsed().as_nanos() as f64);
            bumped > TENANTS - TENANTS / FALLBACK_EVERY && promoted > 0
        }
        Op::Call { .. } => unreachable!("control() runs control operations"),
    }
}

/// Run one step of the schedule (data or control).
fn step(rec: &Recorder, interp: &mut Interp<'_>, fleet: &mut Fleet, op: Op) -> Step {
    match op {
        Op::Call { tenant, slot, len } => {
            let tn = &mut fleet.tenants[tenant];
            let ok = rec.request(|| rec.span("interp.call", || xmit(interp, tn, slot, len)));
            Step {
                ops: 1,
                kind: Kind::Data,
                ok,
            }
        }
        _ => {
            let ok = rec.request(|| control(rec, interp, fleet, op));
            fleet.control_failed += u64::from(!ok);
            Step {
                ops: 0,
                kind: Kind::Control,
                ok,
            }
        }
    }
}

/// Everything the kernel holds for the fleet.
struct Setup {
    kernel: Kernel,
    stack: VAddr,
    fleet: Fleet,
    schedule: Schedule,
    prefix: PrefixRun,
    twin: Option<Twin>,
}

/// Exact, seed-determined outcome of the warm-up prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PrefixRun {
    calls: u64,
    controls: u64,
    guards: u64,
    checks: u64,
    publishes: u64,
    failed: u64,
    digest: u64,
}

fn all_policies(fleet: &Fleet) -> Vec<Arc<PolicyModule>> {
    std::iter::once(Arc::clone(&fleet.global))
        .chain(fleet.tenants.iter().filter_map(|t| t.own.clone()))
        .collect()
}

fn total_checks(fleet: &Fleet) -> u64 {
    all_policies(fleet).iter().map(|p| p.stats().checks).sum()
}

fn total_publishes(fleet: &Fleet) -> u64 {
    all_policies(fleet)
        .iter()
        .map(|p| p.snapshot_publishes())
        .sum()
}

fn total_denials(fleet: &Fleet) -> u64 {
    all_policies(fleet)
        .iter()
        .map(|p| harness::denials(p))
        .sum()
}

/// Compile, boot, load and register the fleet, profile and promote it,
/// and run the seeded warm-up prefix.
fn setup(rec: &Recorder, key: &CompilerKey, seed: u64, with_unguarded: bool) -> Setup {
    let signed = harness::compile(
        rec,
        kop_bench::corpus::MINI_E1000E_IR,
        &CompileOptions::carat_kop(),
        key,
    );
    let global = Arc::new(PolicyModule::with_kind(StoreKind::Sorted));
    let mut kernel = harness::boot(Arc::clone(&global), key, true);
    let stack = Interp::new(&mut kernel).expect("module stack").stack_base();
    let mut tenants = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let name = format!("tenant{t:02}");
        harness::insmod(rec, &mut kernel, &signed, &name).expect("tenant loads");
        let buf = Buffers::alloc(&mut kernel, &name);
        let mut tenant = Tenant {
            name,
            own: None,
            buf,
            decoys: VecDeque::new(),
            next_decoy: 0,
            index: t as u64,
            calls: 0,
            bytes: 0,
        };
        for _ in 0..DECOYS {
            let d = tenant.decoy();
            tenant.decoys.push_back(d);
        }
        if t % FALLBACK_EVERY != FALLBACK_EVERY - 1 {
            let p = Arc::new(PolicyModule::new());
            p.replace_regions(tenant.regions())
                .expect("tenant rule set");
            kernel.set_module_policy(&tenant.name, Arc::clone(&p));
            tenant.own = Some(p);
        }
        tenants.push(tenant);
    }
    let mut fleet = Fleet {
        global,
        tenants,
        signed,
        insmod_ns: Vec::new(),
        publish_ns: Vec::new(),
        insmod_chunks: Vec::new(),
        publish_chunks: Vec::new(),
        probes: 0,
        stale_admits: 0,
        control_failed: 0,
    };
    fleet
        .global
        .replace_regions(fleet.consolidated())
        .expect("consolidated rule set");
    let twin = with_unguarded.then(|| Twin::new(key));

    let mut schedule = Schedule::new(seed);
    let off = Recorder::new();
    let (prefix, promoted) = {
        let checks0 = total_checks(&fleet);
        let publishes0 = total_publishes(&fleet);
        let mut i = tx_interp::interp(&mut kernel, stack, Engine::Promoted);
        let all: Vec<usize> = (0..TENANTS).collect();
        let promoted = profile_and_promote(&off, &mut i, &mut fleet, &all);
        let mut failed = 0;
        let mut calls = 0;
        for _ in 0..PREFIX {
            let op = schedule.next_op();
            let s = step(&off, &mut i, &mut fleet, op);
            failed += u64::from(!s.ok);
            calls += s.ops;
        }
        let guards = i.stats().guards;
        drop(i);
        let mut h = crate::env::Fnv::default();
        for t in &fleet.tenants {
            let mut stats = [0u8; 24];
            kernel
                .mem
                .read_bytes(t.buf.stats, &mut stats)
                .expect("@stats");
            h.write(&stats);
        }
        (
            PrefixRun {
                calls,
                controls: PREFIX as u64 - calls,
                guards,
                checks: total_checks(&fleet) - checks0 - fleet.probes,
                publishes: total_publishes(&fleet) - publishes0,
                failed,
                digest: h.finish(),
            },
            promoted,
        )
    };
    let mut prefix = prefix;
    prefix.failed += u64::from(!promoted);
    // Warm-up latencies are not the timed phase's.
    fleet.insmod_ns.clear();
    fleet.publish_ns.clear();
    Setup {
        kernel,
        stack,
        fleet,
        schedule,
        prefix,
        twin,
    }
}

/// The unguarded build in a kernel of its own (a kernel that proves
/// guard coverage refuses it), called with the same kind of inputs.
struct Twin {
    kernel: Kernel,
    stack: VAddr,
    buf: Buffers,
}

impl Twin {
    fn new(key: &CompilerKey) -> Twin {
        let off = Recorder::new();
        let base = harness::compile(
            &off,
            kop_bench::corpus::MINI_E1000E_IR,
            &CompileOptions::baseline(),
            key,
        );
        let mut kernel = harness::boot(kop_bench::setup::two_region_policy(), key, false);
        harness::insmod(&off, &mut kernel, &base, UNGUARDED).expect("unguarded build loads");
        let stack = Interp::new(&mut kernel).expect("module stack").stack_base();
        let buf = Buffers::alloc(&mut kernel, UNGUARDED);
        Twin { kernel, stack, buf }
    }
}

struct FleetLane<'a> {
    rec: &'a Recorder,
    mode: Mode,
    interp: Interp<'a>,
    fleet: &'a mut Fleet,
    schedule: Schedule,
    next: Op,
    sub_rng: Rng,
    twin: Option<(Interp<'a>, Buffers)>,
}

impl Lane for FleetLane<'_> {
    fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
        self.rec.set_enabled(mode == Mode::Traced);
    }

    fn prepare(&mut self) {
        self.next = if self.mode == Mode::Substitute {
            Op::Call {
                tenant: 0,
                slot: self.sub_rng.below(256),
                len: self.sub_rng.payload_len(),
            }
        } else {
            self.schedule.next_op()
        };
    }

    fn execute(&mut self) -> Step {
        match (self.mode, self.next) {
            (Mode::Substitute, Op::Call { slot, len, .. }) => {
                let (i, b) = self.twin.as_mut().expect("unguarded twin");
                let ok = tx_interp::xmit(i, UNGUARDED, b, (slot, len));
                Step {
                    ops: 1,
                    kind: Kind::Data,
                    ok,
                }
            }
            (_, op) => step(self.rec, &mut self.interp, self.fleet, op),
        }
    }

    /// Every chunk: a fleet chunk's cost is set by its control
    /// operations, which the calm filter would select on.
    fn calm_share(&self) -> f64 {
        1.0
    }

    fn chunk_may_end(&self, elapsed: Duration) -> bool {
        match self.mode {
            Mode::Substitute => elapsed >= harness::CHUNK,
            _ => self.schedule.step.is_multiple_of(BLOCK),
        }
    }

    fn chunk_done(&mut self) {
        let f = &mut *self.fleet;
        f.insmod_chunks.push(std::mem::take(&mut f.insmod_ns));
        f.publish_chunks.push(std::mem::take(&mut f.publish_ns));
    }
}

/// Run the workload.
pub fn run(cfg: &Config, rec: &Recorder) -> Metrics {
    let mut m = Metrics::default();
    let key = harness::key();

    let (mut s, setup_s, same) = harness::repeat_setup(
        SETUPS,
        || {
            rec.set_enabled(cfg.traced);
            setup(rec, &key, cfg.seed, cfg.traced)
        },
        |s| s.prefix.clone(),
    );
    m.check(
        "prefix repeats across set-ups",
        same,
        format!("{SETUPS} set-ups"),
    );
    let p = s.prefix.clone();
    m.count("prefix.steps", PREFIX as u64);
    m.count("prefix.calls", p.calls);
    m.count("prefix.controls", p.controls);
    m.count("prefix.guards", p.guards);
    m.count("prefix.checks", p.checks);
    m.count("prefix.publishes", p.publishes);
    m.count("prefix.failed", p.failed);
    m.count("prefix.output_digest", p.digest);
    m.count("input_digest", {
        let mut schedule = Schedule::new(cfg.seed);
        let mut h = crate::env::Fnv::default();
        for _ in 0..PREFIX {
            h.write(format!("{:?}", schedule.next_op()).as_bytes());
        }
        h.finish()
    });
    m.tally.absorb(Tally {
        attempted: PREFIX as u64,
        failed: p.failed,
    });
    m.check(
        "prefix reconciles policy.checks with guard calls",
        p.checks == p.guards,
        format!("{} checks, {} guards", p.checks, p.guards),
    );

    let checks0 = total_checks(&s.fleet);
    let probes0 = s.fleet.probes;
    let publishes0 = total_publishes(&s.fleet);
    let denials0 = total_denials(&s.fleet);
    let modes: &[Mode] = if cfg.traced {
        &[Mode::Traced, Mode::Untraced, Mode::Substitute]
    } else {
        &[Mode::Untraced]
    };
    let (lanes, exec, admits, deopts) = {
        let mut lane = FleetLane {
            rec,
            mode: modes[0],
            interp: tx_interp::interp(&mut s.kernel, s.stack, Engine::Promoted),
            fleet: &mut s.fleet,
            schedule: s.schedule.clone(),
            next: Op::Revoke,
            sub_rng: Rng::new(cfg.seed, STREAM_SUBSTITUTE),
            twin: s.twin.as_mut().map(|t| {
                (
                    tx_interp::interp(&mut t.kernel, t.stack, Engine::Bytecode),
                    t.buf,
                )
            }),
        };
        let lanes = harness::run_timed(Duration::from_secs(cfg.seconds), modes, &mut lane);
        let i = &lane.interp;
        (lanes, i.stats(), i.inline_admits(), i.inline_deopts())
    };
    rec.set_enabled(cfg.traced);
    for l in &lanes {
        m.tally.absorb(l.tally);
    }
    let fleet = &s.fleet;

    // Output checks.
    let probes = fleet.probes - probes0;
    let checks = total_checks(fleet) - checks0 - probes;
    m.check(
        "policy.checks equals guard calls",
        checks == exec.guards,
        format!(
            "policy.checks delta {checks} (probes excluded), guards {}",
            exec.guards
        ),
    );
    m.check(
        "zero stale admits",
        fleet.stale_admits == 0 && probes > 0,
        format!(
            "{probes} probes after grant-removing publishes, {} admitted",
            fleet.stale_admits
        ),
    );
    let ledger_ok = fleet.tenants.iter().all(|t| {
        let mut stats = [0u8; 24];
        s.kernel.mem.read_bytes(t.buf.stats, &mut stats).is_ok()
            && u64::from_le_bytes(stats[0..8].try_into().expect("8")) == t.calls
            && u64::from_le_bytes(stats[8..16].try_into().expect("8")) == t.bytes
    });
    m.check(
        "every tenant's @stats counts its calls and bytes since load",
        ledger_ok,
        format!("{} tenants", fleet.tenants.len()),
    );
    m.check(
        "control operations succeed",
        fleet.control_failed == 0,
        format!("{} failed", fleet.control_failed),
    );
    m.check(
        "promoted tier answers guards inline",
        admits > 0,
        format!(
            "{admits} inline admits of {} guards, {deopts} deopts",
            exec.guards
        ),
    );

    let calls: u64 = lanes
        .iter()
        .zip(modes)
        .filter(|(_, &mode)| mode != Mode::Substitute)
        .map(|(l, _)| l.data_requests)
        .sum();
    let controls: u64 = lanes.iter().map(|l| l.control_requests).sum();
    m.check(
        "control share",
        controls > 0,
        format!("{controls} control operations beside {calls} tenant calls"),
    );

    if cfg.traced {
        let (t_lane, u_lane, d_lane) = (&lanes[0], &lanes[1], &lanes[2]);
        m.check(
            "static proof",
            harness::validate(rec, &fleet.signed, &key),
            "analysis.validate",
        );
        m.check(
            "lowering",
            harness::lower_again(rec, &s.kernel, &fleet.tenants[0].name),
            "vm.lower",
        );
        harness::loader_layers(&mut m, rec);
        m.layer("vm.promote_us", rec.mean_ns("vm.promote") / 1e3, "us");
        let t0 = &fleet.tenants[0];
        let own = t0.buf.accesses(7);
        let lookups: Vec<_> = fleet
            .tenants
            .iter()
            .enumerate()
            .flat_map(|(i, t)| t.buf.accesses(i as u64))
            .collect();
        harness::policy_probes(&mut m, &s.kernel, &t0.name, &own, &fleet.global, &lookups);
        let (g, u) = (u_lane.mean_latency_ns(), d_lane.mean_latency_ns());
        m.layer("interp.call_ns", g, "ns");
        m.layer("interp.unguarded_call_ns", u, "ns");
        m.layer("policy.guard_overhead_ns_per_op", g - u, "ns");
        harness::interp_counts(&mut m, exec, admits, deopts, calls);
        m.layer(
            "policy.checks_per_op",
            checks as f64 / calls.max(1) as f64,
            "count",
        );
        m.layer(
            "policy.denials",
            (total_denials(fleet) - denials0) as f64,
            "count",
        );
        m.layer(
            "policy.publishes",
            (total_publishes(fleet) - publishes0) as f64,
            "count",
        );
        crate::bench_layer(&mut m, rec, t_lane, u_lane);
        m.layers_from(
            crate::forward_native::layer_probe(cfg.seed),
            &["e1000e.", "net."],
            "forward_native probe",
        );
    } else {
        crate::e2e_common(&mut m, &lanes[0], &setup_s);
        crate::e2e_control(
            &mut m,
            &lanes[0],
            &fleet.insmod_chunks,
            &fleet.publish_chunks,
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_counts_and_digests() {
        let key = harness::key();
        let a = setup(&Recorder::new(), &key, 3, false).prefix;
        let b = setup(&Recorder::new(), &key, 3, false).prefix;
        assert_eq!(
            a, b,
            "calls, guards, checks, publishes and outputs repeat exactly"
        );
        assert_eq!(a.failed, 0);
        assert_eq!(a.checks, a.guards);
        assert!(a.controls > 0 && a.publishes > 0);
        let ops = |seed| {
            let mut s = Schedule::new(seed);
            (0..PREFIX).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(3), ops(3));
        assert_ne!(
            ops(3),
            ops(4),
            "a different seed gives a different schedule"
        );
        let controls: Vec<Op> = ops(3)
            .into_iter()
            .filter(|o| !matches!(o, Op::Call { .. }))
            .collect();
        assert_eq!(
            controls.len(),
            PREFIX / CONTROL_EVERY as usize,
            "one control op in 128"
        );
        let fallback = |t: usize| t % FALLBACK_EVERY == FALLBACK_EVERY - 1;
        let global = controls
            .iter()
            .filter(|o| matches!(o, Op::Republish { tenant } | Op::Reload { tenant } if fallback(*tenant)))
            .count();
        assert_eq!(
            global * 4,
            controls.len(),
            "5 in every 20 on fallback tenants"
        );
    }
}
