//! `forward_native`: the native per-frame datapath. The `E1000Driver`
//! runs over `GuardedMem` under the least-privilege datapath policy (RX
//! buffers read-only), fed by a seeded `FlowGen`. One request is one
//! burst: inject, IRQ, `poll(budget)` passes, `rewrite`, `xmit`, and a
//! TX tick that puts every frame of the burst on the wire. Throughput
//! counts frames.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use kop_compiler::CompileOptions;
use kop_core::{AccessFlags, Size, VAddr, Violation};
use kop_e1000e::{
    AccessCounts, DirectMem, E1000Device, E1000Driver, FrameSink, GuardedMem, MemSpace,
};
use kop_kernel::Kernel;
use kop_net::frame::{Frame, MacAddr};
use kop_net::FlowGen;
use kop_policy::{PolicyCheck, PolicyModule};

use crate::env::Fnv;
use crate::harness::{self, Kind, Lane, Mode, Rng, Step};
use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats;
use crate::Config;

/// Descriptors harvested per `poll` pass.
pub const BUDGET: u64 = 16;
/// Bursts in the warm-up prefix, replayed on `DirectMem` as the
/// reference for the byte-identity check.
pub const PREFIX: usize = 512;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Input stream label.
const STREAM: u64 = 2;
/// The side kernel's module (the rewrite in KIR), which the loader and
/// publish probes load and republish.
const MODULE: &str = "fwd-rewrite";

/// Concurrent flows, drawn from the seed.
pub fn flows(seed: u64) -> usize {
    Rng::new(seed, STREAM).between(256, 4096) as usize
}

/// The wire side of the benchmark: checks that frames leave in
/// sequence order, exactly once, and digests their bytes.
#[derive(Clone, Debug, Default)]
pub struct SeqLedger {
    /// Sequence number expected next.
    pub next: u64,
    /// Frames delivered.
    pub frames: u64,
    /// Frames whose sequence number was not the expected one (lost,
    /// duplicated or reordered), or that carried none.
    pub misordered: u64,
    /// Digest of every delivered byte.
    pub digest: Fnv,
}

impl FrameSink for SeqLedger {
    fn deliver(&mut self, frame: &[u8]) {
        self.frames += 1;
        self.digest.write(frame);
        let seq = frame
            .get(14..22)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
        if seq == Some(self.next) {
            self.next += 1;
        } else {
            self.misordered += 1;
            if let Some(s) = seq {
                self.next = s + 1;
            }
        }
    }
}

/// A policy wrapper that makes every guard check a `policy.check` span,
/// a child of the driver call that issued it, and keeps the first
/// checked accesses for the direct policy probes.
pub struct SpanPolicy<'a> {
    inner: Arc<PolicyModule>,
    rec: &'a Recorder,
    seen: RefCell<Vec<(VAddr, Size, AccessFlags)>>,
}

const SEEN_CAP: usize = 256;

impl PolicyCheck for SpanPolicy<'_> {
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation> {
        {
            let mut seen = self.seen.borrow_mut();
            if seen.len() < SEEN_CAP {
                seen.push((addr, size, flags));
            }
        }
        self.rec
            .span("policy.check", || self.inner.check(addr, size, flags))
    }
}

/// Per-instance request accounting.
#[derive(Clone, Debug, Default)]
struct FwdStats {
    frames: u64,
    generated: u64,
    irqs: u64,
    polls: u64,
    depth: stats::Hist,
}

/// One driver instance with its own generator and wire ledger.
struct Fwd<M: MemSpace> {
    drv: E1000Driver<M>,
    gen: FlowGen,
    ledger: SeqLedger,
    own: MacAddr,
    burst: Vec<Vec<u8>>,
    st: FwdStats,
}

impl<M: MemSpace> Fwd<M> {
    fn new(mem: M, seed: u64) -> Fwd<M> {
        let mut drv = E1000Driver::probe(mem).expect("driver probes");
        drv.up().expect("driver comes up");
        let own = MacAddr(drv.mac());
        Fwd {
            drv,
            gen: FlowGen::new(seed, flows(seed)),
            ledger: SeqLedger::default(),
            own,
            burst: Vec::new(),
            st: FwdStats::default(),
        }
    }

    fn prepare(&mut self, rec: &Recorder) {
        let gen = &mut self.gen;
        self.burst = rec.span("net.flowgen", || gen.next_burst());
        self.st.generated += self.burst.len() as u64;
    }

    /// Forward the prepared burst. Returns frames forwarded and whether
    /// every frame left once, in order, within the request.
    fn execute(&mut self, rec: &Recorder) -> (u64, bool) {
        let Fwd {
            drv,
            ledger,
            own,
            burst,
            st,
            ..
        } = self;
        let n = burst.len() as u64;
        let before = (ledger.frames, ledger.misordered);
        let run = || -> Result<bool, kop_e1000e::DriverError> {
            let accepted = rec.span("e1000e.rx_inject", || {
                burst.iter().filter(|f| drv.mem().rx_inject(f)).count() as u64
            });
            if rec.span("e1000e.irq", || drv.irq_enter())? != 0 {
                st.irqs += 1;
            }
            let mut depth = accepted;
            let mut parsed = 0u64;
            loop {
                st.depth.record(depth);
                let (frames, drained) = rec.span("e1000e.poll", || drv.poll(BUDGET))?;
                st.polls += 1;
                depth = depth.saturating_sub(frames.len() as u64);
                for bytes in frames {
                    let out = rec.span("net.rewrite", || {
                        Frame::parse(&bytes).map(|f| kop_net::rewrite(&f, *own))
                    });
                    let Some(out) = out else { continue };
                    parsed += 1;
                    rec.span("e1000e.xmit", || {
                        drv.xmit(out.dst.0, out.ethertype.value(), &out.payload)
                    })?;
                }
                if drained {
                    break;
                }
            }
            let sent = rec.span("e1000e.tx_tick", || drv.mem().tx_tick(ledger));
            Ok(accepted == n && parsed == n && sent == n)
        };
        let ok = rec.request(run).unwrap_or(false);
        let ok = ok && ledger.frames - before.0 == n && ledger.misordered == before.1;
        st.frames += n;
        (n, ok)
    }

    /// Run `bursts` requests untimed; returns how many failed.
    fn run_bursts(&mut self, rec: &Recorder, bursts: usize) -> u64 {
        (0..bursts)
            .filter(|_| {
                self.prepare(rec);
                !self.execute(rec).1
            })
            .count() as u64
    }

    /// Whether the ledger saw every generated frame once, in order.
    fn lossless(&self) -> bool {
        self.ledger.misordered == 0
            && self.ledger.frames == self.gen.frames_emitted()
            && self.ledger.next == self.gen.frames_emitted()
    }
}

/// The datapath's least-privilege policy, from the driver's geometry.
fn datapath_policy() -> Arc<PolicyModule> {
    let geo = E1000Driver::probe(DirectMem::with_defaults(E1000Device::default()))
        .expect("driver probes")
        .datapath_geometry();
    Arc::new(PolicyModule::datapath_policy(&geo))
}

fn guarded(policy: &Arc<PolicyModule>) -> GuardedMem<Arc<PolicyModule>> {
    GuardedMem::new(
        DirectMem::with_defaults(E1000Device::default()),
        Arc::clone(policy),
    )
}

/// Exact, seed-determined outcome of the warm-up prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PrefixRun {
    frames: u64,
    guard_calls: u64,
    checks: u64,
    polls: u64,
    irqs: u64,
    digest: u64,
    failed: u64,
}

fn prefix_of<M: MemSpace>(fwd: &mut Fwd<M>, policy: Option<&PolicyModule>) -> PrefixRun {
    let off = Recorder::new();
    let checks = || policy.map_or(0, |p| p.stats().checks);
    let (c0, g0) = (checks(), fwd.drv.counts().guard_calls);
    let failed = fwd.run_bursts(&off, PREFIX);
    PrefixRun {
        frames: fwd.st.frames,
        guard_calls: fwd.drv.counts().guard_calls - g0,
        checks: checks() - c0,
        polls: fwd.st.polls,
        irqs: fwd.st.irqs,
        digest: fwd.ledger.digest.finish(),
        failed,
    }
}

/// Side kernel: the rewrite compiled to KIR, signed and loaded under
/// the same policy object, for the loader and publish probes.
fn side_kernel(rec: &Recorder, policy: &Arc<PolicyModule>) -> (Kernel, kop_compiler::SignedModule) {
    let key = harness::key();
    let signed = harness::compile(
        rec,
        kop_bench::corpus::FORWARD_IR,
        &CompileOptions::carat_kop(),
        &key,
    );
    let mut kernel = harness::boot(Arc::clone(policy), &key, true);
    harness::insmod(rec, &mut kernel, &signed, MODULE).expect("fwd-rewrite loads");
    (kernel, signed)
}

struct Setup {
    policy: Arc<PolicyModule>,
    plain: Fwd<GuardedMem<Arc<PolicyModule>>>,
    prefix: PrefixRun,
    kernel: Kernel,
    signed: kop_compiler::SignedModule,
}

fn setup(rec: &Recorder, seed: u64) -> Setup {
    let policy = datapath_policy();
    let mut plain = Fwd::new(guarded(&policy), seed);
    let (kernel, signed) = side_kernel(rec, &policy);
    let prefix = prefix_of(&mut plain, Some(&policy));
    Setup {
        policy,
        plain,
        prefix,
        kernel,
        signed,
    }
}

struct FwdLane<'a, 'r> {
    rec: &'r Recorder,
    mode: Mode,
    plain: &'a mut Fwd<GuardedMem<Arc<PolicyModule>>>,
    traced: Option<&'a mut Fwd<GuardedMem<SpanPolicy<'r>>>>,
    direct: Option<&'a mut Fwd<DirectMem>>,
    kernel: &'a mut Kernel,
    signed: &'a kop_compiler::SignedModule,
    policy: &'a PolicyModule,
    probe: harness::LoadProbe,
}

impl Lane for FwdLane<'_, '_> {
    fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
        self.rec.set_enabled(mode == Mode::Traced);
    }

    fn prepare(&mut self) {
        match self.mode {
            Mode::Untraced => self.plain.prepare(self.rec),
            Mode::Traced => self
                .traced
                .as_mut()
                .expect("traced instance")
                .prepare(self.rec),
            Mode::Substitute => self
                .direct
                .as_mut()
                .expect("direct instance")
                .prepare(self.rec),
        }
    }

    fn execute(&mut self) -> Step {
        let (ops, ok) = match self.mode {
            Mode::Untraced => self.plain.execute(self.rec),
            Mode::Traced => self
                .traced
                .as_mut()
                .expect("traced instance")
                .execute(self.rec),
            Mode::Substitute => self
                .direct
                .as_mut()
                .expect("direct instance")
                .execute(self.rec),
        };
        Step {
            ops,
            kind: Kind::Data,
            ok,
        }
    }

    fn chunk_done(&mut self) {
        if self.mode != Mode::Substitute {
            self.probe
                .run(self.rec, self.kernel, self.signed, self.policy);
        }
    }
}

fn mem_refs(c: &AccessCounts) -> u64 {
    c.ram_reads + c.ram_writes + c.mmio_reads + c.mmio_writes
}

/// The e1000e and net metrics of a traced instance (`t`), with counts
/// taken over `counts` (guard and memory references over `frames`).
fn datapath_layers(
    m: &mut Metrics,
    rec: &Recorder,
    t: &FwdStats,
    counts: AccessCounts,
    frames: u64,
) {
    let per_frame = |ns: u64| ns as f64 / t.frames.max(1) as f64;
    m.layer(
        "e1000e.rx_inject_ns_per_frame",
        per_frame(rec.agg("e1000e.rx_inject").total_ns),
        "ns",
    );
    m.layer("e1000e.irq_ns", rec.mean_ns("e1000e.irq"), "ns");
    m.layer(
        "e1000e.poll_self_ns_per_frame",
        per_frame(rec.agg("e1000e.poll").self_ns),
        "ns",
    );
    m.layer(
        "e1000e.xmit_self_ns_per_frame",
        per_frame(rec.agg("e1000e.xmit").self_ns),
        "ns",
    );
    m.layer(
        "e1000e.tx_tick_ns_per_frame",
        per_frame(rec.agg("e1000e.tx_tick").total_ns),
        "ns",
    );
    let f = frames.max(1) as f64;
    m.layer(
        "e1000e.guard_calls_per_frame",
        counts.guard_calls as f64 / f,
        "count",
    );
    m.layer(
        "e1000e.mem_refs_per_frame",
        mem_refs(&counts) as f64 / f,
        "count",
    );
    m.layer(
        "e1000e.polls_per_irq",
        t.polls as f64 / t.irqs.max(1) as f64,
        "count",
    );
    let depth = t.depth.summary().map_or(0.0, |s| s.tail);
    m.layer("e1000e.rx_ring_depth_p99", depth, "count");
    m.layer(
        "net.rewrite_ns_per_frame",
        per_frame(rec.agg("net.rewrite").total_ns),
        "ns",
    );
    m.layer(
        "net.flowgen_ns_per_frame",
        rec.agg("net.flowgen").total_ns as f64 / t.generated.max(1) as f64,
        "ns",
    );
}

/// Run the workload.
pub fn run(cfg: &Config, rec: &Recorder) -> Metrics {
    let mut m = Metrics::default();

    // Set-up, several times: policy from the driver geometry, driver
    // probe and up, the side kernel's compile and load, and warm-up on
    // the seeded prefix. The last one is measured.
    let (mut s, setup_s, same) = harness::repeat_setup(
        SETUPS,
        || {
            rec.set_enabled(cfg.traced);
            setup(rec, cfg.seed)
        },
        |s| s.prefix.clone(),
    );
    m.check(
        "prefix repeats across set-ups",
        same,
        format!("{SETUPS} set-ups"),
    );
    let p = &s.prefix;
    m.count("prefix.bursts", PREFIX as u64);
    m.count("prefix.frames", p.frames);
    m.count("prefix.guards", p.guard_calls);
    m.count("prefix.checks", p.checks);
    m.count("prefix.polls", p.polls);
    m.count("prefix.irqs", p.irqs);
    m.count("prefix.failed", p.failed);
    m.count("prefix.output_digest", p.digest);
    m.tally.absorb(stats::Tally {
        attempted: PREFIX as u64,
        failed: p.failed,
    });
    m.check(
        "prefix reconciles policy.checks with guard calls",
        p.checks == p.guard_calls,
        format!("{} checks, {} guard calls", p.checks, p.guard_calls),
    );

    // Byte identity: the unguarded DirectMem datapath on the same seed.
    {
        let mut direct = Fwd::new(DirectMem::with_defaults(E1000Device::default()), cfg.seed);
        let d = prefix_of(&mut direct, None);
        m.check(
            "prefix wire bytes equal the unguarded DirectMem run",
            d.digest == p.digest && d.frames == p.frames && d.failed == 0,
            format!("{} frames, digest {:016x}", d.frames, d.digest),
        );
        m.count("input_digest", {
            let mut gen = FlowGen::new(cfg.seed, flows(cfg.seed));
            let mut h = Fnv::default();
            for _ in 0..PREFIX {
                for f in gen.next_burst() {
                    h.write(&f);
                }
            }
            h.finish()
        });
    }

    let checks0 = s.policy.stats().checks;
    let denials0 = harness::denials(&s.policy);
    let publishes0 = s.policy.snapshot_publishes();
    let counts0 = s.plain.drv.counts();
    let span_policy = SpanPolicy {
        inner: Arc::clone(&s.policy),
        rec,
        seen: RefCell::new(Vec::new()),
    };
    let mut traced = cfg.traced.then(|| {
        let mem = GuardedMem::new(
            DirectMem::with_defaults(E1000Device::default()),
            span_policy,
        );
        Fwd::new(mem, cfg.seed)
    });
    let mut direct = cfg
        .traced
        .then(|| Fwd::new(DirectMem::with_defaults(E1000Device::default()), cfg.seed));
    let modes: &[Mode] = if cfg.traced {
        &[Mode::Traced, Mode::Untraced, Mode::Substitute]
    } else {
        &[Mode::Untraced]
    };
    let (lanes, probe) = {
        let mut lane = FwdLane {
            rec,
            mode: modes[0],
            plain: &mut s.plain,
            traced: traced.as_mut(),
            direct: direct.as_mut(),
            kernel: &mut s.kernel,
            signed: &s.signed,
            policy: &s.policy,
            probe: harness::LoadProbe::default(),
        };
        let lanes = harness::run_timed(Duration::from_secs(cfg.seconds), modes, &mut lane);
        (lanes, lane.probe)
    };
    rec.set_enabled(cfg.traced);
    for l in &lanes {
        m.tally.absorb(l.tally);
    }

    // Output checks.
    let checks = s.policy.stats().checks - checks0;
    let denials = harness::denials(&s.policy) - denials0;
    let plain_counts = s.plain.drv.counts().since(&counts0);
    let traced_guards = traced.as_ref().map_or(0, |t| t.drv.counts().guard_calls);
    m.check(
        "no frame lost, duplicated or reordered",
        s.plain.lossless() && traced.as_ref().is_none_or(|t| t.lossless()),
        format!("{} frames in sequence", s.plain.ledger.frames),
    );
    m.check(
        "policy.checks equals guard calls",
        checks == plain_counts.guard_calls + traced_guards,
        format!("{checks} checks"),
    );
    m.check(
        "no denial under the datapath policy",
        denials == 0,
        format!("{denials} denials"),
    );

    m.tally.absorb(probe.tally);

    if cfg.traced {
        let (t_lane, u_lane, d_lane) = (&lanes[0], &lanes[1], &lanes[2]);
        let t = traced.as_ref().expect("traced instance");
        let frames = s.plain.st.frames - p.frames;
        datapath_layers(&mut m, rec, &t.st, plain_counts, frames);
        let guarded_ops = frames + t.st.frames;
        m.layer(
            "policy.checks_per_op",
            checks as f64 / guarded_ops.max(1) as f64,
            "count",
        );
        m.layer("policy.denials", denials as f64, "count");
        m.layer(
            "policy.publishes",
            (s.policy.snapshot_publishes() - publishes0) as f64,
            "count",
        );
        m.layer(
            "policy.guard_overhead_ns_per_op",
            u_lane.ns_per_op() - d_lane.ns_per_op(),
            "ns",
        );
        let key = harness::key();
        m.check(
            "static proof",
            harness::validate(rec, &s.signed, &key),
            "analysis.validate",
        );
        m.check(
            "lowering",
            harness::lower_again(rec, &s.kernel, MODULE),
            "vm.lower",
        );
        harness::revoke_probe(rec, &mut s.kernel);
        harness::loader_layers(&mut m, rec);
        let seen = t.drv.mem_ref().policy().seen.borrow().clone();
        harness::policy_probes(&mut m, &s.kernel, MODULE, &seen, &s.policy, &seen);
        crate::bench_layer(&mut m, rec, t_lane, u_lane);
        m.layers_from(
            crate::tx_interp::layer_probe(cfg.seed),
            &["interp.", "vm.promote"],
            "tx_interp probe",
        );
    } else {
        crate::e2e_common(&mut m, &lanes[0], &setup_s);
        crate::e2e_control(&mut m, &lanes[0], &probe.insmod_ns, &probe.publish_ns);
    }
    m
}

/// Datapath metrics for a workload that bypasses the native driver: a
/// short traced run of this workload (256 bursts after 64 of warm-up)
/// with the same seed.
pub fn layer_probe(seed: u64) -> Metrics {
    let mut m = Metrics::default();
    let rec = Recorder::new();
    let policy = datapath_policy();
    let span_policy = SpanPolicy {
        inner: Arc::clone(&policy),
        rec: &rec,
        seen: RefCell::new(Vec::new()),
    };
    let mut fwd = Fwd::new(
        GuardedMem::new(
            DirectMem::with_defaults(E1000Device::default()),
            span_policy,
        ),
        seed,
    );
    let mut failed = fwd.run_bursts(&rec, 64);
    fwd.st = FwdStats::default();
    let c0 = fwd.drv.counts();
    rec.set_enabled(true);
    failed += fwd.run_bursts(&rec, 256);
    rec.set_enabled(false);
    m.check(
        "probe bursts forward cleanly",
        failed == 0 && fwd.lossless(),
        "",
    );
    let counts = fwd.drv.counts().since(&c0);
    datapath_layers(&mut m, &rec, &fwd.st, counts, fwd.st.frames);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(seed: u64) -> PrefixRun {
        setup(&Recorder::new(), seed).prefix
    }

    #[test]
    fn same_seed_same_counts_and_digests() {
        let a = prefix(5);
        let b = prefix(5);
        assert_eq!(
            a, b,
            "frames, guards, checks, polls and wire bytes repeat exactly"
        );
        assert_eq!(a.failed, 0);
        assert_eq!(a.checks, a.guard_calls);
        let c = prefix(6);
        assert_ne!(
            a.digest, c.digest,
            "a different seed gives different inputs"
        );
    }

    #[test]
    fn ledger_flags_loss_duplication_and_reordering() {
        let frame = |seq: u64| {
            let mut f = vec![0u8; 64];
            f[14..22].copy_from_slice(&seq.to_le_bytes());
            f
        };
        let mut l = SeqLedger::default();
        for s in [0, 1, 2] {
            l.deliver(&frame(s));
        }
        assert_eq!((l.next, l.misordered), (3, 0));
        l.deliver(&frame(2)); // duplicate
        l.deliver(&frame(4)); // 3 lost (or late)
        l.deliver(&frame(3)); // reordered
        l.deliver(&[0u8; 10]); // no sequence number
        assert_eq!(l.misordered, 4);
        assert_eq!(l.frames, 7);
    }
}
