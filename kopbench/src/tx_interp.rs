//! `tx_interp`: the paper's guarded TX path. `mini-e1000e` is compiled
//! with guards, signed, loaded and driven through `Interp::call("xmit")`
//! on the bytecode engine under the two-region paper policy. One
//! request is one packet.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kop_compiler::{CompileOptions, CompilerKey, SignedModule};
use kop_core::{AccessFlags, Size, VAddr};
use kop_interp::{Engine, ExecStats, Interp};
use kop_kernel::Kernel;
use kop_policy::PolicyModule;

use crate::harness::{self, Kind, Lane, Mode, Rng, Step};
use crate::report::Metrics;
use crate::spans::Recorder;
use crate::Config;

/// The loaded module's name.
pub const MODULE: &str = "mini-e1000e";
/// Descriptor ring (256 descriptors of 16 bytes), frame buffer and
/// doorbell window sizes; the TDT doorbell sits at `TDT_OFF`.
pub const RING_BYTES: u64 = 256 * 16;
pub const FRAME_BYTES: u64 = 64;
pub const MMIO_BYTES: u64 = 0x4000;
const TDT_OFF: u64 = 0x3818;
const STATS_BYTES: usize = 24;
/// Packets in the warm-up prefix, which the tree engine replays as the
/// reference for the output check.
pub const PREFIX: usize = 4096;
/// Seeded inputs, cycled through by the timed phase.
const INPUT_CYCLE: usize = 1 << 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Input stream label.
const STREAM: u64 = 1;

/// One packet's inputs: descriptor slot and payload length. The head
/// index equals the slot, so the guarded path is the 10-guard hot path.
pub type Packet = (u64, u64);

/// The seeded packet stream.
pub fn inputs(seed: u64, n: usize) -> Vec<Packet> {
    let mut rng = Rng::new(seed, STREAM);
    (0..n)
        .map(|_| (rng.below(256), rng.payload_len()))
        .collect()
}

/// What one `xmit` call works on: descriptor ring, frame buffer,
/// doorbell window, and the loaded module's `@stats`.
#[derive(Clone, Copy, Debug)]
pub struct Buffers {
    pub ring: VAddr,
    pub frame: VAddr,
    pub mmio: VAddr,
    pub stats: VAddr,
}

impl Buffers {
    /// Allocate ring, frame and doorbell window on `kernel`'s heap for
    /// the loaded module `module`.
    pub fn alloc(kernel: &mut Kernel, module: &str) -> Buffers {
        let stats = stats_of(kernel, module);
        let mut alloc = |n| kernel.kmalloc(n).expect("kernel heap");
        Buffers {
            ring: alloc(RING_BYTES),
            frame: alloc(FRAME_BYTES),
            mmio: alloc(MMIO_BYTES),
            stats,
        }
    }

    /// The guard accesses of one packet, in the module's access order.
    pub fn accesses(&self, slot: u64) -> Vec<(VAddr, Size, AccessFlags)> {
        let at = |base: VAddr, off: u64| VAddr(base.raw() + off);
        let (r, w) = (AccessFlags::READ, AccessFlags::WRITE);
        vec![
            (at(self.frame, 0), Size(8), w),
            (at(self.frame, 8), Size(4), w),
            (at(self.frame, 12), Size(2), w),
            (at(self.ring, slot * 16), Size(8), w),
            (at(self.ring, slot * 16 + 8), Size(4), w),
            (at(self.stats, 0), Size(8), r),
            (at(self.stats, 0), Size(8), w),
            (at(self.stats, 8), Size(8), r),
            (at(self.stats, 8), Size(8), w),
            (at(self.mmio, TDT_OFF), Size(4), w),
        ]
    }
}

/// Address of the loaded `module`'s `@stats`.
pub fn stats_of(kernel: &Kernel, module: &str) -> VAddr {
    kernel.module(module).expect("loaded").globals()["stats"]
}

/// A booted kernel with the module loaded and its buffers allocated.
struct Instance {
    kernel: Kernel,
    policy: Arc<PolicyModule>,
    buf: Buffers,
    stack: VAddr,
}

fn instance(rec: &Recorder, signed: &SignedModule, key: &CompilerKey) -> Instance {
    let policy = kop_bench::setup::two_region_policy();
    let guarded = signed.attestation.guard_count > 0;
    let mut kernel = harness::boot(Arc::clone(&policy), key, guarded);
    harness::insmod(rec, &mut kernel, signed, MODULE).expect("mini-e1000e loads");
    let buf = Buffers::alloc(&mut kernel, MODULE);
    let stack = Interp::new(&mut kernel).expect("module stack").stack_base();
    Instance {
        kernel,
        policy,
        buf,
        stack,
    }
}

/// An interpreter on `engine` over a reused module stack, without a fuel
/// limit (a timed phase runs millions of calls).
pub fn interp(kernel: &mut Kernel, stack: VAddr, engine: Engine) -> Interp<'_> {
    let mut i = Interp::with_stack(kernel, stack);
    i.set_engine(engine);
    i.set_fuel(u64::MAX);
    i
}

/// Send one packet through `module`'s `xmit`; whether it returned cleanly.
pub fn xmit(interp: &mut Interp<'_>, module: &str, b: &Buffers, (slot, len): Packet) -> bool {
    let args = [b.ring.raw(), b.frame.raw(), b.mmio.raw(), slot, len, slot];
    matches!(interp.call(module, "xmit", &args), Ok(None))
}

/// What the module makes observable: TX ring, frame buffer, `@stats`
/// and the TDT doorbell.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Output {
    ring: Vec<u8>,
    frame: Vec<u8>,
    stats: Vec<u8>,
    tdt: u64,
}

impl Output {
    fn read(kernel: &Kernel, b: &Buffers) -> Output {
        let mut ring = vec![0u8; RING_BYTES as usize];
        let mut frame = vec![0u8; FRAME_BYTES as usize];
        let mut stats = vec![0u8; STATS_BYTES];
        kernel.mem.read_bytes(b.ring, &mut ring).expect("ring");
        kernel.mem.read_bytes(b.frame, &mut frame).expect("frame");
        kernel.mem.read_bytes(b.stats, &mut stats).expect("@stats");
        let tdt = kernel
            .mem
            .read_uint(VAddr(b.mmio.raw() + TDT_OFF), Size(4))
            .expect("tdt");
        Output {
            ring,
            frame,
            stats,
            tdt,
        }
    }

    /// `@stats` packet and byte counters.
    fn counters(&self) -> (u64, u64) {
        let word = |i: usize| u64::from_le_bytes(self.stats[i..i + 8].try_into().expect("8 bytes"));
        (word(0), word(8))
    }
}

/// The prefix's outcome on one instance: exact, seed-determined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixRun {
    out: Output,
    stats: ExecStats,
    checks: u64,
    failed: u64,
}

fn run_prefix(inst: &mut Instance, packets: &[Packet], engine: Engine) -> PrefixRun {
    let before = inst.policy.stats().checks;
    let buf = inst.buf;
    let mut i = interp(&mut inst.kernel, inst.stack, engine);
    let failed = packets
        .iter()
        .filter(|&&p| !xmit(&mut i, MODULE, &buf, p))
        .count() as u64;
    let stats = i.stats();
    drop(i);
    PrefixRun {
        out: Output::read(&inst.kernel, &buf),
        stats,
        checks: inst.policy.stats().checks - before,
        failed,
    }
}

/// Compile, boot, load and warm up on the seeded prefix.
fn setup(
    rec: &Recorder,
    key: &CompilerKey,
    opts: &CompileOptions,
    packets: &[Packet],
) -> (Instance, PrefixRun, SignedModule) {
    let signed = harness::compile(rec, kop_bench::corpus::MINI_E1000E_IR, opts, key);
    let mut inst = instance(rec, &signed, key);
    let prefix = run_prefix(&mut inst, &packets[..PREFIX], Engine::Bytecode);
    (inst, prefix, signed)
}

struct TxLane<'a> {
    rec: &'a Recorder,
    mode: Mode,
    /// The load probe's kernel, kept apart so that loader churn does
    /// not grow the measured kernel's memory.
    side: &'a mut Kernel,
    signed: &'a SignedModule,
    policy: &'a PolicyModule,
    probe: harness::LoadProbe,
    packets: &'a [Packet],
    guarded: Interp<'a>,
    gbuf: Buffers,
    next: usize,
    sent: u64,
    bytes: u64,
    unguarded: Option<(Interp<'a>, Buffers, usize)>,
}

impl Lane for TxLane<'_> {
    fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
        self.rec.set_enabled(mode == Mode::Traced);
    }

    fn execute(&mut self) -> Step {
        let ok = if self.mode == Mode::Substitute {
            let (i, b, next) = self.unguarded.as_mut().expect("substitute instance");
            let p = self.packets[*next % INPUT_CYCLE];
            *next += 1;
            xmit(i, MODULE, b, p)
        } else {
            let p = self.packets[self.next % INPUT_CYCLE];
            self.next += 1;
            let (rec, guarded, b) = (self.rec, &mut self.guarded, &self.gbuf);
            let ok = rec.request(|| rec.span("interp.call", || xmit(guarded, MODULE, b, p)));
            if ok {
                self.sent += 1;
                self.bytes += p.1;
            }
            ok
        };
        Step {
            ops: 1,
            kind: Kind::Data,
            ok,
        }
    }

    fn chunk_done(&mut self) {
        if self.mode != Mode::Substitute {
            self.probe
                .run(self.rec, self.side, self.signed, self.policy);
        }
    }
}

/// Run the workload.
pub fn run(cfg: &Config, rec: &Recorder) -> Metrics {
    let mut m = Metrics::default();
    rec.set_enabled(cfg.traced);
    let key = harness::key();
    let packets = inputs(cfg.seed, INPUT_CYCLE);

    // Set-up, several times: each one compiles, signs, boots, loads
    // and warms up from scratch; the last one is measured.
    let ((mut inst, prefix, signed), setup_s, same) = harness::repeat_setup(
        SETUPS,
        || setup(rec, &key, &CompileOptions::carat_kop(), &packets),
        |r| r.1.clone(),
    );
    m.check(
        "prefix repeats across set-ups",
        same,
        format!("{SETUPS} set-ups"),
    );
    m.count("prefix.packets", PREFIX as u64);
    m.count("prefix.instructions", prefix.stats.insts);
    m.count("prefix.guards", prefix.stats.guards);
    m.count("prefix.checks", prefix.checks);
    m.count("prefix.failed", prefix.failed);
    m.count("prefix.output_digest", digest(&prefix.out));
    m.count("input_digest", input_digest(&packets));
    m.tally.absorb(crate::stats::Tally {
        attempted: PREFIX as u64,
        failed: prefix.failed,
    });

    // The unguarded build, for the guard-overhead substitution.
    let mut base = cfg.traced.then(|| {
        let off = Recorder::new();
        setup(&off, &key, &CompileOptions::baseline(), &packets).0
    });

    let checks_before = inst.policy.stats().checks;
    let denials_before = harness::denials(&inst.policy);
    let publishes_before = inst.policy.snapshot_publishes();
    let modes: &[Mode] = if cfg.traced {
        &[Mode::Traced, Mode::Untraced, Mode::Substitute]
    } else {
        &[Mode::Untraced]
    };
    let policy = Arc::clone(&inst.policy);
    let mut side = harness::boot(Arc::clone(&policy), &key, true);
    let (lanes, exec, admits, deopts, sent, bytes, probe) = {
        let gbuf = inst.buf;
        let guarded = interp(&mut inst.kernel, inst.stack, Engine::Bytecode);
        let unguarded = base.as_mut().map(|b| {
            (
                interp(&mut b.kernel, b.stack, Engine::Bytecode),
                b.buf,
                PREFIX,
            )
        });
        let mut lane = TxLane {
            rec,
            mode: modes[0],
            side: &mut side,
            signed: &signed,
            policy: &policy,
            probe: harness::LoadProbe::default(),
            packets: &packets,
            guarded,
            gbuf,
            next: PREFIX,
            sent: 0,
            bytes: 0,
            unguarded,
        };
        let lanes = harness::run_timed(Duration::from_secs(cfg.seconds), modes, &mut lane);
        (
            lanes,
            lane.guarded.stats(),
            lane.guarded.inline_admits(),
            lane.guarded.inline_deopts(),
            lane.sent,
            lane.bytes,
            lane.probe,
        )
    };
    rec.set_enabled(cfg.traced);
    let checks = inst.policy.stats().checks - checks_before;
    // Packets sent on the guarded instance, traced or not.
    let calls: u64 = lanes
        .iter()
        .zip(modes)
        .filter(|(_, &mode)| mode != Mode::Substitute)
        .map(|(l, _)| l.data_requests)
        .sum();
    for l in &lanes {
        m.tally.absorb(l.tally);
    }

    // Output checks on the timed instance.
    let out = Output::read(&inst.kernel, &inst.buf);
    let (pk, by) = out.counters();
    let (pk0, by0) = prefix.out.counters();
    m.check(
        "@stats counts every packet and byte",
        pk == pk0 + sent && by == by0 + bytes && sent == calls,
        format!("@stats packets {pk} = {pk0} + {sent}, bytes {by} = {by0} + {bytes}"),
    );
    m.check(
        "guards per packet",
        exec.guards == 10 * calls,
        format!("{} guards over {calls} packets", exec.guards),
    );
    m.check(
        "policy.checks equals guard calls",
        checks == exec.guards,
        format!("policy.checks delta {checks}, guards {}", exec.guards),
    );
    {
        let off = Recorder::new();
        let mut reference = instance(&off, &signed, &key);
        let tree = run_prefix(&mut reference, &packets[..PREFIX], Engine::Tree);
        m.check(
            "ring/frame/@stats/TDT equal the tree engine on the seeded prefix",
            tree == prefix,
            format!("{PREFIX} packets, digest {:016x}", digest(&tree.out)),
        );
    }

    m.tally.absorb(probe.tally);

    if cfg.traced {
        let (traced, untraced, subst) = (&lanes[0], &lanes[1], &lanes[2]);
        let (g, u) = (untraced.ns_per_op(), subst.ns_per_op());
        layer_metrics(&mut m, rec, &mut inst, &signed, &key, &packets, g, u);
        harness::interp_counts(&mut m, exec, admits, deopts, calls);
        m.layer(
            "policy.checks_per_op",
            checks as f64 / calls.max(1) as f64,
            "count",
        );
        m.layer(
            "policy.denials",
            (harness::denials(&inst.policy) - denials_before) as f64,
            "count",
        );
        m.layer(
            "policy.publishes",
            (inst.policy.snapshot_publishes() - publishes_before) as f64,
            "count",
        );
        crate::bench_layer(&mut m, rec, traced, untraced);
        m.layers_from(
            crate::forward_native::layer_probe(cfg.seed),
            &["e1000e.", "net."],
            "forward_native probe",
        );
    } else {
        crate::e2e_common(&mut m, &lanes[0], &setup_s);
        crate::e2e_control(&mut m, &lanes[0], &probe.insmod_ns, &probe.publish_ns);
    }
    m
}

/// Per-layer metrics of the interpreter and policy layers, taken from
/// outside after the timed phase. Shared by the `forward_native` probe.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    rec: &Recorder,
    inst: &mut Instance,
    signed: &SignedModule,
    key: &CompilerKey,
    packets: &[Packet],
    guarded_ns: f64,
    unguarded_ns: f64,
) {
    m.check(
        "static proof",
        harness::validate(rec, signed, key),
        "analysis.validate",
    );
    m.check(
        "lowering",
        harness::lower_again(rec, &inst.kernel, MODULE),
        "vm.lower",
    );
    harness::revoke_probe(rec, &mut inst.kernel);
    let promoted = promote_probe(rec, inst, packets);
    m.check("promotion", promoted, "vm.promote");
    harness::loader_layers(m, rec);
    m.layer("vm.promote_us", rec.mean_ns("vm.promote") / 1e3, "us");
    let acc = inst.buf.accesses(packets[PREFIX].0);
    harness::policy_probes(m, &inst.kernel, MODULE, &acc, &inst.policy, &acc);
    m.layer("interp.call_ns", guarded_ns, "ns");
    m.layer("interp.unguarded_call_ns", unguarded_ns, "ns");
    m.layer(
        "policy.guard_overhead_ns_per_op",
        guarded_ns - unguarded_ns,
        "ns",
    );
}

/// Profile the module with the kernel tracer on, then time repeated
/// promotions, each after a publish that dropped the previous tier.
fn promote_probe(rec: &Recorder, inst: &mut Instance, packets: &[Packet]) -> bool {
    inst.kernel.tracer().set_enabled(true);
    let buf = inst.buf;
    {
        let mut i = interp(&mut inst.kernel, inst.stack, Engine::Bytecode);
        for &p in &packets[..64] {
            xmit(&mut i, MODULE, &buf, p);
        }
    }
    inst.kernel.tracer().set_enabled(false);
    let mut ok = true;
    for _ in 0..32 {
        inst.policy.bump_epoch();
        let n = rec.span("vm.promote", || inst.kernel.promote_hot(MODULE, 1));
        ok &= matches!(n, Ok(n) if n > 0);
    }
    ok
}

fn digest(out: &Output) -> u64 {
    let mut h = crate::env::Fnv::default();
    h.write(&out.ring);
    h.write(&out.frame);
    h.write(&out.stats);
    h.write_u64(out.tdt);
    h.finish()
}

fn input_digest(packets: &[Packet]) -> u64 {
    let mut h = crate::env::Fnv::default();
    for &(s, l) in packets {
        h.write_u64(s);
        h.write_u64(l);
    }
    h.finish()
}

/// Interpreter-layer metrics for a workload that bypasses the
/// interpreter: a short traced run of this workload (2,000 packets per
/// variant) with the same seed.
pub fn layer_probe(seed: u64) -> Metrics {
    let mut m = Metrics::default();
    let rec = Recorder::new();
    let key = harness::key();
    let packets = inputs(seed, PREFIX + 2000);
    let (mut inst, _, signed) = setup(&rec, &key, &CompileOptions::carat_kop(), &packets);
    let (mut base, _, _) = setup(
        &Recorder::new(),
        &key,
        &CompileOptions::baseline(),
        &packets,
    );
    let timed = &packets[PREFIX..];
    // Mean ns per packet, whether all succeeded, and the interpreter's
    // statistics.
    let run = |inst: &mut Instance| {
        let buf = inst.buf;
        let mut i = interp(&mut inst.kernel, inst.stack, Engine::Bytecode);
        let t0 = Instant::now();
        let ok = timed.iter().all(|&p| xmit(&mut i, MODULE, &buf, p));
        let ns = t0.elapsed().as_nanos() as f64 / timed.len() as f64;
        (ns, ok, i.stats(), i.inline_admits(), i.inline_deopts())
    };
    let (guarded, ok_g, exec, admits, deopts) = run(&mut inst);
    let (unguarded, ok_u, ..) = run(&mut base);
    m.check("probe requests succeed", ok_g && ok_u, "");
    rec.set_enabled(true);
    layer_metrics(
        &mut m, &rec, &mut inst, &signed, &key, &packets, guarded, unguarded,
    );
    harness::interp_counts(&mut m, exec, admits, deopts, timed.len() as u64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix_of(seed: u64) -> (PrefixRun, u64) {
        let key = harness::key();
        let packets = inputs(seed, PREFIX);
        let (_, prefix, _) = setup(
            &Recorder::new(),
            &key,
            &CompileOptions::carat_kop(),
            &packets,
        );
        (prefix, input_digest(&packets))
    }

    #[test]
    fn same_seed_same_counts_and_digests() {
        let (a, ia) = prefix_of(11);
        let (b, ib) = prefix_of(11);
        assert_eq!(a, b, "ops, guards, checks and output repeat exactly");
        assert_eq!(ia, ib);
        assert_eq!(a.stats.guards, 10 * PREFIX as u64);
        assert_eq!(a.checks, a.stats.guards);
        assert_eq!(a.failed, 0);
        let (_, ic) = prefix_of(12);
        assert_ne!(ia, ic, "a different seed gives different inputs");
    }
}
