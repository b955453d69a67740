//! The closed-loop driver, input generation, and the set-up and loader
//! steps the workloads share.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kop_compiler::{compile_module, CompileOptions, CompilerKey, SignedModule};
use kop_core::KernelResult;
use kop_core::{AccessFlags, Size, VAddr};
use kop_interp::ExecStats;
use kop_kernel::{Kernel, KernelConfig, Verification};
use kop_policy::PolicyModule;

use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats::{self, Tally};

/// SplitMix64: the benchmark's only source of input randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so each workload's
    /// input streams are independent of one another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// A heavy-tailed Ethernet payload length: ~80% small, ~15%
    /// medium, ~5% up to the 1500-byte MTU.
    pub fn payload_len(&mut self) -> u64 {
        match self.below(100) {
            0..80 => self.between(46, 200),
            80..95 => self.between(200, 700),
            _ => self.between(700, 1500),
        }
    }
}

/// Which variant of a workload a chunk of the timed phase runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The system as shipped, no spans.
    Untraced,
    /// The same, with spans recorded around every layer call.
    Traced,
    /// The same inputs with one layer swapped for its no-op (the
    /// unguarded build or `DirectMem`), no spans.
    Substitute,
}

/// Whether a request was data or control.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A packet, a burst or a tenant call: its latency is sampled.
    Data,
    /// A control operation: counted, its latency reported separately.
    Control,
}

/// What one executed request did.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// Units of work completed (what throughput counts).
    pub ops: u64,
    /// Data or control.
    pub kind: Kind,
    /// Whether the request and its output checks succeeded.
    pub ok: bool,
}

/// A workload as the closed loop sees it.
pub trait Lane {
    /// Switch variant at a chunk boundary.
    fn set_mode(&mut self, mode: Mode);
    /// Build the next request's inputs (not timed).
    fn prepare(&mut self) {}
    /// Issue the prepared request and wait for it to complete (timed).
    fn execute(&mut self) -> Step;
    /// Which share of chunks, by lowest median latency, counts as calm
    /// (see [`LaneStats::calm`]).
    fn calm_share(&self) -> f64 {
        0.1
    }
    /// Whether the current chunk may end after `elapsed` of it.
    fn chunk_may_end(&self, elapsed: Duration) -> bool {
        elapsed >= CHUNK
    }
    /// Called after each chunk, outside the timed requests.
    fn chunk_done(&mut self) {}
}

/// What one chunk of the timed phase measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Chunk {
    /// Units of work completed.
    pub ops: u64,
    /// Time spent inside `execute`.
    pub busy_ns: u64,
    /// Data requests.
    pub data: u64,
    /// Their summed latency.
    pub lat_sum_ns: u64,
    /// Their median latency.
    pub p50_ns: f64,
    /// Their tail latency, under the benchmark's percentile rule.
    pub tail_ns: f64,
}

impl Chunk {
    fn rate(&self) -> f64 {
        self.ops as f64 * 1e9 / self.busy_ns.max(1) as f64
    }
}

/// What the closed loop measured for one mode.
#[derive(Clone, Debug, Default)]
pub struct LaneStats {
    /// Every chunk, in order.
    pub chunks: Vec<Chunk>,
    /// Requests attempted and failed.
    pub tally: Tally,
    /// Data requests issued.
    pub data_requests: u64,
    /// Control requests issued.
    pub control_requests: u64,
    /// The lane's [`Lane::calm_share`].
    pub calm_share: f64,
}

impl LaneStats {
    /// The calm chunks: those whose median data latency is at or below
    /// the `calm_share` quantile of all chunks' medians (see
    /// [`calm_indices`]).
    pub fn calm(&self) -> Vec<usize> {
        let medians: Vec<Option<f64>> = self
            .chunks
            .iter()
            .map(|c| (c.data > 0).then_some(c.p50_ns))
            .collect();
        calm_indices(&medians, self.calm_share)
    }

    fn calm_sum(&self, f: impl Fn(&Chunk) -> u64) -> u64 {
        self.calm().into_iter().map(|i| f(&self.chunks[i])).sum()
    }

    fn calm_median(&self, f: impl Fn(&Chunk) -> f64) -> f64 {
        let v: Vec<f64> = self
            .calm()
            .into_iter()
            .map(|i| f(&self.chunks[i]))
            .collect();
        stats::median(&v)
    }

    /// Median throughput of the calm chunks, in ops per second.
    pub fn throughput(&self) -> f64 {
        self.calm_median(Chunk::rate)
    }

    /// Busy ns per unit of work over the calm chunks.
    pub fn ns_per_op(&self) -> f64 {
        self.calm_sum(|c| c.busy_ns) as f64 / self.calm_sum(|c| c.ops).max(1) as f64
    }

    /// Mean data-request latency over the calm chunks, in ns.
    pub fn mean_latency_ns(&self) -> f64 {
        self.calm_sum(|c| c.lat_sum_ns) as f64 / self.calm_sum(|c| c.data).max(1) as f64
    }

    /// Median over the calm chunks of each chunk's median latency, and
    /// the data requests behind it (ns).
    pub fn latency_p50(&self) -> (f64, u64) {
        (self.calm_median(|c| c.p50_ns), self.calm_sum(|c| c.data))
    }

    /// Median over all chunks of each chunk's tail latency, and the data
    /// requests behind it (ns). Outside contention moves a chunk's
    /// median more than its tail, so the tail needs no calm filter.
    pub fn latency_tail(&self) -> (f64, u64) {
        let tails: Vec<f64> = self
            .chunks
            .iter()
            .filter(|c| c.data > 0)
            .map(|c| c.tail_ns)
            .collect();
        (stats::median(&tails), self.data_requests)
    }
}

/// The calm chunks among those with a median: the ones whose median is
/// at or below the `share` quantile of all the medians. The host is
/// shared, and a chunk that ran while other load on the machine
/// competed for the core runs tens of percent slower for reasons
/// outside the program.
pub fn calm_indices(medians: &[Option<f64>], share: f64) -> Vec<usize> {
    let mut sorted: Vec<f64> = medians.iter().flatten().copied().collect();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * share).ceil() as usize).saturating_sub(1);
    let Some(&cut) = sorted.get(rank) else {
        return Vec::new();
    };
    (0..medians.len())
        .filter(|&i| medians[i].is_some_and(|m| m <= cut))
        .collect()
}

/// The samples of the calm chunks of `per_chunk`, each chunk judged by
/// its own median (see [`calm_indices`]).
pub fn calm_pool(per_chunk: &[Vec<f64>], share: f64) -> Vec<f64> {
    let medians: Vec<Option<f64>> = per_chunk
        .iter()
        .map(|v| (!v.is_empty()).then(|| stats::median(v)))
        .collect();
    pooled(per_chunk, &calm_indices(&medians, share))
}

/// Nominal length of one chunk of the timed phase.
pub const CHUNK: Duration = Duration::from_millis(100);

/// Run the closed loop for `total`, rotating through `modes` one chunk
/// at a time (interleaving keeps slow drift of the host out of the
/// comparison between modes). Returns the stats of each mode, in the
/// order given.
pub fn run_timed(total: Duration, modes: &[Mode], lane: &mut dyn Lane) -> Vec<LaneStats> {
    let mut out = vec![
        LaneStats {
            calm_share: lane.calm_share(),
            ..LaneStats::default()
        };
        modes.len()
    ];
    let mut hist = stats::Hist::default();
    let start = Instant::now();
    'outer: loop {
        for (mi, &mode) in modes.iter().enumerate() {
            if start.elapsed() >= total {
                break 'outer;
            }
            lane.set_mode(mode);
            let st = &mut out[mi];
            hist.clear();
            let mut c = Chunk::default();
            let chunk_start = Instant::now();
            loop {
                lane.prepare();
                let t0 = Instant::now();
                let step = lane.execute();
                let ns = t0.elapsed().as_nanos() as u64;
                c.ops += step.ops;
                c.busy_ns += ns;
                st.tally.record(step.ok);
                match step.kind {
                    Kind::Data => {
                        st.data_requests += 1;
                        c.data += 1;
                        c.lat_sum_ns += ns;
                        hist.record(ns);
                    }
                    Kind::Control => st.control_requests += 1,
                }
                if lane.chunk_may_end(chunk_start.elapsed()) {
                    break;
                }
            }
            if let Some(s) = hist.summary() {
                (c.p50_ns, c.tail_ns) = (s.p50, s.tail);
            }
            st.chunks.push(c);
            lane.chunk_done();
        }
    }
    lane.set_mode(modes[0]);
    out
}

/// Median per-call cost in ns of `f`, timed in batches of `batch` calls
/// (`f` gets the call index) so clock reads stay out of the figure.
pub fn per_call_ns(batches: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per = Vec::with_capacity(batches);
    let mut i = 0usize;
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        per.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&per)
}

/// Set up `n` times from scratch, dropping each set-up before the next
/// so only one is alive at a time. Returns the last set-up, the time of
/// each, and whether every set-up's `prefix` outcome was the same.
pub fn repeat_setup<S, P: PartialEq>(
    n: usize,
    mut build: impl FnMut() -> S,
    prefix: impl Fn(&S) -> P,
) -> (S, Vec<f64>, bool) {
    let mut times = Vec::with_capacity(n);
    let mut first = None;
    let mut same = true;
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        let s = build();
        times.push(t0.elapsed().as_secs_f64());
        let p = prefix(&s);
        same &= *first.get_or_insert_with(|| prefix(&s)) == p;
        last = Some(s);
    }
    (last.expect("at least one set-up"), times, same)
}

/// The compiler key every workload signs with and every kernel trusts.
pub fn key() -> CompilerKey {
    CompilerKey::from_passphrase("operator-key", "carat-kop-dev")
}

/// Compile and sign `ir` (a span named `compiler.compile`).
pub fn compile(rec: &Recorder, ir: &str, opts: &CompileOptions, key: &CompilerKey) -> SignedModule {
    let module = kop_bench::corpus::parse(ir);
    rec.span("compiler.compile", || compile_module(module, opts, key))
        .expect("corpus modules compile")
        .signed
}

/// Boot configuration for every workload: insmod proves guard coverage
/// as well as checking the signature (the unguarded build of a
/// substitution run can only be signature-checked), and one profiled
/// hit makes a guard site eligible for promotion.
pub fn boot(policy: Arc<PolicyModule>, key: &CompilerKey, guarded: bool) -> Kernel {
    let config = KernelConfig {
        verification: if guarded {
            Verification::SignatureAndStatic
        } else {
            Verification::Signature
        },
        hot_threshold: 1,
        ..KernelConfig::default()
    };
    Kernel::boot(policy, vec![key.clone()], config)
}

/// Load `signed` as `instance` through the staged loader, one span per
/// phase. Returns the stage-to-commit latency in ns.
pub fn insmod(
    rec: &Recorder,
    kernel: &mut Kernel,
    signed: &SignedModule,
    instance: &str,
) -> KernelResult<f64> {
    let t0 = Instant::now();
    let staged = rec
        .span("kernel.stage", || {
            kernel.stager().stage(signed, Some(instance))
        })
        .map_err(|e| e.err)?;
    let reservation = rec.span("kernel.reserve", || kernel.reserve_module(&staged))?;
    let lowered = rec.span("kernel.lower", || {
        staged.lower(&reservation, kernel.tracer())
    });
    rec.span("kernel.commit", || {
        kernel
            .commit_module(staged, reservation, lowered)
            .map(|_| ())
    })?;
    Ok(t0.elapsed().as_nanos() as f64)
}

/// Unload `name` (a span named `kernel.rmmod`).
pub fn rmmod(rec: &Recorder, kernel: &mut Kernel, name: &str) -> KernelResult<()> {
    rec.span("kernel.rmmod", || kernel.rmmod(name))
}

/// Re-prove `signed` with the static validator alone (a span named
/// `analysis.validate`), as insmod does. Returns whether it proved clean.
pub fn validate(rec: &Recorder, signed: &SignedModule, key: &CompilerKey) -> bool {
    let Ok(ir) = signed.verify(std::slice::from_ref(key)) else {
        return false;
    };
    let Ok(ledger) = kop_analysis::ObligationLedger::parse(&signed.attestation.obligations) else {
        return false;
    };
    rec.span("analysis.validate", || {
        kop_analysis::validate_module(&ir, &ledger).is_clean()
    })
}

/// Lower a loaded module's IR again (a span named `vm.lower`), as the
/// loader's lowering step does. Returns whether it lowered.
pub fn lower_again(rec: &Recorder, kernel: &Kernel, name: &str) -> bool {
    let Some(m) = kernel.module(name) else {
        return false;
    };
    let image = m.image();
    rec.span("vm.lower", || {
        kop_vm::lower_module(
            &image.ir,
            &image.globals,
            &image.func_addrs,
            image.sites.as_deref(),
        )
        .is_ok()
    })
}

/// Loader and publish latencies of a workload whose requests load
/// nothing (`insmod_*` and `publish_p99_us` are reported for every
/// workload): after each chunk of the timed phase, the workload's own
/// module is loaded and unloaded and its policy republished
/// [`PROBE_PER_CHUNK`] times. Samples are kept per chunk so the calm
/// filter applies to them as well.
#[derive(Debug, Default)]
pub struct LoadProbe {
    /// Stage-to-commit latency of each load, ns, per chunk.
    pub insmod_ns: Vec<Vec<f64>>,
    /// Latency of each publish, ns, per chunk.
    pub publish_ns: Vec<Vec<f64>>,
    /// Loads, unloads and publishes attempted and failed.
    pub tally: Tally,
    next: u64,
}

/// Loads and publishes per chunk: a 20-second run pools over 4,000 of
/// each for the tails.
pub const PROBE_PER_CHUNK: usize = 24;

impl LoadProbe {
    /// One chunk's worth of loads, unloads and publishes.
    pub fn run(
        &mut self,
        rec: &Recorder,
        kernel: &mut Kernel,
        signed: &SignedModule,
        policy: &PolicyModule,
    ) {
        let rules = policy.regions();
        let (mut loads, mut publishes) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_PER_CHUNK {
            let name = format!("probe{}", self.next);
            self.next += 1;
            let loaded = insmod(rec, kernel, signed, &name);
            self.tally.record(loaded.is_ok());
            loads.extend(loaded);
            self.tally.record(rmmod(rec, kernel, &name).is_ok());
            let t0 = Instant::now();
            let ok = rec
                .span("policy.publish", || {
                    policy.replace_regions(rules.iter().copied())
                })
                .is_ok();
            publishes.push(t0.elapsed().as_nanos() as f64);
            self.tally.record(ok);
        }
        self.insmod_ns.push(loads);
        self.publish_ns.push(publishes);
    }
}

/// The samples of the chunks `chunks` names.
pub fn pooled(per_chunk: &[Vec<f64>], chunks: &[usize]) -> Vec<f64> {
    chunks
        .iter()
        .filter_map(|&i| per_chunk.get(i))
        .flatten()
        .copied()
        .collect()
}

/// The layer-cost probes every traced run takes from outside, each
/// timed directly: namespace resolve of `module`, the public check on
/// the policy governing it over `accesses` (which it must admit), a
/// snapshot load, and a frozen lookup on `lookup_policy`'s snapshot
/// over `lookups`.
pub fn policy_probes(
    m: &mut Metrics,
    kernel: &Kernel,
    module: &str,
    accesses: &[(VAddr, Size, AccessFlags)],
    lookup_policy: &PolicyModule,
    lookups: &[(VAddr, Size, AccessFlags)],
) {
    const BATCHES: usize = 2001;
    const BATCH: usize = 64;
    let policy = kernel.policy_for(module);
    m.layer(
        "kernel.resolve_policy_ns",
        per_call_ns(BATCHES, BATCH, |_| {
            black_box(kernel.policy_for(black_box(module)));
        }),
        "ns",
    );
    let admitted = accesses
        .iter()
        .all(|&(a, s, f)| policy.check(a, s, f).is_ok());
    m.check(
        "probed accesses are admitted",
        admitted,
        format!("{} accesses", accesses.len()),
    );
    m.layer(
        "policy.check_ns",
        per_call_ns(BATCHES, BATCH, |i| {
            let (a, s, f) = accesses[i % accesses.len()];
            let _ = black_box(policy.check(a, s, f));
        }),
        "ns",
    );
    m.layer(
        "policy.snapshot_load_ns",
        per_call_ns(BATCHES, BATCH, |_| {
            black_box(policy.policy_snapshot());
        }),
        "ns",
    );
    let snap = lookup_policy.policy_snapshot();
    m.layer(
        "policy.frozen_lookup_ns",
        per_call_ns(BATCHES, BATCH, |i| {
            let (a, s, f) = lookups[i % lookups.len()];
            black_box(snap.lookup(a, s, f));
        }),
        "ns",
    );
}

/// The per-layer means, in µs, of the compile, loader, validation,
/// lowering, publish and revoke spans.
pub fn loader_layers(m: &mut Metrics, rec: &Recorder) {
    for (name, span) in [
        ("compiler.compile_us", "compiler.compile"),
        ("kernel.stage_us", "kernel.stage"),
        ("kernel.reserve_us", "kernel.reserve"),
        ("kernel.lower_us", "kernel.lower"),
        ("kernel.commit_us", "kernel.commit"),
        ("kernel.rmmod_us", "kernel.rmmod"),
        ("analysis.validate_us", "analysis.validate"),
        ("vm.lower_us", "vm.lower"),
        ("policy.publish_us", "policy.publish"),
        ("policy.revoke_us", "policy.revoke"),
    ] {
        m.layer(name, rec.mean_ns(span) / 1e3, "us");
    }
}

/// The interpreter's counts per unit of work.
pub fn interp_counts(m: &mut Metrics, exec: ExecStats, admits: u64, deopts: u64, ops: u64) {
    let ops = ops.max(1) as f64;
    m.layer(
        "interp.instructions_per_op",
        exec.insts as f64 / ops,
        "count",
    );
    m.layer("interp.guards_per_op", exec.guards as f64 / ops, "count");
    m.layer(
        "interp.inline_admit_ratio",
        admits as f64 / exec.guards.max(1) as f64,
        "ratio",
    );
    m.layer("interp.deopts", deopts as f64, "count");
}

/// Denials `policy` has recorded so far, of every kind.
pub fn denials(policy: &PolicyModule) -> u64 {
    let s = policy.stats();
    s.denied_no_match + s.denied_insufficient + s.denied_malformed
}

/// Time `kernel.revoke_fleet()` a few times (spans named `policy.revoke`).
pub fn revoke_probe(rec: &Recorder, kernel: &mut Kernel) {
    for _ in 0..64 {
        rec.span("policy.revoke", || kernel.revoke_fleet());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_chunks_are_the_lowest_medians() {
        let medians = [Some(5.0), None, Some(1.0), Some(3.0), Some(2.0), Some(4.0)];
        assert_eq!(calm_indices(&medians, 0.4), vec![2, 4], "2 of 5 medians");
        assert_eq!(calm_indices(&medians, 0.1), vec![2], "at least one");
        assert_eq!(calm_indices(&medians, 1.0), vec![0, 2, 3, 4, 5]);
        assert!(calm_indices(&[None], 0.5).is_empty());
        let per_chunk = vec![vec![9.0, 10.0, 11.0], vec![], vec![1.0, 2.0, 30.0]];
        assert_eq!(calm_pool(&per_chunk, 0.5), vec![1.0, 2.0, 30.0]);
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let draws = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7, 1), draws(7, 1));
        assert_ne!(draws(7, 1), draws(7, 2));
        assert_ne!(draws(7, 1), draws(8, 1));
        let mut r = Rng::new(1, 0);
        for _ in 0..10_000 {
            let l = r.payload_len();
            assert!((46..=1500).contains(&l));
        }
    }
}
