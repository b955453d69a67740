//! The repository benchmark. One workload per run:
//!
//! ```text
//! cargo run --release --manifest-path kopbench/Cargo.toml -- \
//!     --workload tx_interp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` records spans around every layer call and reports the
//! per-layer metrics. Human-readable lines (every metric with its unit
//! and sample count, the environment stamp, the output checks and the
//! seed-exact counts) come first; the last line of standard output is
//! one JSON result object. The process exits 1 when an output check
//! failed and 2 on bad arguments.

mod env;
mod fleet_churn;
mod forward_native;
mod harness;
mod report;
mod spans;
mod stats;
mod tx_interp;

use std::io::Write;
use std::path::Path;

use harness::LaneStats;
use report::Metrics;
use spans::Recorder;

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed-phase length.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub traced: bool,
}

const WORKLOADS: [&str; 3] = ["tx_interp", "forward_native", "fleet_churn"];
const USAGE: &str =
    "usage: kopbench --workload <tx_interp|forward_native|fleet_churn> --seed <n> --seconds <1..=60> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 60)),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        traced: traced.unwrap_or(false),
    })
}

/// `setup_s`, throughput, latency and memory, common to all workloads.
fn e2e_common(m: &mut Metrics, lane: &LaneStats, setup_s: &[f64]) {
    m.e2e("setup_s", stats::median(setup_s), "s", Some(setup_s.len()));
    let calm = lane.calm().len();
    m.e2e("throughput_ops_s", lane.throughput(), "ops/s", Some(calm));
    let (p50, n) = lane.latency_p50();
    m.e2e("latency_p50_us", p50 / 1e3, "us", Some(n as usize));
    let (tail, n) = lane.latency_tail();
    m.e2e("latency_p99_us", tail / 1e3, "us", Some(n as usize));
    m.check(
        "calm chunks",
        calm > 0,
        format!("{calm} of {} chunks", lane.chunks.len()),
    );
    m.e2e("peak_rss_mb", env::peak_rss_mb().unwrap_or(0.0), "MB", None);
}

/// `insmod_p50_us`, `insmod_p99_us` and `publish_p99_us` from per-chunk
/// ns samples: the median over the calm chunks (each judged by its own
/// median, with `lane`'s calm share), the tails over all chunks (as for
/// request latency).
fn e2e_control(m: &mut Metrics, lane: &LaneStats, insmod_ns: &[Vec<f64>], publish_ns: &[Vec<f64>]) {
    let all: Vec<f64> = insmod_ns.iter().flatten().copied().collect();
    match stats::summarize(&harness::calm_pool(insmod_ns, lane.calm_share)) {
        Some(s) => m.e2e("insmod_p50_us", s.p50 / 1e3, "us", Some(s.n)),
        None => m.check("insmod_p50_us", false, "no samples"),
    }
    let publishes: Vec<f64> = publish_ns.iter().flatten().copied().collect();
    for (name, samples) in [("insmod_p99_us", all), ("publish_p99_us", publishes)] {
        match stats::summarize(&samples) {
            Some(s) => {
                m.e2e(name, s.tail / 1e3, "us", Some(s.n));
                if s.tail_pct != stats::TAIL_CEILING {
                    let detail = format!("p{} (too few samples for p99)", s.tail_pct);
                    m.check(&format!("{name} percentile"), true, detail);
                }
            }
            None => m.check(name, false, "no samples"),
        }
    }
}

/// `bench.unattributed_share` and `bench.trace_overhead_pct`.
fn bench_layer(m: &mut Metrics, rec: &Recorder, traced: &LaneStats, untraced: &LaneStats) {
    m.layer(
        "bench.unattributed_share",
        rec.unattributed_share(),
        "ratio",
    );
    let (t, u) = (traced.throughput(), untraced.throughput());
    m.layer(
        "bench.trace_overhead_pct",
        (1.0 - t / u.max(1e-9)) * 100.0,
        "%",
    );
}

/// Write the stamped result and the retained spans under `kopbench/out/`.
fn write_out(cfg: &Config, stamp: &env::Stamp, m: &Metrics, rec: &Recorder) -> std::io::Result<()> {
    let dir = Path::new("kopbench/out");
    std::fs::create_dir_all(dir)?;
    let tag = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.traced)
    );
    let mut f = std::io::BufWriter::new(std::fs::File::create(dir.join(format!("{tag}.json")))?);
    writeln!(
        f,
        "{{\"env\":{},\"result\":{},\"samples\":{{{}}},\"counts\":{{{}}}}}",
        stamp.to_json(),
        m.result_json(cfg.traced),
        m.reported(cfg.traced)
            .iter()
            .filter_map(|e| e.samples.map(|n| format!("{}:{n}", env::json_str(&e.name))))
            .collect::<Vec<_>>()
            .join(","),
        m.counts
            .iter()
            .map(|(k, v)| format!("{}:{v}", env::json_str(k)))
            .collect::<Vec<_>>()
            .join(","),
    )?;
    f.flush()?;
    if cfg.traced {
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{tag}.spans.jsonl")),
        )?);
        rec.write_jsonl(&mut f)?;
        f.flush()?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("kopbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let rec = Recorder::new();
    let mut m = match cfg.workload.as_str() {
        "tx_interp" => tx_interp::run(&cfg, &rec),
        "forward_native" => forward_native::run(&cfg, &rec),
        "fleet_churn" => fleet_churn::run(&cfg, &rec),
        _ => unreachable!("workload validated by parse_args"),
    };
    rec.set_enabled(false);
    let all_finite = m.reported(cfg.traced).iter().all(|e| e.value.is_finite());
    m.check("every metric is a finite number", all_finite, "");

    let stamp = env::Stamp::collect(&cfg.workload, cfg.seed, cfg.seconds, cfg.traced);
    println!(
        "# kopbench {} seed={} seconds={} mode={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        if cfg.traced { "traced" } else { "untraced" }
    );
    println!("# env {}", stamp.to_json());
    for line in m.text(cfg.traced) {
        println!("{line}");
    }
    if cfg.traced {
        println!("# spans retained for write-out: {}", rec.kept());
    }
    if let Err(e) = write_out(&cfg, &stamp, &m, &rec) {
        eprintln!("kopbench: could not write kopbench/out: {e}");
    }
    println!("{}", m.result_json(cfg.traced));
    if !m.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let c = parse_args(&args(
            "--workload fleet_churn --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (c.workload.as_str(), c.seed, c.seconds, c.traced),
            ("fleet_churn", 9, 12, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload tx_interp --trace 2")).is_err());
        assert!(parse_args(&args("--workload tx_interp --seed")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err());
    }
}
