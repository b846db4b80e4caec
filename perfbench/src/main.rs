//! The FLEX benchmark: one command, three workloads, end-to-end metrics by default and a
//! per-layer split with `--trace 1`.
//!
//! ```text
//! cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload legalize_medium --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Every workload is one session against the public APIs: generate a suite of designs from
//! `--seed`, legalize each with `FlexAccelerator::legalize`, and right after legalizing
//! every `serve_every`-th design, serve it with the supervised, journaled `EcoServer` and
//! drive a closed-loop ECO delta stream at it over its Unix socket. The workloads differ in
//! the designs, the host engine and how the run's work divides between the two phases (see
//! [`WORKLOADS`]). The amount of work is fixed by `--seed` and `--seconds`, so a run's
//! inputs and placements repeat exactly; `--seconds` sizes the work to take about that long
//! on a 2-vCPU container.
//!
//! Every output is checked: each legalized design must pass the legality check with no
//! unplaced cell, every ECO delta must be accepted and placed, and each served design must
//! be bit-identical to an in-process `EcoEngine` replay of its delta stream. The last line
//! of standard output is one JSON object; the exit code is 0 only if every check passed.

mod eco;
mod legalize;
mod stats;

use flex_core::accelerator::FlexAccelerator;
use flex_core::config::FlexConfig;
use legalize::SuiteSpec;
use std::path::PathBuf;
use std::time::Instant;

/// One named workload.
struct Workload {
    name: &'static str,
    /// Generator parameters of the suite's designs.
    suite: SuiteSpec,
    /// Host worker threads of the accelerator (above 1: the parallel MGL engine).
    host_threads: usize,
    /// Designs legalized per second of `--seconds`.
    designs_per_s: f64,
    /// Every how many legalized designs one is served by the ECO phase.
    serve_every: usize,
    /// ECO deltas (summed over the served designs) per second of `--seconds`.
    deltas_per_s: f64,
}

/// The workloads. Design sizes are small so that one run legalizes a whole suite: the
/// legalization cost of a single generated design varies severalfold with its seed, and
/// only a statistic over hundreds of designs is steady from seed to seed.
const WORKLOADS: [Workload; 3] = [
    // serial MGL host plus the FPGA model on medium-density designs: FOP-dominated, the
    // parallel engine bypassed
    Workload {
        name: "legalize_medium",
        suite: SuiteSpec {
            cells: 150,
            density: 0.55,
        },
        host_threads: 1,
        designs_per_s: 9.5,
        serve_every: 5,
        deltas_per_s: 100.0,
    },
    // the parallel engine (2 host threads, pipeline depth 2) on dense designs: more window
    // expansions, extraction and fallback per cell
    Workload {
        name: "legalize_dense",
        suite: SuiteSpec {
            cells: 150,
            density: 0.7,
        },
        host_threads: 2,
        designs_per_s: 7.0,
        serve_every: 5,
        deltas_per_s: 90.0,
    },
    // ECO-heavy: about half the run is requests through proto, service, supervise and
    // journal
    Workload {
        name: "eco_mixed",
        suite: SuiteSpec {
            cells: 150,
            density: 0.55,
        },
        host_threads: 1,
        designs_per_s: 6.0,
        serve_every: 2,
        deltas_per_s: 260.0,
    },
];

/// p99 needs ten samples beyond it.
const MIN_DELTAS: usize = 1100;

/// Times the suite is generated during set-up; the median is reported.
const SETUP_REPEATS: usize = 3;

/// A small deterministic generator (SplitMix64) for the benchmark's own inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Attempted and failed operations, plus what went wrong.
#[derive(Default)]
pub struct Check {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Check {
    /// Count `attempted` operations of which `failed` failed.
    pub fn record(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems.push(why());
        }
    }

    /// Note a wrong output (it also fails the run).
    pub fn note(&mut self, problem: String) {
        self.problems.push(problem);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// Metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Drains the span rings and keeps count of every span collected, so the run can prove
/// that no ring wrapped: spans recorded equal spans collected.
#[derive(Default)]
pub struct SpanLedger {
    collected: u64,
}

impl SpanLedger {
    /// Every span recorded since the last drain.
    pub fn drain(&mut self) -> Vec<flex_obs::SpanEvent> {
        let events = flex_obs::drain_spans();
        self.collected += events.len() as u64;
        events
    }

    /// Spans recorded but never collected.
    fn dropped(&self) -> u64 {
        let recorded: u64 = flex_obs::thread_rings()
            .iter()
            .map(|t| t.ring.recorded())
            .sum();
        recorded.saturating_sub(self.collected)
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(40.0),
        trace,
    })
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run(args: &Args, workdir: &std::path::Path, check: &mut Check) -> std::io::Result<Metrics> {
    let w = args.workload;
    // a traced run legalizes every design twice, so it takes half the designs
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let designs = ((seconds * w.designs_per_s).ceil() as usize).max(1);
    let total_deltas = ((seconds * w.deltas_per_s).ceil() as usize).max(MIN_DELTAS);
    let sessions = designs.div_ceil(w.serve_every);
    // the served designs are spread over the suite, each served right after it is
    // legalized, so both phases sample the whole run and a slow spell of the machine
    // lands on every metric alike
    let per_session = total_deltas.div_ceil(sessions);
    let config = FlexConfig::default().with_host_threads(w.host_threads);
    let accelerator = FlexAccelerator::new(config.clone());
    let cfg = config.mgl_config();
    let mut spans = SpanLedger::default();

    // set-up: generate the suite several times, keep the median time
    let mut generate_s = Vec::with_capacity(SETUP_REPEATS);
    let mut suite = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        suite = legalize::generate_suite(w.suite, args.seed, designs);
        generate_s.push(start.elapsed().as_secs_f64());
    }
    let mut copies = if args.trace {
        suite.clone()
    } else {
        Vec::new()
    };

    let mut batch = legalize::SuiteRun::default();
    let mut traced = legalize::SuiteRun::default();
    let mut eco_run = eco::EcoRun::default();
    for i in 0..designs {
        legalize::legalize_one(&accelerator, &mut suite[i], &mut batch, check);
        if args.trace {
            // the same design again with spans on; the untraced call just before it
            // is the baseline of the tracing overhead
            flex_obs::set_enabled(true);
            spans.drain();
            legalize::legalize_one(&accelerator, &mut copies[i], &mut traced, check);
            traced.spans.extend(spans.drain());
            if eco::fingerprint(&copies[i]) != eco::fingerprint(&suite[i]) {
                check.note(format!("tracing changed the placement of design {i}"));
            }
        }
        if i % w.serve_every == 0 {
            let seed = legalize::design_seed(args.seed ^ 0xEC0, i);
            let dir = workdir.join(format!("eco{i}"));
            let ledger = args.trace.then_some(&mut spans);
            eco_run.serve(&suite[i], &cfg, seed, per_session, &dir, ledger, check)?;
        }
        flex_obs::set_enabled(false);
    }

    let mut metrics = Metrics::default();
    if !args.trace {
        // every session pays the bring-up once; the median keeps one slow file-system
        // call from moving the figure
        let bringup = stats::median(&eco_run.bringup_s) * eco_run.bringup_s.len() as f64;
        let setup = stats::median(&generate_s) + bringup;
        metrics.push("setup_s", setup, "s");
        legalize::report(&batch, &mut metrics);
        metrics.push("peak_rss_mb", peak_rss_mb(), "MiB");
        eco::report(&eco_run, &mut metrics);
        return Ok(metrics);
    }
    metrics.push(
        "placement.generate_s",
        stats::median(&generate_s) / designs as f64,
        "s",
    );
    legalize::layer_report(&traced, &mut metrics);
    eco::layer_report(&eco_run, check, &mut metrics);
    metrics.push(
        "obs.tracing_overhead_frac",
        stats::mean(&traced.host_s) / stats::mean(&batch.host_s) - 1.0,
        "ratio",
    );
    let dropped = spans.dropped();
    if dropped > 0 {
        check.note(format!("{dropped} spans were dropped by wrapped rings"));
    }
    metrics.push("obs.spans_dropped", dropped as f64, "count");
    Ok(metrics)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `--spread`: read benchmark result lines from standard input (other lines are skipped)
/// and print each metric's median and interquartile range as a share of the median, the
/// steadiness figure a metric's bound is checked against.
fn spread() {
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for line in std::io::stdin().lines().map_while(Result::ok) {
        let Ok(result) = flex_eco::json::Json::parse(&line) else {
            continue;
        };
        let Some(flex_eco::json::Json::Obj(metrics)) = result.get("metrics") else {
            continue;
        };
        for (name, metric) in metrics {
            let v = metric.get("value").and_then(flex_eco::json::Json::as_f64);
            match values.iter_mut().find(|(n, _)| n == name) {
                Some((_, list)) => list.extend(v),
                None => values.push((name.clone(), v.into_iter().collect())),
            }
        }
    }
    println!(
        "{:<32} {:>4} {:>14} {:>8}",
        "metric", "runs", "median", "spread"
    );
    for (name, list) in &values {
        let spread = stats::relative_spread(list).map_or("-".to_string(), |s| format!("{s:.4}"));
        println!(
            "{name:<32} {:>4} {:>14.6} {spread:>8}",
            list.len(),
            stats::median(list)
        );
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--spread") {
        spread();
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let workdir = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    let mut check = Check::default();
    let result = std::fs::create_dir_all(&workdir).and_then(|_| run(&args, &workdir, &mut check));
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    for (name, value, unit) in &metrics.0 {
        if !value.is_finite() {
            check.note(format!("{name} is not a finite number"));
        }
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for problem in &check.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.correct(),
        check.attempted,
        check.failed,
        fields.join(", ")
    );
    if !check.correct() {
        std::process::exit(1);
    }
}
