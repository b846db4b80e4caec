//! The batch-legalization phase: a suite of generated designs legalized one by one with
//! `FlexAccelerator::legalize`, every result checked for legality.

use crate::stats;
use crate::{Check, Metrics};
use flex_core::accelerator::{FlexAccelerator, FlexOutcome};
use flex_obs::SpanEvent;
use flex_placement::benchmark::{generate, BenchmarkSpec};
use flex_placement::layout::Design;
use flex_placement::legality::check_legality_with;
use std::time::Instant;

/// Generator parameters of one workload's designs.
#[derive(Debug, Clone, Copy)]
pub struct SuiteSpec {
    /// Movable cells per design.
    pub cells: usize,
    /// Target density.
    pub density: f64,
}

/// Generator seed of design `i` of the suite drawn from `seed`.
pub fn design_seed(seed: u64, i: usize) -> u64 {
    crate::SplitMix64::new(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Generate the suite: `BenchmarkSpec::medium` with the workload's size and density.
pub fn generate_suite(spec: SuiteSpec, seed: u64, designs: usize) -> Vec<Design> {
    (0..designs)
        .map(|i| {
            let base = BenchmarkSpec::medium("perfbench", design_seed(seed, i));
            generate(
                &BenchmarkSpec {
                    num_cells: spec.cells,
                    ..base
                }
                .with_density(spec.density),
            )
        })
        .collect()
}

/// What legalizing the suite measured.
#[derive(Default)]
pub struct SuiteRun {
    /// Host wall seconds of each `FlexAccelerator::legalize` call.
    pub host_s: Vec<f64>,
    /// Every call's outcome, in suite order.
    pub outcomes: Vec<FlexOutcome>,
    /// Spans recorded during the calls (traced passes).
    pub spans: Vec<SpanEvent>,
}

/// Time one `FlexAccelerator::legalize` call, check its result and add it to `run`.
pub fn legalize_one(
    accelerator: &FlexAccelerator,
    design: &mut Design,
    run: &mut SuiteRun,
    check: &mut Check,
) {
    let start = Instant::now();
    let outcome = accelerator.legalize(std::hint::black_box(design));
    run.host_s.push(start.elapsed().as_secs_f64());
    let ok = outcome.result.legal
        && outcome.result.failed.is_empty()
        && check_legality_with(design, true).is_legal();
    // one attempted operation per movable cell; an unplaced cell or an illegal placement
    // fails it
    let failed = if ok {
        0
    } else {
        (outcome.result.failed.len() as u64).max(1)
    };
    check.record(design.num_movable() as u64, failed, || {
        format!(
            "design {} is not legal after legalization",
            run.outcomes.len()
        )
    });
    run.outcomes.push(outcome);
}

/// The end-to-end metrics of the phase. Times are the median over the suite's designs:
/// a few designs of every suite need many fallbacks and take several times the typical
/// time, and they would make a mean swing from seed to seed. Displacement is the suite
/// mean, like the paper's tables.
pub fn report(run: &SuiteRun, metrics: &mut Metrics) {
    let est: Vec<f64> = run.outcomes.iter().map(FlexOutcome::seconds).collect();
    let disp: Vec<f64> = run
        .outcomes
        .iter()
        .map(FlexOutcome::average_displacement)
        .collect();
    metrics.push("legalize_s", stats::median(&run.host_s), "s");
    metrics.push("flex_est_s", stats::median(&est), "s");
    metrics.push("avg_disp", stats::mean(&disp), "sites");
}

/// The named layers whose self time on the legalizing thread the table attributes; the
/// rest of the wall time (ordering, density upkeep, waiting on speculation) is reported
/// as `mgl.unattributed_s`.
const HOST_LAYERS: [(&str, &[&str]); 9] = [
    (
        "mgl.build_s",
        &["mgl.build_structures", "par.build_structures"],
    ),
    ("mgl.extract_s", &["mgl.extract"]),
    ("mgl.fop_s", &["mgl.fop"]),
    ("mgl.plan_commit_s", &["mgl.plan_commit"]),
    ("mgl.apply_commit_s", &["mgl.apply_commit"]),
    ("mgl.fallback_s", &["mgl.fallback_scan"]),
    ("mgl.verify_s", &["mgl.verify"]),
    ("par.commit_s", &["par.commit_batch"]),
    ("flex.estimate_s", &["flex.timing_estimate"]),
];

/// Per-layer metrics of a traced pass over the suite. `spans` holds every span recorded
/// during the pass, `host_s` the traced wall time of each call. Times are seconds per
/// design, like `legalize_s`; counts are totals over the suite.
pub fn layer_report(run: &SuiteRun, metrics: &mut Metrics) {
    let spans = &run.spans;
    let designs = run.host_s.len() as f64;
    let per_design = |ns: u64| ns as f64 * 1e-9 / designs;
    let times = stats::self_times(spans);
    // the legalizing thread is the one that recorded the accelerator's root span
    let host_tid = spans
        .iter()
        .find(|s| s.name == "flex.host_legalize")
        .map(|s| s.tid);
    let on_host = |name: &str| {
        times
            .iter()
            .filter(|((tid, n), _)| Some(*tid) == host_tid && *n == name)
            .fold(stats::LayerTime::default(), |mut acc, (_, t)| {
                acc.calls += t.calls;
                acc.total_ns += t.total_ns;
                acc.self_ns += t.self_ns;
                acc
            })
    };
    let anywhere = |name: &str| {
        times
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, t)| t.self_ns)
            .sum::<u64>()
    };

    let wall: f64 = run.host_s.iter().sum::<f64>() / designs;
    let mut attributed = 0.0;
    for (metric, names) in HOST_LAYERS {
        let ns: u64 = names.iter().map(|n| on_host(n).self_ns).sum();
        attributed += per_design(ns);
        metrics.push(metric, per_design(ns), "s");
    }
    metrics.push("mgl.wall_s", wall, "s");
    metrics.push("mgl.unattributed_s", wall - attributed, "s");

    let targets: u64 = run
        .outcomes
        .iter()
        .map(|o| {
            (o.result.placed_in_region + o.result.fallback_placed + o.result.failed.len()) as u64
        })
        .sum();
    let in_region: u64 = run
        .outcomes
        .iter()
        .map(|o| o.result.placed_in_region as u64)
        .sum();
    let fallbacks: u64 = run
        .outcomes
        .iter()
        .map(|o| o.result.fallback_placed as u64)
        .sum();
    let extract = on_host("mgl.extract");
    metrics.push("mgl.extract_calls", extract.calls as f64, "count");
    metrics.push(
        "mgl.extract_mean_us",
        if extract.calls == 0 {
            0.0
        } else {
            extract.total_ns as f64 * 1e-3 / extract.calls as f64
        },
        "us",
    );
    metrics.push("mgl.fop_calls", on_host("mgl.fop").calls as f64, "count");
    metrics.push("mgl.fallback_calls", fallbacks as f64, "count");
    metrics.push(
        "mgl.region_placed_frac",
        in_region as f64 / targets as f64,
        "ratio",
    );
    metrics.push(
        "mgl.expansions_per_target",
        extract.calls as f64 / targets as f64,
        "ratio",
    );

    let mut ops = flex_mgl::stats::FopOpStats::default();
    let mut work = flex_mgl::stats::WorkTrace::default();
    for o in &run.outcomes {
        ops.merge(&o.result.op_stats);
        if let Some(trace) = &o.result.trace {
            work.merge(trace);
        }
    }
    let op = |ns: u64| per_design(ns);
    metrics.push("fop.cell_shift_s", op(ops.cell_shift_ns), "s");
    metrics.push("fop.presort_s", op(ops.presort_ns), "s");
    metrics.push("fop.sort_bp_s", op(ops.sort_bp_ns + ops.merge_bp_ns), "s");
    metrics.push(
        "fop.traverse_s",
        op(ops.fwd_traverse_ns + ops.bwd_traverse_ns),
        "s",
    );
    // slope sums and value evaluation are timed only by the original (non-reorganized)
    // FOP pipeline
    metrics.push(
        "fop.other_s",
        op(ops.other_ns + ops.sum_slopes_l_ns + ops.sum_slopes_r_ns + ops.calc_value_ns),
        "s",
    );
    // the part of `mgl.fop_s` no operator timer covers
    metrics.push(
        "fop.unattributed_s",
        per_design(on_host("mgl.fop").self_ns) - op(ops.total_ns()),
        "s",
    );
    metrics.push("fop.insertion_points", work.total_points() as f64, "count");
    metrics.push("fop.breakpoints", work.total_breakpoints() as f64, "count");
    metrics.push(
        "fop.subcell_visits",
        work.total_subcell_visits() as f64,
        "count",
    );

    // the parallel engine's speculation runs on its own thread, overlapping the commits
    metrics.push(
        "par.speculate_s",
        per_design(anywhere("par.speculate_batch")),
        "s",
    );
    let shards: Vec<_> = run
        .outcomes
        .iter()
        .filter_map(|o| o.shards.as_ref())
        .collect();
    let speculated: usize = shards.iter().map(|s| s.speculated).sum();
    let hits: usize = shards.iter().map(|s| s.committed_speculatively).sum();
    metrics.push(
        "par.spec_hit_frac",
        if speculated == 0 {
            0.0
        } else {
            hits as f64 / speculated as f64
        },
        "ratio",
    );
    metrics.push(
        "par.dirty_recomputes",
        shards.iter().map(|s| s.dirty_recomputes).sum::<usize>() as f64,
        "count",
    );
    metrics.push(
        "par.cross_batch_invalidated",
        shards
            .iter()
            .map(|s| s.cross_batch_invalidated)
            .sum::<usize>() as f64,
        "count",
    );

    let timing =
        |f: &dyn Fn(&FlexOutcome) -> f64| run.outcomes.iter().map(f).sum::<f64>() / designs;
    metrics.push(
        "fpga.cycles",
        run.outcomes
            .iter()
            .map(|o| o.timing.fpga_cycles)
            .sum::<u64>() as f64,
        "count",
    );
    metrics.push(
        "fpga.time_s",
        timing(&|o| o.timing.fpga_time.as_secs_f64()),
        "s",
    );
    metrics.push(
        "flex.cpu_time_s",
        timing(&|o| o.timing.cpu_time.as_secs_f64()),
        "s",
    );
    metrics.push(
        "link.visible_transfer_s",
        timing(&|o| o.timing.visible_transfer.as_secs_f64()),
        "s",
    );
}
