//! Differential property suite for the arena-allocated FOP kernel.
//!
//! The scratch-based kernel (`fop::find_optimal_position_with`) must return **bit-identical**
//! results to the allocating reference implementation (`fop::reference`) it replaced: the
//! same `Placement` (x, row, cost — exact float equality, no tolerance), the same work
//! counters (they feed the FPGA performance model and the golden traces), for both
//! [`FopVariant`]s and both [`ShiftAlgorithm`]s, on randomly generated regions. The commit
//! plan derived from a placement must likewise match the one derived from the allocating
//! shift functions, and the scratch shifting kernels must match the allocating shift
//! functions problem by problem. The scratch kernels report only the cells a phase moved;
//! the allocating functions report every participant, so the oracle's positions are
//! compared after dropping the entries whose position did not change (same entries, same
//! order).

use flex::mgl::config::{FopVariant, MglConfig, ShiftAlgorithm};
use flex::mgl::fop::{self, FopScratch, TargetSpec};
use flex::mgl::insertion::enumerate_insertion_points;
use flex::mgl::legalize::plan_commit_with;
use flex::mgl::region::{LocalCell, LocalRegion, LocalSegment, RowIndex};
use flex::mgl::sacs::{shift_phase_sacs_with_stats, shift_phase_sacs_with_stats_into};
use flex::mgl::shift::{
    shift_original, shift_phase_original, shift_phase_original_with, Phase, ShiftOutcome,
    ShiftProblem, ShiftScratch,
};
use flex::mgl::stats::FopOpStats;
use flex::placement::cell::CellId;
use flex::placement::geom::{Interval, Rect};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How [`random_case`] lays out a region.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    /// Every row spans the whole window; cells lie in span and do not overlap.
    Plain,
    /// Every row gets its own segment span inside `[0, width)` (as obstacles carve real
    /// localSegments), and each cell lies inside the spans of all its rows, so a multi-row
    /// cell's rows can end at different x.
    Carved,
    /// Carved spans and rows that are not clean: some cells overlap others or reach past
    /// their rows' spans, and one region in four holds zero-width cells. Real regions never
    /// look like this, but the kernels must still agree with the oracle on them, and these
    /// are the rows the sparse sweep cannot skip.
    Unclean,
}

const LAYOUTS: [Layout; 3] = [Layout::Plain, Layout::Carved, Layout::Unclean];

/// Build a random region (possibly multi-row cells, laid out as `layout` says) plus a
/// target spec. `Plain` and `Carved` draw the same random numbers as they always have, so
/// a seed keeps its case.
fn random_case(seed: u64, layout: Layout) -> (LocalRegion, TargetSpec) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = rng.random_range(1..=5i64);
    let width = rng.random_range(24..=96i64);
    let unclean = layout == Layout::Unclean;
    let spans: Vec<Interval> = (0..rows)
        .map(|_| {
            if layout == Layout::Plain {
                Interval::new(0, width)
            } else {
                Interval::new(
                    rng.random_range(0..=width / 4),
                    rng.random_range(3 * width / 4..=width),
                )
            }
        })
        .collect();
    let zero_widths = unclean && rng.random_range(0..4u32) == 0;
    let mut region = LocalRegion {
        target: CellId(100_000),
        window: Rect::new(0, 0, width, rows),
        segments: (0..rows)
            .map(|r| LocalSegment {
                row: r,
                span: spans[r as usize],
            })
            .collect(),
        cells: Vec::new(),
        density: 0.0,
    };
    let mut occupied: Vec<Vec<Interval>> = vec![Vec::new(); rows as usize];
    let mut id = 0u32;
    for _ in 0..rng.random_range(4..=24) {
        let h = rng.random_range(1..=rows.min(4));
        let y = rng.random_range(0..=(rows - h));
        let mut w = rng.random_range(2..=8i64);
        let (may_overlap, stray) = if unclean {
            if zero_widths && rng.random_range(0..6u32) == 0 {
                w = 0;
            }
            (
                rng.random_range(0..3u32) == 0,
                rng.random_range(0..6u32) == 0,
            )
        } else {
            (false, false)
        };
        let rows_of_cell = &spans[y as usize..(y + h) as usize];
        let mut lo = rows_of_cell.iter().map(|s| s.lo).max().unwrap();
        let mut hi = rows_of_cell.iter().map(|s| s.hi).min().unwrap();
        if stray {
            lo = (lo - 3).max(0);
            hi += 3;
        }
        if lo > hi - w {
            continue;
        }
        let x = rng.random_range(lo..=(hi - w));
        let span = Interval::new(x, x + w);
        let clash = (y..y + h).any(|r| occupied[r as usize].iter().any(|iv| iv.overlaps(&span)));
        if clash && !may_overlap {
            continue;
        }
        for r in y..y + h {
            occupied[r as usize].push(span);
        }
        region.cells.push(LocalCell {
            id: CellId(id),
            x,
            y,
            width: w,
            height: h,
            gx: x as f64 + rng.random_range(-4..=4i64) as f64,
        });
        id += 1;
    }
    let target = TargetSpec {
        width: rng.random_range(2..=9i64),
        height: rng.random_range(1..=rows),
        gx: rng.random_range(0..width) as f64,
        gy: rng.random_range(0..rows) as f64 + 0.25,
        parity: match rng.random_range(0..4u32) {
            0 => Some(0),
            1 => Some(1),
            _ => None,
        },
    };
    (region, target)
}

/// What the shifting problems of one random case reached.
#[derive(Debug, Default)]
struct Reach {
    /// The original algorithm's pass count of each feasible problem.
    passes: Vec<u32>,
    /// Feasible problems whose oracle moved a cell that lies only in non-target rows, one
    /// of them not clean (cells out of span or overlapping): the rows the sparse sweep must
    /// sweep in pass 1 although no push reaches them.
    unclean_row_moves: usize,
    /// Problems on a region with a zero-width cell, where every row is swept every pass.
    zero_width_problems: usize,
}

/// Rows whose cells, sorted by `(x, index)`, leave the row's span or overlap.
fn unclean_rows(region: &LocalRegion) -> Vec<i64> {
    region
        .segments
        .iter()
        .filter(|seg| {
            let row = region.cells_in_row(seg.row);
            let cells = &region.cells;
            !row.iter()
                .all(|&i| cells[i].x >= seg.span.lo && cells[i].right() <= seg.span.hi)
                || !row.windows(2).all(|w| cells[w[0]].right() <= cells[w[1]].x)
        })
        .map(|seg| seg.row)
        .collect()
}

/// The oracle's outcome as the scratch kernels report it: only the moved cells, in the
/// oracle's order.
fn moved_only(region: &LocalRegion, mut outcome: ShiftOutcome) -> ShiftOutcome {
    outcome.positions.retain(|&(i, x)| x != region.cells[i].x);
    outcome
}

/// Run every shifting problem of one random case through the scratch kernels and the
/// allocating functions: every insertion point, both phases, at `x_lo`, the middle and
/// `x_hi`. Asserts that the moved cells' positions (in order), passes, visits, SACS stats
/// and `Err` agree, and reports what the problems reached.
fn check_shift_kernels(
    seed: u64,
    layout: Layout,
    scratch: &mut ShiftScratch,
) -> Result<Reach, TestCaseError> {
    let (region, target) = random_case(seed, layout);
    let points = enumerate_insertion_points(
        &region,
        target.width,
        target.height,
        target.parity,
        target.gx,
        160,
    );
    let unclean = unclean_rows(&region);
    let zero_width = region.cells.iter().any(|c| c.width == 0);
    scratch.begin_region(&region);
    let mut out = ShiftOutcome::default();
    let mut reach = Reach::default();
    for point in &points {
        for target_x in [point.x_lo, (point.x_lo + point.x_hi) / 2, point.x_hi] {
            let problem = ShiftProblem {
                region: &region,
                point,
                target_width: target.width,
                target_height: target.height,
                target_x,
            };
            for phase in [Phase::Left, Phase::Right] {
                let expect = shift_phase_original(&problem, phase);
                let got = shift_phase_original_with(&problem, phase, scratch, &mut out)
                    .map(|()| out.clone());
                prop_assert_eq!(
                    &expect.clone().map(|o| moved_only(&region, o)),
                    &got,
                    "original: seed {} {:?} x {} {:?}",
                    seed,
                    layout,
                    target_x,
                    phase
                );
                reach.zero_width_problems += zero_width as usize;
                if let Ok(o) = &expect {
                    reach.passes.push(o.passes);
                    let target_rows = problem.target_rows();
                    reach.unclean_row_moves += o.positions.iter().any(|&(i, x)| {
                        let c = &region.cells[i];
                        x != c.x
                            && !c.rows().any(|r| target_rows.contains(&r))
                            && c.rows().any(|r| unclean.contains(&r))
                    }) as usize;
                }

                let expect = shift_phase_sacs_with_stats(&problem, phase)
                    .map(|(o, stats)| (moved_only(&region, o), stats));
                let got = shift_phase_sacs_with_stats_into(&problem, phase, scratch, &mut out)
                    .map(|stats| (out.clone(), stats));
                prop_assert_eq!(
                    expect,
                    got,
                    "sacs: seed {} {:?} x {} {:?}",
                    seed,
                    layout,
                    target_x,
                    phase
                );
            }
        }
    }
    Ok(reach)
}

/// The seed range the kernel differential covers reaches every path of the sparse sweep:
/// problems that need a repeat pass (≥ 3 passes), problems whose one moving pass is
/// followed by the confirmation pass the scratch kernel counts instead of running (exactly
/// 2 passes), pushes in unclean rows no target push reaches, and regions with zero-width
/// cells.
#[test]
fn shift_kernel_differential_reaches_both_fixpoint_endings() {
    let mut scratch = ShiftScratch::default();
    let (mut two, mut repeat, mut unclean, mut zero_width) = (0usize, 0usize, 0usize, 0usize);
    for seed in 0..400 {
        for layout in LAYOUTS {
            let reach =
                check_shift_kernels(seed, layout, &mut scratch).unwrap_or_else(|e| panic!("{e}"));
            two += reach.passes.iter().filter(|&&p| p == 2).count();
            repeat += reach.passes.iter().filter(|&&p| p >= 3).count();
            unclean += reach.unclean_row_moves;
            zero_width += reach.zero_width_problems;
        }
    }
    assert!(two > 0, "no problem with exactly 2 passes");
    assert!(repeat > 0, "no problem needing a repeat pass");
    assert!(unclean > 0, "no push in an unclean non-target row");
    assert!(
        zero_width > 0,
        "no problem on a region with a zero-width cell"
    );
}

const CONFIGS: [(ShiftAlgorithm, FopVariant); 4] = [
    (ShiftAlgorithm::Original, FopVariant::Original),
    (ShiftAlgorithm::Original, FopVariant::Reorganized),
    (ShiftAlgorithm::Sacs, FopVariant::Original),
    (ShiftAlgorithm::Sacs, FopVariant::Reorganized),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scratch kernel returns bit-identical placements and work counters to the
    /// allocating reference, with one scratch reused across every case and configuration
    /// (which also exercises cross-region buffer reuse).
    #[test]
    fn scratch_fop_is_bit_identical_to_the_reference(seed in 0u64..1_000_000) {
        let mut scratch = FopScratch::new();
        for ((shift, fopv), layout) in CONFIGS.into_iter().flat_map(|c| LAYOUTS.map(|l| (c, l))) {
            let (region, target) = random_case(seed, layout);
            let cfg = MglConfig {
                shift,
                fop: fopv,
                ..MglConfig::default()
            };
            let mut s_ref = FopOpStats::default();
            let mut s_new = FopOpStats::default();
            let reference = fop::reference::find_optimal_position(&region, &target, &cfg, &mut s_ref);
            let scratched =
                fop::find_optimal_position_with(&region, &target, &cfg, &mut s_new, &mut scratch);
            prop_assert_eq!(
                &reference.best,
                &scratched.best,
                "placement diverged: seed {} {:?} shift {:?} fop {:?}",
                seed,
                layout,
                shift,
                fopv
            );
            prop_assert_eq!(
                &reference.work,
                &scratched.work,
                "work counters diverged: seed {} {:?} shift {:?} fop {:?}",
                seed,
                layout,
                shift,
                fopv
            );
        }
    }

    /// The scratch shifting kernels equal the allocating shift functions on every problem of
    /// a random region, with one scratch reused across cases.
    #[test]
    fn scratch_shift_kernels_match_the_allocating_functions(seed in 0u64..1_000_000) {
        let mut scratch = ShiftScratch::default();
        for layout in LAYOUTS {
            check_shift_kernels(seed, layout, &mut scratch)?;
        }
    }

    /// The scratch-backed insertion-point enumeration, reading a [`RowIndex`], resolves
    /// exactly the points of the allocating oracle — same points, same order (the order
    /// matters: the `max_points` cap keeps a prefix) — with one scratch reused across every
    /// case.
    #[test]
    fn scratch_enumeration_is_identical_to_the_allocating_oracle(seed in 0u64..1_000_000) {
        use flex::mgl::insertion::{enumerate_insertion_points, enumerate_insertion_points_into, InsertionScratch};
        let (region, target) = random_case(seed, Layout::Plain);
        let mut rows = RowIndex::default();
        rows.build(&region);
        let mut scratch = InsertionScratch::default();
        for cap in [160usize, 7] {
            let expect = enumerate_insertion_points(
                &region, target.width, target.height, target.parity, target.gx, cap,
            );
            let n = enumerate_insertion_points_into(
                &region, &rows, target.width, target.height, target.parity, target.gx, cap, &mut scratch,
            );
            prop_assert_eq!(n, expect.len(), "seed {} cap {}: point count", seed, cap);
            prop_assert_eq!(scratch.points(), &expect[..], "seed {} cap {}", seed, cap);
        }
    }

    /// Commit planning through the scratch arena matches the positions the allocating shift
    /// functions produce, and is insensitive to scratch reuse (fresh scratch ≡ warm scratch).
    #[test]
    fn scratch_commit_plans_match_allocating_shift_positions(seed in 0u64..1_000_000) {
        for ((shift, fopv), layout) in CONFIGS.into_iter().flat_map(|c| LAYOUTS.map(|l| (c, l))) {
            let (region, target) = random_case(seed, layout);
            let cfg = MglConfig {
                shift,
                fop: fopv,
                ..MglConfig::default()
            };
            let mut stats = FopOpStats::default();
            let mut warm = FopScratch::new();
            let out = fop::find_optimal_position_with(&region, &target, &cfg, &mut stats, &mut warm);
            let Some(best) = out.best else { continue };

            let warm_plan = plan_commit_with(&region, &best, &target, &cfg, &mut warm);
            let fresh_plan = plan_commit_with(&region, &best, &target, &cfg, &mut FopScratch::new());
            prop_assert_eq!(&warm_plan, &fresh_plan, "seed {}: scratch reuse changed the plan", seed);

            if let Some(plan) = warm_plan {
                // the plan's moves must equal the allocating canonical shift at the
                // committed position (SACS reorders its streaming output but resolves to
                // the same per-cell positions, so the canonical fixpoint is the oracle)
                let problem = ShiftProblem {
                    region: &region,
                    point: &best.point,
                    target_width: target.width,
                    target_height: target.height,
                    target_x: best.x,
                };
                let (left, right) = shift_original(&problem).expect("committed plan implies feasible shift");
                let mut pos: Vec<i64> = region.cells.iter().map(|c| c.x).collect();
                for phase in [Phase::Left, Phase::Right] {
                    let outps = if phase == Phase::Left { &left } else { &right };
                    for &(i, x) in &outps.positions {
                        pos[i] = x;
                    }
                }
                for &(id, new_x) in &plan.moves {
                    let idx = region.cells.iter().position(|c| c.id == id).unwrap();
                    prop_assert_eq!(pos[idx], new_x, "seed {}: move mismatch for cell {:?}", seed, id);
                    prop_assert!(region.cells[idx].x != new_x, "plan contains a no-op move");
                }
                prop_assert_eq!(plan.x, best.x);
                prop_assert_eq!(plan.row, best.row);
            }
        }
    }
}
