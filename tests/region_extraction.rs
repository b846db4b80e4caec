//! Differential suite for region extraction: the indexed extractor
//! (`LocalRegion::extract_indexed`, obstacle candidates from a `LegalizedIndex`) and the
//! snapshot extractor (`LocalRegion::extract_snapshot`, candidates from an epoch-pinned
//! `StoreSnapshot`) must build exactly the region the full-scan `LocalRegion::extract`
//! builds: the same segments, the same localCells in the same order, and the same density
//! to the bit. Because all three share the classification and carving code, each region is
//! also checked against what extraction promises: every localCell lies inside the segments
//! of all its rows, and no other legalized cell overlaps a segment. Random designs mix
//! fixed macros, legalized movable cells (single- and multi-row, some straddling the window
//! so that they carve the segments) and unlegalized cells, and every case extracts several
//! random windows.

use flex::mgl::region::{LegalizedIndex, LocalRegion};
use flex::placement::geom::{Interval, Rect};
use flex::placement::segment::SegmentMap;
use flex::placement::store::EpochCellStore;
use flex::placement::{Cell, CellId, Design};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random design plus the unlegalized target cell the windows are extracted for. Fixed
/// macros and legalized cells do not overlap one another, as in a design being legalized;
/// unlegalized cells lie anywhere.
fn random_design(seed: u64) -> (Design, CellId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sites = rng.random_range(40..=160i64);
    let rows = rng.random_range(4..=16i64);
    let mut design = Design::new("extract", sites, rows);
    let mut occupied: Vec<Vec<Interval>> = vec![Vec::new(); rows as usize];
    let mut claim = |x: i64, w: i64, y: i64, h: i64| {
        let span = Interval::new(x, x + w);
        let free = (y..y + h).all(|r| occupied[r as usize].iter().all(|iv| !iv.overlaps(&span)));
        if free {
            for r in y..y + h {
                occupied[r as usize].push(span);
            }
        }
        free
    };
    for _ in 0..rng.random_range(0..=3) {
        let w = rng.random_range(2..=12i64);
        let h = rng.random_range(1..=rows.min(6));
        let x = rng.random_range(0..=sites - w);
        let y = rng.random_range(0..=rows - h);
        if claim(x, w, y, h) {
            design.add_cell(Cell::fixed(CellId(0), w, h, x, y));
        }
    }
    for _ in 0..rng.random_range(10..=80) {
        let w = rng.random_range(1..=8i64);
        let h = rng.random_range(1..=rows.min(4));
        let x = rng.random_range(0..=sites - w);
        let y = rng.random_range(0..=rows - h);
        let legalized = rng.random_range(0..5u32) != 0;
        if legalized && !claim(x, w, y, h) {
            continue;
        }
        let mut c = Cell::movable(CellId(0), w, h, x as f64, y as f64);
        c.x = x;
        c.y = y;
        c.legalized = legalized;
        design.add_cell(c);
    }
    let target = design.add_cell(Cell::movable(
        CellId(0),
        rng.random_range(1..=6i64),
        1,
        rng.random_range(0..sites) as f64,
        rng.random_range(0..rows) as f64,
    ));
    (design, target)
}

/// A random window inside the die (possibly one row or one site wide).
fn random_window(rng: &mut StdRng, design: &Design) -> Rect {
    let x_lo = rng.random_range(0..design.num_sites_x);
    let x_hi = rng.random_range(x_lo + 1..=design.num_sites_x);
    let y_lo = rng.random_range(0..design.num_rows);
    let y_hi = rng.random_range(y_lo + 1..=design.num_rows);
    Rect::new(x_lo, y_lo, x_hi, y_hi)
}

/// Assert two extractions built the same region, field by field.
fn assert_same_region(
    expect: &LocalRegion,
    got: &LocalRegion,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(expect.target, got.target, "{}: target", what);
    prop_assert_eq!(expect.window, got.window, "{}: window", what);
    prop_assert_eq!(&expect.segments, &got.segments, "{}: segments", what);
    prop_assert_eq!(&expect.cells, &got.cells, "{}: cells", what);
    prop_assert_eq!(
        expect.density.to_bits(),
        got.density.to_bits(),
        "{}: density",
        what
    );
    Ok(())
}

/// Assert what extraction promises about a region: every localCell lies inside the
/// segments of all its rows, and no other legalized movable cell overlaps a segment.
fn assert_extraction_invariants(
    design: &Design,
    target: CellId,
    region: &LocalRegion,
    what: &str,
) -> Result<(), TestCaseError> {
    for c in &design.cells {
        if c.fixed || !c.legalized || c.id == target {
            continue;
        }
        let local = region.cells.iter().any(|l| l.id == c.id);
        for r in c.rows() {
            let seg = region.segment(r);
            if local {
                prop_assert!(
                    seg.is_some_and(|s| s.span.contains_interval(&c.x_interval())),
                    "{}: localCell {:?} leaves row {}'s segment",
                    what,
                    c.id,
                    r
                );
            } else {
                prop_assert!(
                    !seg.is_some_and(|s| s.span.overlaps(&c.x_interval())),
                    "{}: cell {:?} overlaps row {}'s segment but is not local",
                    what,
                    c.id,
                    r
                );
            }
        }
    }
    Ok(())
}

/// Extract `windows` random windows of one random design three ways and compare. Returns
/// how many windows a legalized cell straddled (carving the segments).
fn check_extractors(seed: u64, windows: usize) -> Result<usize, TestCaseError> {
    let (design, target) = random_design(seed);
    let segmap = SegmentMap::build(&design);
    let index = LegalizedIndex::build(&design);
    let snapshot = EpochCellStore::capture(&design).snapshot();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut carved = 0;
    for _ in 0..windows {
        let window = random_window(&mut rng, &design);
        let full = LocalRegion::extract(&design, &segmap, target, window);
        let indexed = LocalRegion::extract_indexed(&design, &segmap, target, window, &index);
        let pinned = LocalRegion::extract_snapshot(&snapshot, &segmap, target, window);
        let what = format!("seed {seed} window {window:?}");
        assert_extraction_invariants(&design, target, &full, &what)?;
        assert_same_region(&full, &indexed, &format!("{what} indexed"))?;
        assert_same_region(&full, &pinned, &format!("{what} snapshot"))?;
        carved += design.cells.iter().any(|c| {
            !c.fixed
                && c.legalized
                && c.rect().overlaps(&window)
                && !full.cells.iter().any(|l| l.id == c.id)
        }) as usize;
    }
    Ok(carved)
}

/// The seed range below reaches windows that legalized cells straddle, so the carving
/// iterations (and the local mask they refresh) are exercised, not only whole-cell windows.
#[test]
fn extraction_differential_reaches_carved_segments() {
    let mut carved = 0;
    for seed in 0..200 {
        carved += check_extractors(seed, 8).unwrap_or_else(|e| panic!("{e}"));
    }
    assert!(carved > 0, "no window carved by a straddling cell");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The indexed and snapshot extractors build exactly the full-scan region.
    #[test]
    fn indexed_and_snapshot_extraction_equal_the_full_scan(seed in 0u64..1_000_000) {
        check_extractors(seed, 8)?;
    }
}
