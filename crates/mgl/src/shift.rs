//! The original multi-pass cell-shifting algorithm (Fig. 6, Algorithm 3 of the paper).
//!
//! Inserting the target cell into an insertion point splices it into every target row's cell
//! sequence: `…left-chain cells, target, right-chain cells…`. Cell shifting resolves the
//! overlaps this creates by pushing the left-chain cells further left (*left-move* phase) and
//! the right-chain cells further right (*right-move* phase); pushed multi-row cells cascade the
//! pressure into neighbouring rows, where cells are plain positional obstacles.
//!
//! The original algorithm traverses subcells bottom-to-top / right-to-left (for the left-move)
//! with a `finish` flag and repeats whole passes until no cell moves, because a multi-row cell
//! moved in one row can create an overlap in another row that the current pass has already
//! visited. The number of passes is unpredictable, which is exactly the property FLEX's SACS
//! algorithm (see [`crate::sacs`]) removes.
//!
//! The allocating [`shift_phase_original`] is the reference. The scratch kernel
//! ([`shift_phase_original_with`]) computes the same fixpoint but sweeps a row only when the
//! sweep can move a cell: the target rows and rows whose cells overlap or leave their
//! segment in pass 1, then only rows a push reached (a pushed multi-row cell marks its other
//! rows dirty) or rows whose last sweep passed a static edge too early. It reports only the
//! cells it moved.

use crate::insertion::InsertionPoint;
use crate::region::{LocalCell, LocalRegion, RowIndex};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Which shifting phase to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Push the cells on the left of the target further left.
    Left,
    /// Push the cells on the right of the target further right.
    Right,
}

/// A cell-shifting problem: a region, an insertion point, and a trial target position.
#[derive(Debug, Clone, Copy)]
pub struct ShiftProblem<'a> {
    /// The localRegion being legalized.
    pub region: &'a LocalRegion,
    /// The insertion point whose chains define which cells sit left/right of the target.
    pub point: &'a InsertionPoint,
    /// Width of the target cell in sites.
    pub target_width: i64,
    /// Height of the target cell in rows.
    pub target_height: i64,
    /// Trial left-edge position of the target cell.
    pub target_x: i64,
}

impl<'a> ShiftProblem<'a> {
    /// Rows the target would occupy.
    pub fn target_rows(&self) -> std::ops::Range<i64> {
        self.point.bottom_row..self.point.bottom_row + self.target_height
    }

    /// Indices of the localCells designated to the **right** of the insertion interval.
    pub fn right_designated(&self) -> BTreeSet<usize> {
        self.point.right_chain.iter().flatten().copied().collect()
    }

    /// Indices of the localCells designated to the **left** of the insertion interval.
    pub fn left_designated(&self) -> BTreeSet<usize> {
        self.point.left_chain.iter().flatten().copied().collect()
    }

    /// Cells that move in `phase` (the phase's own chain).
    pub fn movers(&self, phase: Phase) -> BTreeSet<usize> {
        match phase {
            Phase::Left => self.left_designated(),
            Phase::Right => self.right_designated(),
        }
    }

    /// Cells that are immovable obstacles in `phase` (the opposite chain).
    pub fn statics(&self, phase: Phase) -> BTreeSet<usize> {
        match phase {
            Phase::Left => self.right_designated(),
            Phase::Right => self.left_designated(),
        }
    }
}

/// Result of one shifting phase.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShiftOutcome {
    /// `(cell index in region, final x)` in output order: every cell the phase considered
    /// (allocating functions), or only the cells it moved (scratch kernels).
    pub positions: Vec<(usize, i64)>,
    /// Number of full traversal passes (always 1 for SACS).
    pub passes: u32,
    /// Number of subcell visits performed (the work metric driving Fig. 2(g)).
    pub subcell_visits: u64,
}

impl ShiftOutcome {
    /// The positions as a map keyed by region cell index.
    pub fn as_map(&self) -> std::collections::BTreeMap<usize, i64> {
        self.positions.iter().copied().collect()
    }
}

/// A grow-only pool of per-segment lists (reused across problems and regions).
#[derive(Debug, Clone, Default)]
struct SegLists<T> {
    lists: Vec<Vec<T>>,
    len: usize,
}

impl<T> SegLists<T> {
    fn reset(&mut self, n: usize) {
        while self.lists.len() < n {
            self.lists.push(Vec::new());
        }
        for l in self.lists.iter_mut().take(n) {
            l.clear();
        }
        self.len = n;
    }

    fn get_mut(&mut self, i: usize) -> &mut Vec<T> {
        debug_assert!(i < self.len);
        &mut self.lists[i]
    }
}

/// The part a cell plays in one shifting phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Role {
    /// Neither chain: pushed only as a positional obstacle in non-target rows.
    #[default]
    Free,
    /// The phase's own chain.
    Mover,
    /// The opposite chain: an immovable obstacle.
    Static,
}

/// Per-segment sweep state of one problem.
#[derive(Debug, Clone, Copy, Default)]
struct RowState {
    /// The next pass must sweep this row: a cell in it moved after its last sweep, or that
    /// sweep pushed a cell past a static edge it had not folded.
    dirty: bool,
    /// The row's traversal and static-edge lists are built.
    built: bool,
}

/// Reusable buffers for the shifting phases: one instance per engine (or per worker thread)
/// serves every insertion point of every region without reallocating.
///
/// Usage contract: call [`ShiftScratch::begin_region`] once per [`LocalRegion`], then any
/// number of [`shift_phase_original_with`] /
/// [`shift_phase_sacs_with_stats_into`](crate::sacs::shift_phase_sacs_with_stats_into) calls
/// against that region. `begin_region` builds the region's [`RowIndex`] (the SACS Ahead
/// Sorter and every segment's row list in that order), the region's subcell totals and the
/// per-row cleanliness flags once per region. A problem then costs time in the cells it
/// touches, not in the region: it marks its chains' roles, sweeps only the rows a push can
/// reach (see [`shift_phase_original_with`]), and the next problem undoes exactly the marks
/// and moves the last one made. Results are bit-identical to the allocating functions (same
/// traversal orders, same arithmetic), except that the outcome lists only the moved cells.
#[derive(Debug, Clone, Default)]
pub struct ShiftScratch {
    /// Working x positions, indexed by region cell index; equal to the region's positions
    /// except for the cells in [`Self::moved`].
    pos: Vec<i64>,
    /// Each cell's role in the current phase; `Free` except for the cells in `marked`.
    roles: Vec<Role>,
    /// Cells whose role the current problem set.
    marked: Vec<usize>,
    /// Cells the current problem moved, in first-push order until the output sorts them.
    moved: Vec<usize>,
    /// Region-lifetime: the Ahead Sorter and the per-segment row lists.
    pub(crate) rows: RowIndex,
    /// Region-lifetime: per segment, whether its cells at region positions are in span and
    /// overlap-free (a sweep of such a row moves nothing until one of its cells moves).
    row_clean: Vec<bool>,
    /// Region-lifetime: total entries of all row lists.
    row_entries: u64,
    /// Region-lifetime: subcells (occupied rows) of every cell, and of cells taller than 3
    /// rows.
    pub(crate) subcells: Subcells,
    /// Region-lifetime: every cell is at least one site wide (sparse sweeping relies on it;
    /// see [`shift_phase_original_with`]).
    positive_widths: bool,
    /// Problem-lifetime: subcells of the phase's distinct static cells.
    pub(crate) static_subcells: Subcells,
    /// Problem-lifetime: per segment, sweep state.
    row_state: Vec<RowState>,
    /// Problem-lifetime: per segment, the movable traversal list in phase order (re-sorted
    /// by position only when a pass left it out of order).
    traverse: SegLists<usize>,
    /// Problem-lifetime: per segment, static obstacle edges in phase order.
    static_edges: SegLists<(i64, i64)>,
    /// Identity of the region `begin_region` indexed (misuse guard).
    region_key: Option<RegionKey>,
}

/// Subcell counts: all subcells, and those of cells taller than 3 rows.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Subcells {
    /// Every occupied row of every counted cell.
    pub(crate) all: u64,
    /// The occupied rows of counted cells taller than 3 rows.
    pub(crate) tall: u64,
}

impl Subcells {
    fn add(&mut self, height: i64) {
        let rows = height as u64;
        self.all += rows;
        if height > 3 {
            self.tall += rows;
        }
    }
}

/// Identity of the region a [`ShiftScratch`] was prepared for: enough to tell two regions
/// of the legalization flow apart (the same target re-extracts with a different window on
/// every expansion level, and different targets differ in `target`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RegionKey {
    target: flex_placement::cell::CellId,
    window: (i64, i64, i64, i64),
    cells: usize,
    segments: usize,
}

impl RegionKey {
    fn of(region: &LocalRegion) -> Self {
        Self {
            target: region.target,
            window: (
                region.window.x_lo,
                region.window.y_lo,
                region.window.x_hi,
                region.window.y_hi,
            ),
            cells: region.cells.len(),
            segments: region.segments.len(),
        }
    }
}

impl ShiftScratch {
    /// Index `region`: build its [`RowIndex`], flag the clean rows and total the region's
    /// subcells. Must be called before the scratch
    /// shifting functions are used on problems of that region.
    pub fn begin_region(&mut self, region: &LocalRegion) {
        debug_assert!(
            region.segments.windows(2).all(|w| w[0].row < w[1].row),
            "LocalRegion segments must be sorted by row (see LocalRegion::segments)"
        );
        let cells = &region.cells;
        let n = cells.len();
        self.rows.build(region);
        self.subcells = Subcells::default();
        for c in cells {
            self.subcells.add(c.height);
        }
        self.row_clean.clear();
        self.row_entries = 0;
        for (s, seg) in region.segments.iter().enumerate() {
            let row = self.rows.row(s);
            self.row_entries += row.len() as u64;
            let in_span = row.iter().all(|&i| {
                let c = &cells[i];
                c.x >= seg.span.lo && c.right() <= seg.span.hi
            });
            let apart = row.windows(2).all(|w| cells[w[0]].right() <= cells[w[1]].x);
            self.row_clean.push(in_span && apart);
        }
        self.positive_widths = cells.iter().all(|c| c.width > 0);
        self.pos.clear();
        self.pos.extend(cells.iter().map(|c| c.x));
        self.roles.clear();
        self.roles.resize(n, Role::Free);
        self.marked.clear();
        self.moved.clear();
        self.region_key = Some(RegionKey::of(region));
    }

    /// Whether cell `i` was a static (opposite-chain) cell of the last phase run.
    pub(crate) fn is_static(&self, i: usize) -> bool {
        self.roles[i] == Role::Static
    }

    /// Write the cells the last phase run moved, with their final positions, into `out`:
    /// in ascending cell index (`stream: None`, the original algorithm's order) or in the
    /// Ahead-Sorter order SACS streams a phase in (`Some(phase)`: descending for the
    /// left-move, ascending for the right-move).
    pub(crate) fn emit_moved(
        &mut self,
        cells: &[LocalCell],
        stream: Option<Phase>,
        out: &mut ShiftOutcome,
    ) {
        let Self { moved, pos, .. } = self;
        let ahead = |&i: &usize| (cells[i].x, i);
        match stream {
            None => moved.sort_unstable(),
            Some(Phase::Left) => moved.sort_unstable_by_key(|i| std::cmp::Reverse(ahead(i))),
            Some(Phase::Right) => moved.sort_unstable_by_key(ahead),
        }
        out.positions.clear();
        out.positions.extend(moved.iter().map(|&i| (i, pos[i])));
    }
}

/// Scratch twin of [`shift_phase_original`]: writes the outcome into `out` (positions vector
/// reused) instead of allocating, and reads the row index prepared by
/// [`ShiftScratch::begin_region`]. `out.positions` lists only the cells the phase moved, in
/// ascending cell index; the reference lists every participant, and the moved ones (those
/// with `x != region x`) carry identical positions in the same order. Passes and visit
/// counts are bit-identical.
///
/// The kernel sweeps a row only when the sweep can move a cell. The reference sweeps every
/// row on every pass; a sweep the kernel skips would move nothing there, so positions,
/// passes and `Err` agree. Three facts decide which sweeps can move something:
///
/// - **In-row order.** A sweep keeps the x order of the cells it visits in a row: every
///   visited cell ends up behind the bound its predecessor left, and a cell at least one
///   site wide therefore strictly behind that predecessor. The traversal lists start in
///   Ahead-Sorter order, and a sweep re-sorts a row only when it finds the row out of order
///   (a multi-row cell pushed in another row can overtake a neighbour).
/// - **Clean rows.** A non-target row whose cells lie inside the segment and do not
///   overlap (`row_clean`) holds no overlap a sweep could resolve, so until one of its
///   cells moves a sweep of it is a no-op. Pass 1 sweeps the target rows and the unclean
///   rows.
/// - **Swept rows stay settled.** A second sweep of a row changes nothing unless a cell of
///   the row moved after the first (a multi-row cell pushed in another of its rows), or
///   the first pushed a cell past a static edge its cursor had not folded yet (the second
///   would fold it earlier). Either marks the row dirty, and each pass sweeps the dirty
///   rows in row order: a dirty row above the current one in this pass, one below it in
///   the next.
///
/// The facts need every cell to be at least one site wide (a zero-width cell can tie a
/// neighbour and reorder the row); on a region with a narrower cell every row is swept on
/// every pass, as the reference does. The reference visits every traversal entry once per
/// pass, so the visit count is `passes × traversal length`; a row's lists are built on its
/// first sweep, and the length of a never-swept row is its size minus its static cells.
pub fn shift_phase_original_with(
    problem: &ShiftProblem<'_>,
    phase: Phase,
    scratch: &mut ShiftScratch,
    out: &mut ShiftOutcome,
) -> Result<(), Infeasible> {
    let (passes, visits) = resolve_with(problem, phase, scratch)?;
    scratch.emit_moved(&problem.region.cells, None, out);
    out.passes = passes;
    out.subcell_visits = visits;
    Ok(())
}

/// Run the canonical shifting fixpoint for one phase on the scratch buffers (see
/// [`shift_phase_original_with`] for which rows it sweeps). On success the moved cells are
/// in `scratch.moved` (first-push order) with their resolved positions in `scratch.pos`, the
/// phase's roles in `scratch.roles` and the statics' subcells in `scratch.static_subcells`;
/// returns `(passes, subcell visits)`.
pub(crate) fn resolve_with(
    problem: &ShiftProblem<'_>,
    phase: Phase,
    scratch: &mut ShiftScratch,
) -> Result<(u32, u64), Infeasible> {
    let region = problem.region;
    let cells = &region.cells;
    let n = cells.len();
    // checked unconditionally: a stale row index would produce silently wrong positions
    assert_eq!(
        scratch.region_key,
        Some(RegionKey::of(region)),
        "ShiftScratch::begin_region was not called for this region"
    );

    let ShiftScratch {
        pos,
        roles,
        marked,
        moved,
        rows,
        row_clean,
        row_entries,
        positive_widths,
        static_subcells,
        row_state,
        traverse,
        static_edges,
        ..
    } = scratch;

    // undo the previous problem's moves and roles
    for &i in moved.iter() {
        pos[i] = cells[i].x;
    }
    moved.clear();
    for &i in marked.iter() {
        roles[i] = Role::Free;
    }
    marked.clear();

    let target_rows = problem.target_rows();
    let nsegs = region.segments.len();
    let dense = !*positive_widths;

    // phase roles; a cell in both chains is static, and a multi-row static appears in
    // several rows of its chain, so its subcells count once. Its entries in non-target rows
    // are static edges there, not traversal entries.
    *static_subcells = Subcells::default();
    let mut non_target_statics = 0u64;
    let (mover_chain, static_chain) = match phase {
        Phase::Left => (&problem.point.left_chain, &problem.point.right_chain),
        Phase::Right => (&problem.point.right_chain, &problem.point.left_chain),
    };
    for &i in mover_chain.iter().flatten() {
        roles[i] = Role::Mover;
        marked.push(i);
    }
    for &i in static_chain.iter().flatten() {
        if roles[i] != Role::Static {
            roles[i] = Role::Static;
            marked.push(i);
            let c = &cells[i];
            static_subcells.add(c.height);
            non_target_statics += c
                .rows()
                .filter(|r| !target_rows.contains(r) && region.segment_index(*r).is_some())
                .count() as u64;
        }
    }

    // pass 1 sweeps the target rows and the unclean rows (every row on a dense region)
    row_state.clear();
    let mut traversal_len = *row_entries - non_target_statics;
    for (s, seg) in region.segments.iter().enumerate() {
        let is_target_row = target_rows.contains(&seg.row);
        if is_target_row {
            traversal_len -= rows.row(s).len() as u64;
        }
        row_state.push(RowState {
            dirty: dense || is_target_row || !row_clean[s],
            built: false,
        });
    }
    traverse.reset(nsegs);
    static_edges.reset(nsegs);

    let mut passes = 0u32;
    loop {
        passes += 1;
        let mut finish = true;
        for (s, seg) in region.segments.iter().enumerate() {
            if !row_state[s].dirty {
                continue;
            }
            row_state[s].dirty = false;
            let is_target_row = target_rows.contains(&seg.row);
            let t = traverse.get_mut(s);
            let e = static_edges.get_mut(s);
            if !row_state[s].built {
                // the traversal and static-edge lists in phase order, straight from the
                // Ahead Sorter's row list (the reference rebuilds and re-sorts them every pass)
                row_state[s].built = true;
                let row = rows.row(s);
                for k in 0..row.len() {
                    let i = match phase {
                        Phase::Left => row[row.len() - 1 - k],
                        Phase::Right => row[k],
                    };
                    match roles[i] {
                        Role::Static if !is_target_row => e.push((cells[i].x, cells[i].width)),
                        Role::Static => {}
                        Role::Free if is_target_row => {}
                        Role::Free | Role::Mover => t.push(i),
                    }
                }
                if is_target_row {
                    traversal_len += t.len() as u64;
                }
            }
            let edges = &e[..];
            let mut cursor = 0usize;
            // whether a second sweep of this row could move anything (see the function docs)
            let mut resweep = false;
            let mut push =
                |i: usize, new_x: i64, pos: &mut Vec<i64>, row_state: &mut [RowState]| {
                    if pos[i] == cells[i].x {
                        moved.push(i);
                    }
                    pos[i] = new_x;
                    let c = &cells[i];
                    if c.height > 1 {
                        for r in c.rows().filter(|&r| r != seg.row) {
                            if let Some(o) = region.segment_index(r) {
                                row_state[o].dirty = true;
                            }
                        }
                    }
                };
            match phase {
                Phase::Left => {
                    let key = |&i: &usize| std::cmp::Reverse((pos[i], i));
                    if !t.is_sorted_by_key(key) {
                        t.sort_by_key(key);
                    }
                    let mut bound = if is_target_row {
                        seg.span.hi.min(problem.target_x)
                    } else {
                        seg.span.hi
                    };
                    for &i in t.iter() {
                        while cursor < edges.len() {
                            let (sx, _) = edges[cursor];
                            if sx >= pos[i] {
                                bound = bound.min(sx);
                                cursor += 1;
                            } else {
                                break;
                            }
                        }
                        let w = cells[i].width;
                        if pos[i] + w > bound {
                            let new_x = bound - w;
                            if new_x < seg.span.lo {
                                return Err(Infeasible);
                            }
                            push(i, new_x, pos, row_state);
                            finish = false;
                            resweep |= edges.get(cursor).is_some_and(|&(sx, _)| sx >= new_x);
                        }
                        bound = bound.min(pos[i]);
                    }
                }
                Phase::Right => {
                    let key = |&i: &usize| (pos[i], i);
                    if !t.is_sorted_by_key(key) {
                        t.sort_by_key(key);
                    }
                    let mut bound = if is_target_row {
                        seg.span.lo.max(problem.target_x + problem.target_width)
                    } else {
                        seg.span.lo
                    };
                    for &i in t.iter() {
                        while cursor < edges.len() {
                            let (sx, sw) = edges[cursor];
                            if sx <= pos[i] {
                                bound = bound.max(sx + sw);
                                cursor += 1;
                            } else {
                                break;
                            }
                        }
                        let w = cells[i].width;
                        if pos[i] < bound {
                            if bound + w > seg.span.hi {
                                return Err(Infeasible);
                            }
                            push(i, bound, pos, row_state);
                            finish = false;
                            resweep |= edges.get(cursor).is_some_and(|&(sx, _)| sx <= bound);
                        }
                        bound = bound.max(pos[i] + w);
                    }
                }
            }
            row_state[s].dirty |= dense || resweep;
        }
        if finish {
            break;
        }
        if passes > 4 * (n as u32 + 2) {
            return Err(Infeasible);
        }
        if !row_state.iter().any(|r| r.dirty) {
            // the next pass would sweep nothing: count it, one visit per traversal entry
            passes += 1;
            break;
        }
    }
    Ok((passes, passes as u64 * traversal_len))
}

/// Shifting failed: a cell would have to be pushed outside its localSegment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Infeasible;

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell shifting pushed a cell outside its localSegment")
    }
}

impl std::error::Error for Infeasible {}

/// Run one phase of the **original** multi-pass shifting algorithm.
pub fn shift_phase_original(
    problem: &ShiftProblem<'_>,
    phase: Phase,
) -> Result<ShiftOutcome, Infeasible> {
    let region = problem.region;
    let statics = problem.statics(phase);
    let movers = problem.movers(phase);
    let target_rows: Vec<i64> = problem.target_rows().collect();

    // working positions of the participants (everything that is not a static obstacle)
    let mut pos: Vec<i64> = region.cells.iter().map(|c| c.x).collect();
    let participants: Vec<usize> = (0..region.cells.len())
        .filter(|i| !statics.contains(i))
        .collect();

    let mut passes = 0u32;
    let mut visits = 0u64;
    loop {
        passes += 1;
        let mut finish = true;
        // bottom-to-top inter-row traversal
        for seg in &region.segments {
            let row = seg.row;
            let is_target_row = target_rows.contains(&row);

            // the movable cells this phase traverses in this row
            let mut traverse: Vec<usize> = participants
                .iter()
                .copied()
                .filter(|&i| region.cells[i].rows().any(|r| r == row))
                .filter(|&i| !is_target_row || movers.contains(&i))
                .collect();
            // static obstacles that are positional in this row (non-target rows only: in target
            // rows the opposite chain lives on the other side of the target and is handled by
            // the other phase)
            let mut static_edges: Vec<(i64, i64)> = if is_target_row {
                Vec::new()
            } else {
                region
                    .cells
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| statics.contains(i) && c.rows().any(|r| r == row))
                    .map(|(_, c)| (c.x, c.width))
                    .collect()
            };

            match phase {
                Phase::Left => {
                    traverse.sort_by_key(|&i| std::cmp::Reverse((pos[i], i)));
                    static_edges.sort_by_key(|&(x, _)| std::cmp::Reverse(x));
                    let mut statics_iter = static_edges.into_iter().peekable();
                    let mut bound = if is_target_row {
                        seg.span.hi.min(problem.target_x)
                    } else {
                        seg.span.hi
                    };
                    for i in traverse {
                        visits += 1;
                        // fold in static obstacles to the right of this cell's current position
                        while let Some(&(sx, _)) = statics_iter.peek() {
                            if sx >= pos[i] {
                                bound = bound.min(sx);
                                statics_iter.next();
                            } else {
                                break;
                            }
                        }
                        let w = region.cells[i].width;
                        if pos[i] + w > bound {
                            let new_x = bound - w;
                            if new_x < seg.span.lo {
                                return Err(Infeasible);
                            }
                            pos[i] = new_x;
                            finish = false;
                        }
                        bound = bound.min(pos[i]);
                    }
                }
                Phase::Right => {
                    traverse.sort_by_key(|&i| (pos[i], i));
                    static_edges.sort_by_key(|&(x, _)| x);
                    let mut statics_iter = static_edges.into_iter().peekable();
                    let mut bound = if is_target_row {
                        seg.span.lo.max(problem.target_x + problem.target_width)
                    } else {
                        seg.span.lo
                    };
                    for i in traverse {
                        visits += 1;
                        while let Some(&(sx, sw)) = statics_iter.peek() {
                            if sx <= pos[i] {
                                bound = bound.max(sx + sw);
                                statics_iter.next();
                            } else {
                                break;
                            }
                        }
                        let w = region.cells[i].width;
                        if pos[i] < bound {
                            if bound + w > seg.span.hi {
                                return Err(Infeasible);
                            }
                            pos[i] = bound;
                            finish = false;
                        }
                        bound = bound.max(pos[i] + w);
                    }
                }
            }
        }
        if finish {
            break;
        }
        // safety valve: the loop must terminate because every move is monotone and bounded, but
        // guard against degenerate regions anyway
        if passes > 4 * (region.cells.len() as u32 + 2) {
            return Err(Infeasible);
        }
    }

    Ok(ShiftOutcome {
        positions: participants.iter().map(|&i| (i, pos[i])).collect(),
        passes,
        subcell_visits: visits,
    })
}

/// Run both phases of the original algorithm and merge the outcomes.
pub fn shift_original(
    problem: &ShiftProblem<'_>,
) -> Result<(ShiftOutcome, ShiftOutcome), Infeasible> {
    let left = shift_phase_original(problem, Phase::Left)?;
    let right = shift_phase_original(problem, Phase::Right)?;
    Ok((left, right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::enumerate_insertion_points;
    use crate::region::{LocalCell, LocalRegion, LocalSegment};
    use flex_placement::cell::CellId;
    use flex_placement::geom::{Interval, Rect};

    /// Region reproducing the spirit of Fig. 6: multi-row cells that cascade across rows.
    fn fig6_region() -> LocalRegion {
        LocalRegion {
            target: CellId(99),
            window: Rect::new(0, 0, 40, 3),
            segments: vec![
                LocalSegment {
                    row: 0,
                    span: Interval::new(0, 40),
                },
                LocalSegment {
                    row: 1,
                    span: Interval::new(0, 40),
                },
                LocalSegment {
                    row: 2,
                    span: Interval::new(0, 40),
                },
            ],
            cells: vec![
                // a: 2-row cell on rows 0-1
                LocalCell {
                    id: CellId(0),
                    x: 10,
                    y: 0,
                    width: 4,
                    height: 2,
                    gx: 10.0,
                },
                // b: 1-row cell left of a on row 1
                LocalCell {
                    id: CellId(1),
                    x: 5,
                    y: 1,
                    width: 4,
                    height: 1,
                    gx: 5.0,
                },
                // c: 3-row cell on rows 0-2 to the left
                LocalCell {
                    id: CellId(2),
                    x: 1,
                    y: 0,
                    width: 3,
                    height: 3,
                    gx: 1.0,
                },
                // d: right-side cell
                LocalCell {
                    id: CellId(3),
                    x: 20,
                    y: 0,
                    width: 5,
                    height: 1,
                    gx: 20.0,
                },
            ],
            density: 0.3,
        }
    }

    fn point_for(region: &LocalRegion, w: i64, h: i64, anchor: f64) -> InsertionPoint {
        let pts = enumerate_insertion_points(region, w, h, None, anchor, 64);
        pts.into_iter()
            .min_by_key(|p| (p.clamp(anchor.round() as i64) - anchor.round() as i64).abs())
            .expect("feasible point")
    }

    #[test]
    fn left_move_pushes_chain_without_overlap() {
        let region = fig6_region();
        // target of width 6 inserted around x=14 on row 0: cell a (x=10..14) must slide left,
        // cascading into b on row 1 and c on rows 0-2
        let point = point_for(&region, 6, 1, 15.0);
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 6,
            target_height: 1,
            target_x: 12,
        };
        let out = shift_phase_original(&problem, Phase::Left).unwrap();
        let map = out.as_map();
        // cell a must not overlap the target: right edge <= 12
        assert!(map[&0] + 4 <= 12);
        // cell b (row 1) must not overlap a
        assert!(map[&1] + 4 <= map[&0]);
        // cell c (rows 0-2) must not overlap b (row 1) or a (row 0)
        assert!(map[&2] + 3 <= map[&1]);
        assert!(map[&2] + 3 <= map[&0]);
        assert!(map[&2] >= 0);
        assert!(out.passes >= 1);
        assert!(out.subcell_visits > 0);
    }

    #[test]
    fn right_move_pushes_right_side() {
        let region = fig6_region();
        let point = point_for(&region, 6, 1, 15.0);
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 6,
            target_height: 1,
            target_x: 15,
        };
        let out = shift_phase_original(&problem, Phase::Right).unwrap();
        let map = out.as_map();
        // cell d is on the right chain of row 0: pushed to clear [15, 21)
        assert!(map[&3] >= 21);
        assert!(map[&3] + 5 <= 40);
    }

    #[test]
    fn cascade_feasibility_is_detected_during_shifting() {
        let region = fig6_region();
        // the point whose left chain holds both c and a in row 0
        let pts = enumerate_insertion_points(&region, 6, 1, None, 15.0, 64);
        let point = pts
            .iter()
            .find(|p| p.bottom_row == 0 && p.left_chain[0].len() == 2)
            .expect("point with two left-chain cells");
        // At full compression (x_lo = 7) the row-0 chain fits, but pushing cell a left of the
        // target forces b and then c out of row 1: the cascade makes this x infeasible, which
        // the per-row insertion-interval estimate cannot see but shifting must detect.
        let tight = ShiftProblem {
            region: &region,
            point,
            target_width: 6,
            target_height: 1,
            target_x: point.x_lo,
        };
        assert_eq!(shift_phase_original(&tight, Phase::Left), Err(Infeasible));

        // With a little slack (x = 12) the same point is feasible and both designated cells end
        // up left of the target.
        let relaxed = ShiftProblem {
            target_x: 12,
            ..tight
        };
        let out = shift_phase_original(&relaxed, Phase::Left).unwrap();
        let map = out.as_map();
        assert!(map[&0] + 4 <= 12);
        assert!(map[&2] + 3 <= map[&0]);
        assert!(map[&2] >= 0);
    }

    #[test]
    fn no_movement_when_target_fits_in_open_space() {
        let region = fig6_region();
        let point = point_for(&region, 4, 1, 30.0);
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 4,
            target_height: 1,
            target_x: 30,
        };
        let (left, right) = shift_original(&problem).unwrap();
        for (i, x) in left.positions.iter().chain(right.positions.iter()) {
            assert_eq!(*x, region.cells[*i].x, "cell {i} should not move");
        }
        assert_eq!(left.passes, 1);
    }

    #[test]
    fn infeasible_when_no_room_to_push() {
        // a packed single row: cells fill [0, 12) of a [0, 14) segment; target width 6 cannot fit
        let region = LocalRegion {
            target: CellId(9),
            window: Rect::new(0, 0, 14, 1),
            segments: vec![LocalSegment {
                row: 0,
                span: Interval::new(0, 14),
            }],
            cells: vec![
                LocalCell {
                    id: CellId(0),
                    x: 0,
                    y: 0,
                    width: 6,
                    height: 1,
                    gx: 0.0,
                },
                LocalCell {
                    id: CellId(1),
                    x: 6,
                    y: 0,
                    width: 6,
                    height: 1,
                    gx: 6.0,
                },
            ],
            density: 0.85,
        };
        // hand-build a point that claims feasibility of a width-2 target, then ask for width 6
        let point = InsertionPoint {
            bottom_row: 0,
            x_lo: 6,
            x_hi: 8,
            left_chain: vec![vec![0]],
            right_chain: vec![vec![1]],
        };
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 6,
            target_height: 1,
            target_x: 4,
        };
        assert_eq!(shift_phase_original(&problem, Phase::Left), Err(Infeasible));
    }

    /// A two-row region, rows `[0, 40)`, holding `cells` given as `(x, width, y, height)`.
    fn two_row_region(cells: &[(i64, i64, i64, i64)]) -> LocalRegion {
        LocalRegion {
            target: CellId(9),
            window: Rect::new(0, 0, 40, 2),
            segments: (0..2)
                .map(|row| LocalSegment {
                    row,
                    span: Interval::new(0, 40),
                })
                .collect(),
            cells: cells
                .iter()
                .enumerate()
                .map(|(i, &(x, width, y, height))| LocalCell {
                    id: CellId(i as u32),
                    x,
                    y,
                    width,
                    height,
                    gx: x as f64,
                })
                .collect(),
            density: 0.3,
        }
    }

    /// The reference outcome as the scratch kernel reports it: only the moved cells.
    fn moved_only(region: &LocalRegion, mut outcome: ShiftOutcome) -> ShiftOutcome {
        outcome.positions.retain(|&(i, x)| x != region.cells[i].x);
        outcome
    }

    /// Run `problem` through the reference and the scratch kernel, assert they agree, and
    /// return the reference outcome.
    fn assert_kernel_agrees(problem: &ShiftProblem<'_>, phase: Phase) -> ShiftOutcome {
        let expect = shift_phase_original(problem, phase).unwrap();
        let mut scratch = ShiftScratch::default();
        scratch.begin_region(problem.region);
        let mut out = ShiftOutcome::default();
        shift_phase_original_with(problem, phase, &mut scratch, &mut out).unwrap();
        assert_eq!(out, moved_only(problem.region, expect.clone()), "{phase:?}");
        expect
    }

    /// Run a hand-built two-row problem (row 0 is the target row, cell 0 the two-row mover,
    /// `statics` the opposite chain) and check that the scratch kernel runs the repeat pass
    /// the reference needs.
    fn assert_kernel_repeats(
        phase: Phase,
        cells: &[(i64, i64, i64, i64)],
        statics: Vec<usize>,
        target_x: i64,
    ) {
        let region = two_row_region(cells);
        let (movers, statics) = (vec![vec![0]], vec![statics]);
        let (left_chain, right_chain) = match phase {
            Phase::Left => (movers, statics),
            Phase::Right => (statics, movers),
        };
        let point = InsertionPoint {
            bottom_row: 0,
            x_lo: target_x,
            x_hi: target_x,
            left_chain,
            right_chain,
        };
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 2,
            target_height: 1,
            target_x,
        };
        let expect = assert_kernel_agrees(&problem, phase);
        assert_eq!(expect.passes, 3, "{phase:?}: the second pass pushes again");
    }

    /// A two-row mover pushed in its upper (target) row dirties the row below. That row is
    /// clean, so pass 1 skips it; the next pass must sweep it and push the cell there.
    #[test]
    fn a_mover_pushed_in_its_upper_row_dirties_the_row_below() {
        // the mover on rows 0-1 at [10, 14), a row-0 cell touching it at [6, 10)
        let region = two_row_region(&[(10, 4, 0, 2), (6, 4, 0, 1)]);
        let point = InsertionPoint {
            bottom_row: 1,
            x_lo: 12,
            x_hi: 12,
            left_chain: vec![vec![0]],
            right_chain: vec![vec![]],
        };
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 2,
            target_height: 1,
            target_x: 12,
        };
        let expect = assert_kernel_agrees(&problem, Phase::Left);
        assert_eq!(expect.as_map(), [(0, 8), (1, 4)].into());
        assert_eq!(expect.passes, 3);
    }

    /// A push that carries a cell past a static edge the sweep has not folded yet must be
    /// followed by a real repeat pass, which folds the edge earlier and pushes again. Cells
    /// are `(x, width, y, height)`: the two-row mover, the cell it pushes in row 1, and a
    /// static cell in row 1.
    #[test]
    fn repeat_pass_runs_when_a_push_passes_an_unfolded_static_edge() {
        let cells = [(20, 4, 0, 2), (14, 4, 1, 1), (11, 2, 1, 1)];
        assert_kernel_repeats(Phase::Left, &cells, vec![2], 19);
        let cells = [(12, 4, 0, 2), (18, 4, 1, 1), (22, 2, 1, 1)];
        assert_kernel_repeats(Phase::Right, &cells, vec![2], 16);
    }

    /// A zero-width cell pushed onto the position of a cell with a lower index swaps their
    /// order in the next pass's sort, so that pass is run, not counted.
    #[test]
    fn repeat_pass_runs_when_a_zero_width_cell_ties_a_neighbour() {
        let cells = [(3, 4, 0, 2), (9, 4, 1, 1), (8, 0, 1, 1)];
        assert_kernel_repeats(Phase::Right, &cells, vec![], 3);
    }

    #[test]
    fn multi_row_target_clears_all_its_rows() {
        let region = fig6_region();
        let point = point_for(&region, 5, 2, 12.0);
        let x = point.clamp(12);
        let problem = ShiftProblem {
            region: &region,
            point: &point,
            target_width: 5,
            target_height: 2,
            target_x: x,
        };
        let (left, right) = shift_original(&problem).unwrap();
        let mut pos: Vec<i64> = region.cells.iter().map(|c| c.x).collect();
        for (i, p) in left.positions.iter().chain(right.positions.iter()) {
            pos[*i] = *p;
        }
        // verify no overlap between any localCell and the target or each other, row by row
        let target = Interval::new(x, x + 5);
        for row in 0..3 {
            let mut spans: Vec<Interval> = Vec::new();
            if (point.bottom_row..point.bottom_row + 2).contains(&row) {
                spans.push(target);
            }
            for (i, c) in region.cells.iter().enumerate() {
                if c.rows().any(|r| r == row) {
                    spans.push(Interval::new(pos[i], pos[i] + c.width));
                }
            }
            for a in 0..spans.len() {
                for b in a + 1..spans.len() {
                    assert!(
                        !spans[a].overlaps(&spans[b]),
                        "row {row}: {:?} vs {:?}",
                        spans[a],
                        spans[b]
                    );
                }
            }
        }
    }
}
