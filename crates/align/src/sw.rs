//! Banded Smith–Waterman alignment.
//!
//! The extension kernel of merAligner. The band keeps the kernel
//! O(n·band) — reads differ from contigs by substitutions and the
//! occasional small indel, so a narrow band loses nothing.
//!
//! There is one recurrence and no traceback. Each cell carries its score
//! together with the statistics of the path a traceback would follow from
//! it — matched bases, aligned length, and the bases the path consumed
//! from `a` and from `b` — so the best cell alone yields every field of
//! [`SwResult`]. The recurrence is written over `L` lanes, each aligning a
//! pair of its own: the lanes of one cell are fixed-width arrays, which the
//! compiler turns into SIMD (one alignment per lane, as in ADEPT). Two
//! instantiations serve the callers:
//!
//! * [`banded_sw`] / [`banded_sw_with`] — one lane. Two rolling rows of
//!   O(band) cells, clipped per row to the columns that exist, and an exit
//!   as soon as the band leaves the matrix. [`SwWorkspace`] keeps the rows
//!   across calls.
//! * [`banded_sw_batch`] — sixteen lanes: the pairs of a batch sorted by
//!   length and aligned sixteen at a time.
//!
//! Lanes hold `i16` when the pair's lengths and the scoring prove that no
//! value of the recurrence can leave `i16` (`fits`, below); any other pair
//! runs the same code on `i64` lanes. Before any DP, both entry points
//! answer a mismatch-free full-overlap diagonal with a bit-parallel
//! (u64-block) scan.
//!
//! [`banded_sw_reference`] is the dense O(n·m) formulation with a traceback
//! matrix, kept as the executable specification: property tests pin both
//! entry points result-identical to it.

/// Scoring parameters (match bonus is positive; penalties are negative).
#[derive(Clone, Copy, Debug)]
pub struct SwParams {
    /// Score for a matching base pair.
    pub mat: i32,
    /// Score for a mismatch.
    pub mis: i32,
    /// Gap (insertion/deletion) penalty, linear.
    pub gap: i32,
    /// Band half-width: cells with |i - j| > band are never filled.
    pub band: usize,
}

impl Default for SwParams {
    fn default() -> Self {
        SwParams {
            mat: 1,
            mis: -2,
            gap: -3,
            band: 8,
        }
    }
}

/// The result of a banded local alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwResult {
    /// Best local score.
    pub score: i32,
    /// Start position in `a` (inclusive) of the best local path.
    pub a_start: usize,
    /// End position in `a` (exclusive) of the best cell.
    pub a_end: usize,
    /// Start position in `b` (inclusive).
    pub b_start: usize,
    /// End position in `b` (exclusive).
    pub b_end: usize,
    /// Matching bases on the best path.
    pub matches: usize,
    /// Aligned length on the best path (matches + mismatches + gaps).
    pub aligned: usize,
}

impl SwResult {
    /// The all-zero result of aligning against an empty sequence.
    fn empty() -> Self {
        SwResult {
            score: 0,
            a_start: 0,
            a_end: 0,
            b_start: 0,
            b_end: 0,
            matches: 0,
            aligned: 0,
        }
    }
}

/// Reusable scratch buffers for [`banded_sw_with`] and
/// [`banded_sw_batch_with`], so tight alignment loops pay the row
/// allocations once instead of per call.
#[derive(Default)]
pub struct SwWorkspace {
    narrow: Scratch<i16, 1>,
    wide: Scratch<i64, 1>,
    narrow_batch: Scratch<i16, BATCH_LANES>,
    wide_batch: Scratch<i64, BATCH_LANES>,
}

impl SwWorkspace {
    /// A fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Banded local (Smith–Waterman) alignment of `a` vs `b`.
///
/// Returns the best-scoring local alignment confined to the band around
/// the main diagonal, result-identical to [`banded_sw_reference`] in
/// O(|a|·band) time and O(|a| + |b| + band) memory.
pub fn banded_sw(a: &[u8], b: &[u8], p: &SwParams) -> SwResult {
    banded_sw_with(&mut SwWorkspace::new(), a, b, p)
}

/// [`banded_sw`] with caller-owned scratch buffers (see [`SwWorkspace`]).
pub fn banded_sw_with(ws: &mut SwWorkspace, a: &[u8], b: &[u8], p: &SwParams) -> SwResult {
    if let Some(r) = without_dp(a, b, p) {
        return r;
    }
    let mut out = [SwResult::empty()];
    if fits::<i16>(a.len(), b.len(), p) {
        lanes_sw(&mut ws.narrow, &[(a, b)], p, &mut out);
    } else {
        lanes_sw(&mut ws.wide, &[(a, b)], p, &mut out);
    }
    out[0]
}

/// Lanes of one [`banded_sw_batch`] pass: sixteen `i16` scores fill two
/// SSE2 registers, or one AVX2 register.
const BATCH_LANES: usize = 16;

/// A pass of fewer pairs costs more than aligning them one lane at a
/// time. On the gapped fallbacks of one human benchmark rep (2,526 in
/// 1,248 blocks of 64 reads) running passes of one or two pairs one lane
/// at a time took the batches from 40 to 33 ms; on wheat's (53,910 in 400
/// blocks) it changed nothing.
const MIN_PASS: usize = 3;

/// [`banded_sw`] of every `(a, b)` pair in `jobs`: `out[i]` equals
/// `banded_sw(jobs[i].0, jobs[i].1, p)`.
///
/// The pairs are sorted by length and aligned sixteen to a pass, one pair
/// per lane, so that the lanes of a pass run about as many rows as each
/// other.
pub fn banded_sw_batch(jobs: &[(&[u8], &[u8])], p: &SwParams) -> Vec<SwResult> {
    banded_sw_batch_with(&mut SwWorkspace::new(), jobs, p)
}

/// [`banded_sw_batch`] with caller-owned scratch buffers (see
/// [`SwWorkspace`]).
pub fn banded_sw_batch_with(
    ws: &mut SwWorkspace,
    jobs: &[(&[u8], &[u8])],
    p: &SwParams,
) -> Vec<SwResult> {
    let mut out = vec![SwResult::empty(); jobs.len()];
    let (mut narrow, mut wide) = (Vec::new(), Vec::new());
    for (k, &(a, b)) in jobs.iter().enumerate() {
        match without_dp(a, b, p) {
            Some(r) => out[k] = r,
            None if fits::<i16>(a.len(), b.len(), p) => narrow.push(k),
            None => wide.push(k),
        }
    }
    batch_passes(
        (&mut ws.narrow_batch, &mut ws.narrow),
        narrow,
        jobs,
        p,
        &mut out,
    );
    batch_passes((&mut ws.wide_batch, &mut ws.wide), wide, jobs, p, &mut out);
    out
}

/// Align the jobs `ids` names, [`BATCH_LANES`] at a time, into `out`.
fn batch_passes<T: Score>(
    (ws, one): (&mut Scratch<T, BATCH_LANES>, &mut Scratch<T, 1>),
    mut ids: Vec<usize>,
    jobs: &[(&[u8], &[u8])],
    p: &SwParams,
    out: &mut [SwResult],
) {
    ids.sort_by_key(|&k| (jobs[k].0.len(), jobs[k].1.len()));
    let mut res = [SwResult::empty(); BATCH_LANES];
    for pass in ids.chunks(BATCH_LANES) {
        if pass.len() < MIN_PASS {
            for &k in pass {
                lanes_sw(one, &[jobs[k]], p, std::slice::from_mut(&mut out[k]));
            }
            continue;
        }
        let pairs: Vec<(&[u8], &[u8])> = pass.iter().map(|&k| jobs[k]).collect();
        lanes_sw(ws, &pairs, p, &mut res[..pass.len()]);
        for (&k, r) in pass.iter().zip(res) {
            out[k] = r;
        }
    }
}

/// The answers that need no DP: an empty side, or a perfect diagonal.
fn without_dp(a: &[u8], b: &[u8], p: &SwParams) -> Option<SwResult> {
    if a.is_empty() || b.is_empty() {
        return Some(SwResult::empty());
    }
    perfect_diagonal(a, b, p)
}

/// A lane's score and counter type.
trait Score:
    Copy
    + Ord
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::Not<Output = Self>
{
    const ZERO: Self;
    /// A set mask lane: all bits one.
    const ALL: Self;
    /// The type's range, for [`fits`].
    const LO: i128;
    const HI: i128;
    fn of(x: i128) -> Self;
    fn add(self, o: Self) -> Self;
    fn to_i128(self) -> i128;
}

/// Runs only on jobs [`fits`] admits, where no value leaves `i16`: the
/// conversions are exact and `+` cannot overflow (debug builds check it).
impl Score for i16 {
    const ZERO: Self = 0;
    const ALL: Self = -1;
    const LO: i128 = i16::MIN as i128;
    const HI: i128 = i16::MAX as i128;
    fn of(x: i128) -> Self {
        i16::try_from(x).expect("fits() bounds every value")
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    fn to_i128(self) -> i128 {
        self.into()
    }
}

/// Every job [`fits`] turns away for `i16`. No `i32` scoring and no slice
/// length in memory takes a value past `i64`; the adds saturate all the
/// same, so that no input can wrap or panic.
impl Score for i64 {
    const ZERO: Self = 0;
    const ALL: Self = -1;
    const LO: i128 = i64::MIN as i128;
    const HI: i128 = i64::MAX as i128;
    fn of(x: i128) -> Self {
        i64::try_from(x).unwrap_or(if x < 0 { i64::MIN } else { i64::MAX })
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.saturating_add(o)
    }
    fn to_i128(self) -> i128 {
        self.into()
    }
}

/// Whether every value the recurrence computes for an `n × m` job under
/// `p` lies in `T`'s range.
///
/// A path to a cell takes at most min(n, m) diagonal steps, each worth at
/// most max(mat, mis, 0), and at most n + m gap steps, each worth at most
/// max(gap, 0); so every score is in `[0, h_max]`. A candidate adds one
/// step to a score — the diagonal one as `mis`, then `mat - mis` if the
/// bases match — so it lies in `[min(mat, mis, gap), h_max + step]`. A
/// path consumes at least one base per step, so every counter, position
/// and remaining-column count is in `[-(n + m), n + m]`; a cell outside
/// the matrix adds one step to a counter of a cell inside it or to zero,
/// hence the strict bound. The out-of-band cell's score is `-gap` or
/// `LO - gap`, whichever is `<= 0`.
fn fits<T: Score>(n: usize, m: usize, p: &SwParams) -> bool {
    let (n, m) = (n as i128, m as i128);
    let (mat, mis, gap) = (i128::from(p.mat), i128::from(p.mis), i128::from(p.gap));
    let h_max = mat.max(mis).max(0) * n.min(m) + gap.max(0) * (n + m);
    let step = mat.max(mis).max(gap).max(0);
    let in_range = |x: i128| (T::LO..=T::HI).contains(&x);
    n + m < T::HI
        && in_range(mat.min(mis).min(gap))
        && in_range(h_max + step)
        && in_range(mat - mis)
}

/// `L` lanes of `T`. Each operation is one loop over the lanes, which the
/// compiler turns into SIMD instructions; a mask lane is all ones or zero.
#[derive(Clone, Copy)]
struct Lanes<T, const L: usize>([T; L]);

impl<T: Score, const L: usize> Lanes<T, L> {
    const ZERO: Self = Lanes([T::ZERO; L]);

    #[inline(always)]
    fn splat(x: T) -> Self {
        Lanes([x; L])
    }

    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(T, T) -> T) -> Self {
        let mut out = self;
        for l in 0..L {
            out.0[l] = f(self.0[l], o.0[l]);
        }
        out
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, T::add)
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        self.zip(o, Ord::max)
    }

    /// Through this mask: `x` where it is set, zero elsewhere.
    #[inline(always)]
    fn and(self, x: Self) -> Self {
        self.zip(x, |m, x| m & x)
    }

    /// The mask of lanes where `self >= o`.
    #[inline(always)]
    fn ge(self, o: Self) -> Self {
        self.zip(o, |x, y| if x >= y { T::ALL } else { T::ZERO })
    }

    /// The mask of lanes where `self > o`.
    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        self.zip(o, |x, y| if x > y { T::ALL } else { T::ZERO })
    }

    /// Through this mask: `yes` where it is set, `no` elsewhere.
    #[inline(always)]
    fn select(self, yes: Self, no: Self) -> Self {
        let mut out = self;
        for l in 0..L {
            out.0[l] = (yes.0[l] & self.0[l]) | (no.0[l] & !self.0[l]);
        }
        out
    }

    /// Whether any lane of this mask is set.
    #[inline(always)]
    fn any(self) -> bool {
        self.0.iter().fold(T::ZERO, |acc, &x| acc | x) != T::ZERO
    }

    /// Whether every lane of this mask is set.
    #[inline(always)]
    fn all(self) -> bool {
        self.0.iter().fold(T::ALL, |acc, &x| acc & x) != T::ZERO
    }

    /// The mask of lanes where the bases are equal.
    #[inline(always)]
    fn eq_bases(a: &[u8; L], b: &[u8; L]) -> Self {
        let mut out = Self::ZERO;
        for l in 0..L {
            out.0[l] = if a[l] == b[l] { T::ALL } else { T::ZERO };
        }
        out
    }
}

/// One cell of `L` lanes: each lane's score and the statistics of the path
/// a traceback would follow from it.
#[derive(Clone, Copy)]
struct Cell<T, const L: usize> {
    h: Lanes<T, L>,
    matches: Lanes<T, L>,
    aligned: Lanes<T, L>,
    /// Bases of `a` on the path (diagonal and up steps).
    a_used: Lanes<T, L>,
    /// Bases of `b` on the path (diagonal and left steps).
    b_used: Lanes<T, L>,
}

impl<T: Score, const L: usize> Cell<T, L> {
    /// A reset cell: score 0 and no path — also the virtual row 0 and
    /// column 0.
    const ZERO: Self = Cell {
        h: Lanes::ZERO,
        matches: Lanes::ZERO,
        aligned: Lanes::ZERO,
        a_used: Lanes::ZERO,
        b_used: Lanes::ZERO,
    };

    /// This cell through `keep`: reset where the mask is clear.
    #[inline(always)]
    fn kept(self, keep: Lanes<T, L>) -> Self {
        Cell {
            h: keep.and(self.h),
            matches: keep.and(self.matches),
            aligned: keep.and(self.aligned),
            a_used: keep.and(self.a_used),
            b_used: keep.and(self.b_used),
        }
    }
}

/// Scratch rows of the `L`-lane recurrence.
struct Scratch<T, const L: usize> {
    /// Previous and current row in band coordinates: column c of row i is
    /// matrix cell j = i - w + c, so the diagonal predecessor of column c
    /// is column c of the previous row and the one above is column c + 1.
    /// One cell past the band stands for the cells outside it.
    prev: Vec<Cell<T, L>>,
    cur: Vec<Cell<T, L>>,
    /// `a` and `b` transposed: `a[i][l]` is base i of lane l's `a`.
    a: Vec<[u8; L]>,
    b: Vec<[u8; L]>,
}

impl<T, const L: usize> Default for Scratch<T, L> {
    fn default() -> Self {
        Scratch {
            prev: Vec::new(),
            cur: Vec::new(),
            a: Vec::new(),
            b: Vec::new(),
        }
    }
}

/// The scoring as lanes: the diagonal candidate is `mis`, plus `delta =
/// mat - mis` where the bases match.
#[derive(Clone, Copy)]
struct Scoring<T, const L: usize> {
    mis: Lanes<T, L>,
    delta: Lanes<T, L>,
    gap: Lanes<T, L>,
}

/// The banded recurrence over `jobs.len() <= L` non-empty pairs, one per
/// lane, results into `out`. Every pair must pass [`fits`] for `T`.
///
/// The cells of an unused lane, and those of a lane outside its own
/// matrix (past its last row or column), are computed and then reset: no
/// cell inside a lane's matrix reads one outside it, and a reset cell
/// never becomes the best.
fn lanes_sw<T: Score, const L: usize>(
    ws: &mut Scratch<T, L>,
    jobs: &[(&[u8], &[u8])],
    p: &SwParams,
    out: &mut [SwResult],
) {
    debug_assert!(jobs.len() <= L && out.len() == jobs.len());
    let n: [usize; L] = std::array::from_fn(|l| jobs.get(l).map_or(0, |j| j.0.len()));
    let m: [usize; L] = std::array::from_fn(|l| jobs.get(l).map_or(0, |j| j.1.len()));
    // A band wider than the longest side reaches every cell, as that
    // width does: clip it so the row buffers stay O(length).
    let longest = (0..L).map(|l| n[l].max(m[l])).max().unwrap_or(0);
    let w = p.band.min(longest);
    let width = 2 * w + 1;
    // Row i of a lane has cells only while i <= n and i - w <= m.
    let rows = (0..L).map(|l| n[l].min(m[l] + w)).max().unwrap_or(0);
    let cols = m.iter().copied().max().unwrap_or(0);

    ws.a.clear();
    ws.a.resize(rows, [0; L]);
    ws.b.clear();
    ws.b.resize(cols, [0; L]);
    for (l, (a, b)) in jobs.iter().enumerate() {
        for (row, &x) in ws.a.iter_mut().zip(a.iter()) {
            row[l] = x;
        }
        for (col, &x) in ws.b.iter_mut().zip(b.iter()) {
            col[l] = x;
        }
    }
    // The cells just outside the band: their score plus a gap is at most
    // 0, so, like the reference's out-of-band candidate, they never beat
    // the reset to 0, and their statistics are never kept.
    let gap = i128::from(p.gap);
    let outside = Cell {
        h: Lanes::splat(T::of(if gap > 0 { -gap } else { T::LO - gap })),
        ..Cell::ZERO
    };
    for row in [&mut ws.prev, &mut ws.cur] {
        row.clear();
        row.resize(width + 1, Cell::ZERO);
        row[width] = outside;
    }
    let splat = |x: i32| Lanes::splat(T::of(x.into()));
    let scoring = Scoring {
        mis: splat(p.mis),
        delta: Lanes::splat(T::of(i128::from(p.mat) - i128::from(p.mis))),
        gap: splat(p.gap),
    };

    // Each lane's best cell so far — the first strict maximum in
    // row-major order, as the reference scans — and its row and column.
    let mut best = Cell::<T, L>::ZERO;
    let (mut best_i, mut best_j) = ([0usize; L], [0usize; L]);
    for i in 1..=rows {
        // Columns holding a cell of some lane: j_lo <= j <= j_hi. The
        // columns left of them stand for the virtual column j = 0.
        let j_lo = (i + 1).saturating_sub(w + 1).max(1);
        let j_hi = (0..L).filter(|&l| i <= n[l]).map(|l| m[l]).max();
        let j_hi = j_hi.unwrap_or(0).min(i + w);
        let (c_lo, c_hi) = (j_lo + w - i, j_hi + w - i);
        // Whether some lane's matrix ends before j_hi; if so, each lane's
        // count of its columns from j_lo on, less one.
        let clipped = (0..L).any(|l| i > n[l] || m[l] < j_hi);
        let room = clipped.then(|| {
            Lanes(std::array::from_fn(|l| {
                let last = if i <= n[l] { m[l] } else { 0 };
                T::of(last as i128 - j_lo as i128)
            }))
        });
        let (prev, cur) = (&ws.prev, &mut ws.cur);
        cur[..c_lo].fill(Cell::ZERO);
        let (row_h, row_j) = sw_row(
            &prev[c_lo..=c_hi + 1],
            &mut cur[c_lo..=c_hi],
            (ws.a[i - 1], &ws.b[j_lo - 1..j_hi], j_lo),
            scoring,
            room,
            if c_lo == 0 { outside } else { Cell::ZERO },
        );
        cur[c_hi + 1..width].fill(Cell::ZERO);
        for l in 0..L {
            if row_h.0[l] > best.h.0[l] {
                let j = usize::try_from(row_j.0[l].to_i128()).expect("a column");
                let cell = &cur[j + w - i];
                best.h.0[l] = cell.h.0[l];
                best.matches.0[l] = cell.matches.0[l];
                best.aligned.0[l] = cell.aligned.0[l];
                best.a_used.0[l] = cell.a_used.0[l];
                best.b_used.0[l] = cell.b_used.0[l];
                (best_i[l], best_j[l]) = (i, j);
            }
        }
        std::mem::swap(&mut ws.prev, &mut ws.cur);
    }

    let count = |x: T| usize::try_from(x.to_i128()).expect("counters are non-negative");
    for (l, r) in out.iter_mut().enumerate() {
        let (a_end, b_end) = (best_i[l], best_j[l]);
        *r = SwResult {
            score: best.h.0[l]
                .to_i128()
                .clamp(i32::MIN.into(), i32::MAX.into()) as i32,
            a_start: a_end - count(best.a_used.0[l]),
            a_end,
            b_start: b_end - count(best.b_used.0[l]),
            b_end,
            matches: count(best.matches.0[l]),
            aligned: count(best.aligned.0[l]),
        };
    }
}

/// One row of the recurrence over the columns that hold a cell of some
/// lane: `prev` is the row above from the first column's diagonal
/// predecessor on, `cur` receives the row, `a_i` is the row's base and
/// `b` the columns' from column `j_lo` on. `room` (when some lane's
/// matrix ends inside the row) counts each lane's columns down, and
/// `left` is the cell left of the first column. Returns each lane's
/// highest score in the row and the first column holding it.
///
/// A lane takes its left neighbour only now and then, so that work is
/// skipped when no lane needs it. The one-lane instance skips a reset the
/// same way: the branch, predicted, keeps its dependency chain short,
/// where sixteen lanes rarely all keep their cells and mask outright.
fn sw_row<T: Score, const L: usize>(
    prev: &[Cell<T, L>],
    cur: &mut [Cell<T, L>],
    (a_i, b, j_lo): ([u8; L], &[[u8; L]], usize),
    s: Scoring<T, L>,
    mut room: Option<Lanes<T, L>>,
    mut left: Cell<T, L>,
) -> (Lanes<T, L>, Lanes<T, L>) {
    let (one, minus_one) = (Lanes::splat(T::of(1)), Lanes::splat(T::of(-1)));
    let (mut row_h, mut row_j) = (Lanes::ZERO, Lanes::ZERO);
    for (j, ((out, above), b_j)) in (j_lo..).zip(cur.iter_mut().zip(prev.windows(2)).zip(b)) {
        let (diag, up) = (&above[0], &above[1]);
        let eq = Lanes::eq_bases(&a_i, b_j);
        let hd = diag.h.add(s.mis).add(eq.and(s.delta));
        let hu = up.h.add(s.gap);
        // The reference's candidate order [diag, up, left, 0], a later
        // candidate winning a tie.
        let take_up = hu.ge(hd);
        let mut cell = Cell {
            h: hu.max(hd),
            matches: take_up.select(up.matches, diag.matches.add(eq.and(one))),
            aligned: take_up.select(up.aligned, diag.aligned).add(one),
            a_used: take_up.select(up.a_used, diag.a_used).add(one),
            b_used: take_up.select(up.b_used, diag.b_used.add(one)),
        };
        let hl = left.h.add(s.gap);
        let take_left = hl.ge(cell.h);
        if take_left.any() {
            cell = Cell {
                h: take_left.select(hl, cell.h),
                matches: take_left.select(left.matches, cell.matches),
                aligned: take_left.select(left.aligned.add(one), cell.aligned),
                a_used: take_left.select(left.a_used, cell.a_used),
                b_used: take_left.select(left.b_used.add(one), cell.b_used),
            };
        }
        let mut keep = cell.h.gt(Lanes::ZERO);
        if let Some(room) = room.as_mut() {
            keep = keep.and(room.ge(Lanes::ZERO));
            *room = room.add(minus_one);
        }
        if L > 1 || !keep.all() {
            cell = cell.kept(keep);
        }
        *out = cell;
        left = cell;
        let higher = cell.h.gt(row_h);
        if higher.any() {
            row_h = row_h.max(cell.h);
            row_j = higher.select(Lanes::splat(T::of(j as i128)), row_j);
        }
    }
    (row_h, row_j)
}

/// Substitution-free fast path: when `a[..L]` and `b[..L]` (L = full
/// overlap) are identical, the optimal banded local alignment is that
/// whole diagonal run and the DP can be skipped.
///
/// Soundness: with `mat >= 1`, `mis <= mat` and `gap < 0` every cell
/// obeys `H[i][j] <= mat * min(i, j)`, so `mat * L` is attainable only at
/// `min(i, j) = L` — and at `(L, L)` only via the all-match diagonal,
/// which is exactly the cell the ascending reference scan records first.
/// The mismatch test compares u64 blocks (eight bases per XOR) rather
/// than bytes.
fn perfect_diagonal(a: &[u8], b: &[u8], p: &SwParams) -> Option<SwResult> {
    if p.mat < 1 || p.mis > p.mat || p.gap >= 0 {
        return None;
    }
    let len = a.len().min(b.len());
    if len == 0 || !equal_u64_blocks(&a[..len], &b[..len]) {
        return None;
    }
    Some(SwResult {
        // A score past `i32` goes to the DP, which clamps it.
        score: i32::try_from(len).ok()?.checked_mul(p.mat)?,
        a_start: 0,
        a_end: len,
        b_start: 0,
        b_end: len,
        matches: len,
        aligned: len,
    })
}

/// Bit-parallel equality of two equal-length slices: XOR eight bytes at a
/// time and fold, with a byte-loop tail.
#[inline]
fn equal_u64_blocks(a: &[u8], b: &[u8]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    let mut acc = 0u64;
    for (x, y) in ac.by_ref().zip(bc.by_ref()) {
        let xw = u64::from_ne_bytes(x.try_into().expect("chunk of 8"));
        let yw = u64::from_ne_bytes(y.try_into().expect("chunk of 8"));
        acc |= xw ^ yw;
    }
    acc == 0 && ac.remainder() == bc.remainder()
}

/// Dense-matrix banded Smith–Waterman with a traceback: the executable
/// specification [`banded_sw`] and [`banded_sw_batch`] are pinned
/// against. O(|a|·|b|) memory; use only for testing and benchmarking.
pub fn banded_sw_reference(a: &[u8], b: &[u8], p: &SwParams) -> SwResult {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return SwResult::empty();
    }
    let w = p.band as isize;
    // Dense DP with traceback; band enforced by skipping cells.
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    let mut h = vec![0i32; (n + 1) * (m + 1)];
    // Traceback codes: 0 stop, 1 diag, 2 up (gap in b), 3 left (gap in a).
    let mut tb = vec![0u8; (n + 1) * (m + 1)];
    let mut best = (0i32, 0usize, 0usize);

    for i in 1..=n {
        let j_lo = ((i as isize - w).max(1)) as usize;
        let j_hi = ((i as isize + w).min(m as isize)) as usize;
        for j in j_lo..=j_hi {
            let diag = h[idx(i - 1, j - 1)] + if a[i - 1] == b[j - 1] { p.mat } else { p.mis };
            let up = if (i as isize - 1 - j as isize).abs() <= w {
                h[idx(i - 1, j)] + p.gap
            } else {
                i32::MIN / 2
            };
            let left = if (i as isize - (j as isize - 1)).abs() <= w {
                h[idx(i, j - 1)] + p.gap
            } else {
                i32::MIN / 2
            };
            let (score, dir) = [(diag, 1u8), (up, 2), (left, 3), (0, 0)]
                .into_iter()
                .max_by_key(|(s, _)| *s)
                .unwrap();
            h[idx(i, j)] = score;
            tb[idx(i, j)] = dir;
            if score > best.0 {
                best = (score, i, j);
            }
        }
    }

    // Traceback for match/length statistics.
    let (score, mut i, mut j) = best;
    let (a_end, b_end) = (i, j);
    let mut matches = 0usize;
    let mut aligned = 0usize;
    while i > 0 && j > 0 {
        match tb[idx(i, j)] {
            1 => {
                if a[i - 1] == b[j - 1] {
                    matches += 1;
                }
                aligned += 1;
                i -= 1;
                j -= 1;
            }
            2 => {
                aligned += 1;
                i -= 1;
            }
            3 => {
                aligned += 1;
                j -= 1;
            }
            _ => break,
        }
    }
    SwResult {
        score,
        a_start: i,
        a_end,
        b_start: j,
        b_end,
        matches,
        aligned,
    }
}

/// Ungapped extension: compare `a` and `b` position-by-position and return
/// (matches, length). The fast path for substitution-only reads.
///
/// Counts mismatches eight bases at a time: the XOR of two u64 blocks has
/// a non-zero byte exactly at differing positions, located with the SWAR
/// zero-byte test and counted via popcount.
pub fn ungapped_matches(a: &[u8], b: &[u8]) -> (usize, usize) {
    let len = a.len().min(b.len());
    let (a, b) = (&a[..len], &b[..len]);
    let mut mismatches = 0u32;
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (x, y) in ac.by_ref().zip(bc.by_ref()) {
        let xw = u64::from_ne_bytes(x.try_into().expect("chunk of 8"));
        let yw = u64::from_ne_bytes(y.try_into().expect("chunk of 8"));
        let diff = xw ^ yw;
        // Set the high bit of every non-zero byte of `diff`: the 7-bit add
        // carries into bit 7 iff the low bits are non-zero (and cannot
        // carry across bytes), OR-ing `diff` itself catches bit 7.
        const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
        let nonzero = (((diff & LOW7) + LOW7) | diff) & !LOW7;
        mismatches += nonzero.count_ones();
    }
    let matched_tail = ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .filter(|(x, y)| x == y)
        .count();
    let matches = len - mismatches as usize - (ac.remainder().len() - matched_tail);
    (matches, len)
}

/// Byte-at-a-time `ungapped_matches`: the executable specification the
/// SWAR version is pinned against.
pub fn ungapped_matches_reference(a: &[u8], b: &[u8]) -> (usize, usize) {
    let len = a.len().min(b.len());
    let matches = a[..len]
        .iter()
        .zip(&b[..len])
        .filter(|(x, y)| x == y)
        .count();
    (matches, len)
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_score_full() {
        let r = banded_sw(b"ACGTACGT", b"ACGTACGT", &SwParams::default());
        assert_eq!(r.score, 8);
        assert_eq!(r.matches, 8);
        assert_eq!(r.aligned, 8);
        assert_eq!((r.a_start, r.a_end, r.b_start, r.b_end), (0, 8, 0, 8));
    }

    #[test]
    fn single_mismatch() {
        let r = banded_sw(b"ACGTACGT", b"ACGTTCGT", &SwParams::default());
        assert_eq!(r.matches, 7);
        assert_eq!(r.aligned, 8);
        assert_eq!(r.score, 7 - 2);
    }

    #[test]
    fn single_deletion_within_band() {
        // b is a with one base deleted.
        let r = banded_sw(b"ACGTTACGGT", b"ACGTACGGT", &SwParams::default());
        assert_eq!(r.matches, 9);
        assert_eq!(r.aligned, 10); // 9 matches + 1 gap
        assert_eq!(r.score, 9 - 3);
    }

    #[test]
    fn local_alignment_ignores_bad_prefix() {
        // Shared core "ACGTACGTAC", junk around it.
        let r = banded_sw(b"TTTTACGTACGTAC", b"GGGGACGTACGTAC", &SwParams::default());
        assert!(r.matches >= 10, "found only {} matches", r.matches);
    }

    #[test]
    fn empty_inputs() {
        let r = banded_sw(b"", b"ACGT", &SwParams::default());
        assert_eq!(r.score, 0);
        assert_eq!(r.aligned, 0);
    }

    #[test]
    fn band_limits_shift() {
        // A 12-base offset exceeds band 4: the aligner cannot bridge it and
        // finds at best a short local match.
        let a = b"AAAAAAAAAAAAACGTACGTCCC";
        let b = b"ACGTACGTCCC";
        let narrow = banded_sw(
            a,
            b,
            &SwParams {
                band: 4,
                ..SwParams::default()
            },
        );
        let wide = banded_sw(
            a,
            b,
            &SwParams {
                band: 16,
                ..SwParams::default()
            },
        );
        assert!(wide.matches > narrow.matches);
        assert!(wide.matches >= 11);
    }

    #[test]
    fn ungapped_counts() {
        assert_eq!(ungapped_matches(b"ACGT", b"ACGA"), (3, 4));
        assert_eq!(ungapped_matches(b"ACGTAA", b"ACGT"), (4, 4));
        assert_eq!(ungapped_matches(b"", b""), (0, 0));
    }

    #[test]
    fn ungapped_matches_swar_equals_reference() {
        // Cross the 8-byte block boundary and pack mismatches densely,
        // including bytes with the high bit set (non-ASCII robustness).
        let cases: [(&[u8], &[u8]); 6] = [
            (b"ACGTACGTA", b"ACGTACGTA"),
            (b"ACGTACGTACGTACGTT", b"ACGTACGTACGTACGTA"),
            (b"AAAAAAAA", b"CCCCCCCC"),
            (b"ACGT", b"TGCA"),
            (&[0x80, 0x81, 0x01, 0x00], &[0x00, 0x81, 0x01, 0x80]),
            (&[0xff; 40], &[0x7f; 40]),
        ];
        for (a, b) in cases {
            assert_eq!(
                ungapped_matches(a, b),
                ungapped_matches_reference(a, b),
                "a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn sw_is_symmetric_for_substitutions() {
        let a = b"ACGTTGCAAG";
        let b = b"ACGATGCAAG";
        let r1 = banded_sw(a, b, &SwParams::default());
        let r2 = banded_sw(b, a, &SwParams::default());
        assert_eq!(r1.score, r2.score);
        assert_eq!(r1.matches, r2.matches);
    }

    #[test]
    fn optimized_equals_reference_on_edge_shapes() {
        let p = SwParams::default();
        let shapes: [(&[u8], &[u8]); 7] = [
            (b"A", b"A"),
            (b"A", b"C"),
            (b"ACGTACGTACGT", b"ACG"),                // band slides off b
            (b"ACG", b"ACGTACGTACGT"),                // wide b
            (b"ACGTTACGGT", b"ACGTACGGT"),            // indel
            (b"TTTTACGTACGTAC", b"GGGGACGTACGTAC"),   // junk flanks
            (b"AAAAAAAAAAAAACGTACGTCCC", b"AAACCCC"), // shifted
        ];
        for (a, b) in shapes {
            assert_eq!(
                banded_sw(a, b, &p),
                banded_sw_reference(a, b, &p),
                "a={} b={}",
                String::from_utf8_lossy(a),
                String::from_utf8_lossy(b)
            );
        }
        // Degenerate band widths.
        for band in [0usize, 1, 64] {
            let p = SwParams {
                band,
                ..SwParams::default()
            };
            assert_eq!(
                banded_sw(b"ACGTTACGGT", b"ACGTACGGT", &p),
                banded_sw_reference(b"ACGTTACGGT", b"ACGTACGGT", &p),
                "band={band}"
            );
        }
    }

    #[test]
    fn i16_lanes_are_admitted_exactly_up_to_the_bound() {
        // The pairs `jobs_either_side_of_the_i16_bound_match_reference`
        // (tests/prop_align.rs) aligns sit on both sides of these limits.
        let p = SwParams::default();
        assert!(fits::<i16>(32_700, 66, &p));
        assert!(!fits::<i16>(32_701, 66, &p));
        let heavy = SwParams {
            mat: 300,
            mis: -300,
            gap: -300,
            band: 8,
        };
        assert!(fits::<i16>(108, 108, &heavy));
        assert!(!fits::<i16>(109, 109, &heavy));
        assert!(fits::<i64>(109, 109, &heavy));
    }

    #[test]
    fn extreme_parameters_neither_wrap_nor_panic() {
        let (a, b): (&[u8], &[u8]) = (b"ACGTTACGGTACGTACCA", b"ACGTACGGTTACGTACCA");
        // A band past every cell aligns as the widest band that exists.
        let wide = SwParams {
            band: usize::MAX,
            ..SwParams::default()
        };
        let widest = SwParams {
            band: a.len(),
            ..SwParams::default()
        };
        assert_eq!(banded_sw(a, b, &wide), banded_sw_reference(a, b, &widest));
        // Scores past i32 saturate: the reference itself would overflow.
        for (mat, mis, gap) in [
            (i32::MAX, i32::MIN, i32::MIN),
            (i32::MAX, i32::MAX, i32::MAX),
        ] {
            let p = SwParams {
                mat,
                mis,
                gap,
                band: 4,
            };
            let r = banded_sw(a, b, &p);
            assert!(r.a_start <= r.a_end && r.a_end <= a.len() && r.matches <= r.aligned);
            assert_eq!(banded_sw_batch(&[(a, b); 3], &p), vec![r; 3]);
        }
    }

    #[test]
    fn workspace_reuse_is_result_transparent() {
        let p = SwParams::default();
        let mut ws = SwWorkspace::new();
        // A big alignment first leaves stale buffer contents behind.
        let big_a: Vec<u8> = (0..300).map(|i| b"ACGT"[i % 4]).collect();
        let big_b: Vec<u8> = (0..290).map(|i| b"ACGT"[(i + 1) % 4]).collect();
        banded_sw_with(&mut ws, &big_a, &big_b, &p);
        let fresh = banded_sw(b"ACGTTACGGT", b"ACGTACGGT", &p);
        let reused = banded_sw_with(&mut ws, b"ACGTTACGGT", b"ACGTACGGT", &p);
        assert_eq!(fresh, reused);
        // The same for a batch after a bigger one.
        let big: Vec<(&[u8], &[u8])> = vec![(&big_a, &big_b); 20];
        banded_sw_batch_with(&mut ws, &big, &p);
        let small: Vec<(&[u8], &[u8])> = vec![(b"ACGTTACGGT", b"ACGTACGGT"); 5];
        assert_eq!(banded_sw_batch_with(&mut ws, &small, &p), vec![fresh; 5]);
    }
}
