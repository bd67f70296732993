//! Available-execution-time allocation (Sections V.B and V.C).
//!
//! Both heuristics share the same skeleton:
//!
//! * **lightly overlapped** subintervals (`n_j ≤ m`): every overlapping
//!   task is valid to occupy a core for the whole subinterval
//!   (Observation 2) — allocate `Δ_j` to each;
//! * **heavily overlapped** subintervals (`n_j > m`): the `m·Δ_j` core
//!   time must be divided. The *evenly allocating* rule gives each task
//!   `m·Δ_j/n_j`; the *DER-based* rule (Algorithm 2) divides it in
//!   proportion to each task's Desired Execution Requirement, greatest
//!   first, capping shares at `Δ_j` and redistributing the remainder.
//!
//! Algorithm 2's cap-and-redistribute loop is a water-filling problem:
//! the capped tasks form a prefix of the DER-descending order, and every
//! uncapped task's share is its DER times one common multiplier λ. The
//! production path exploits that closed form — a bounded head scan plus
//! one multiply pass — while the round-based loop survives as
//! [`DerStrategy::Reference`], the ground truth the differential harness
//! replays against (set `ESCHED_DER_REFERENCE=1` to route the whole
//! battery through it).
//!
//! All strategies enter through one door: [`allocate`] with an
//! [`AllocRequest`], which carries the strategy, an optional [`Scratch`]
//! arena, and an optional [`Pool`] for fanning heavy column ranges of
//! *one* instance across workers. The hot loops are written as flat-slice
//! passes over the subinterval-major CSR so the autovectorizer can chew
//! on them; the parallel path partitions columns into cell-balanced
//! chunks whose boundaries depend only on the CSR shape, so the output is
//! byte-identical at any worker count.
//!
//! The result is an [`AvailMatrix`] of available times `a_{i,j}` — an
//! upper bound on how long task `i` may occupy a core during subinterval
//! `j`. Final frequencies and schedules are derived from it in
//! [`crate::refine`].

use std::ops::Range;

use crate::ideal::IdealSolution;
use crate::pool::{Pool, ScratchPool};
use crate::scratch::Scratch;
use esched_obs::{event, metric_counter, span, Level};
use esched_subinterval::{Subinterval, Timeline};
use esched_types::time::{Interval, EPS};
use esched_types::{TaskId, TaskSet};

/// Number of heavy subintervals (`n_j > m`) — used for span fields only,
/// so it is computed lazily inside the `span!` guard.
fn heavy_count(timeline: &Timeline, cores: usize) -> usize {
    timeline.heavy_iter(cores).count()
}

/// Available execution time per (task, subinterval) pair.
///
/// Stored **subinterval-major** (CSR mirroring the timeline's overlap
/// lists): column `j` is one contiguous run aligned with
/// `timeline.get(j).overlapping`. The allocators fill whole columns and
/// the refine loops read whole columns, so both walk the slab
/// sequentially; the task-major layout this replaced made every one of
/// those accesses a page-sized stride (one TLB entry per task touched
/// per subinterval), which dominated the DER allocator's profile.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailMatrix {
    /// Cell values; column `j` is `data[col_offsets[j]..col_offsets[j+1]]`.
    data: Vec<f64>,
    /// Task id of each cell — a copy of the timeline's (id-sorted)
    /// overlap lists, so by-id lookups don't need the timeline.
    ids: Vec<TaskId>,
    /// Slab offset of each column; `n_subintervals + 1` entries.
    col_offsets: Vec<usize>,
    /// `(start, end)` subinterval span of each task.
    spans: Vec<(usize, usize)>,
    /// `(start, end)` time bounds of each column — lets the online repair
    /// path match columns of an old allocation against a patched timeline
    /// without keeping the old timeline alive.
    col_bounds: Vec<(f64, f64)>,
}

impl AvailMatrix {
    /// All-zero matrix shaped by `timeline`.
    pub fn zeros(timeline: &Timeline, n_tasks: usize) -> Self {
        let mut col_offsets = Vec::with_capacity(timeline.len() + 1);
        let mut col_bounds = Vec::with_capacity(timeline.len());
        let mut ids = Vec::new();
        col_offsets.push(0);
        for sub in timeline.subintervals() {
            ids.extend_from_slice(&sub.overlapping);
            col_offsets.push(ids.len());
            col_bounds.push((sub.interval.start, sub.interval.end));
        }
        let spans = (0..n_tasks)
            .map(|i| {
                let r = timeline.span(i);
                (r.start, r.end)
            })
            .collect();
        Self {
            data: vec![0.0; ids.len()],
            ids,
            col_offsets,
            spans,
            col_bounds,
        }
    }

    /// Slab index of cell `(task, j)`, if the task overlaps `j`.
    fn cell(&self, task: TaskId, j: usize) -> Option<usize> {
        let col = self.col_offsets[j]..self.col_offsets[j + 1];
        self.ids[col.clone()]
            .binary_search(&task)
            .ok()
            .map(|pos| col.start + pos)
    }

    /// Available time of task `i` during subinterval `j` (0 when the
    /// window does not cover `j`).
    pub fn get(&self, task: TaskId, j: usize) -> f64 {
        self.cell(task, j).map_or(0.0, |c| self.data[c])
    }

    /// Set the available time of task `i` during subinterval `j`.
    ///
    /// # Panics
    /// If the task's window does not cover `j`.
    pub fn set(&mut self, task: TaskId, j: usize, value: f64) {
        match self.cell(task, j) {
            Some(c) => self.data[c] = value,
            None => panic!("task {task} not available in subinterval {j}"),
        }
    }

    /// Column `j` as a mutable slice aligned with the timeline's overlap
    /// list for `j` — the allocators' sequential write path.
    fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let col = self.col_offsets[j]..self.col_offsets[j + 1];
        &mut self.data[col]
    }

    /// Column `j` aligned with the timeline's overlap list for `j`.
    pub(crate) fn col(&self, j: usize) -> &[f64] {
        &self.data[self.col_offsets[j]..self.col_offsets[j + 1]]
    }

    /// Total available time `A_i = Σ_j a_{i,j}` of task `i`.
    pub fn total(&self, task: TaskId) -> f64 {
        esched_types::time::compensated_sum(self.row(task).map(|(_, v)| v))
    }

    /// Totals for every task — one sequential pass over the slab, with
    /// per-task Neumaier compensation (matching
    /// [`esched_types::time::compensated_sum`]).
    ///
    /// The running sums and corrections live in two parallel arrays (the
    /// two-accumulator split), and the correction term is a select over
    /// two precomputed candidates rather than a branch: `|s| ≥ |v|` is
    /// data-dependent and near-random across cells, so a branch here
    /// mispredicts constantly on large slabs while the select form costs
    /// one cmov.
    pub fn totals(&self) -> Vec<f64> {
        let n = self.spans.len();
        let mut sum = vec![0.0_f64; n];
        let mut comp = vec![0.0_f64; n];
        for (&i, &v) in self.ids.iter().zip(self.data.iter()) {
            let s = sum[i];
            let t = s + v;
            let big = (s - t) + v;
            let small = (v - t) + s;
            comp[i] += if s.abs() >= v.abs() { big } else { small };
            sum[i] = t;
        }
        sum.iter().zip(comp.iter()).map(|(s, c)| s + c).collect()
    }

    /// Number of tasks (rows).
    pub fn task_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of columns (subintervals).
    pub fn column_count(&self) -> usize {
        self.col_bounds.len()
    }

    /// Task ids of column `j`, ascending (the overlap list it was shaped
    /// from).
    fn col_ids(&self, j: usize) -> &[TaskId] {
        &self.ids[self.col_offsets[j]..self.col_offsets[j + 1]]
    }

    /// Iterate `(subinterval, avail)` pairs of one task's row. A by-id
    /// lookup per spanned subinterval — fine off the hot path; bulk
    /// consumers should walk columns instead.
    pub fn row(&self, task: TaskId) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (a, b) = self.spans[task];
        (a..b).map(move |j| {
            let c = self.cell(task, j).expect("span covers j");
            (j, self.data[c])
        })
    }
}

/// Fill every *light* subinterval of `avail`: each overlapping task gets
/// the full `Δ_j` (Observation 2). Heavy subintervals are left untouched.
fn allocate_light(timeline: &Timeline, cores: usize, avail: &mut AvailMatrix) {
    for j in timeline.light_iter(cores) {
        let delta = timeline.get(j).delta();
        avail.col_mut(j).fill(delta);
    }
}

/// The evenly allocating method (Section V.B): heavy subintervals divide
/// core time equally, `a_{i,j} = m·Δ_j / n_j`.
pub fn allocate_even(tasks: &TaskSet, timeline: &Timeline, cores: usize) -> AvailMatrix {
    let _span = span!(
        Level::Debug,
        "allocate_even",
        n_tasks = tasks.len(),
        n_subintervals = timeline.len(),
        n_heavy = heavy_count(timeline, cores),
    );
    let mut avail = AvailMatrix::zeros(timeline, tasks.len());
    allocate_light(timeline, cores, &mut avail);
    for j in timeline.heavy_iter(cores) {
        let sub = timeline.get(j);
        let share = cores as f64 * sub.delta() / sub.overlap_count() as f64;
        avail.col_mut(j).fill(share);
    }
    avail
}

/// Desired Execution Requirement of task `i` during subinterval `j`
/// (Eq. 24): `c(τ) = |U_i^O ∩ [t_j, t_{j+1}]| · f_i^O`.
pub fn der(ideal: &IdealSolution, task: TaskId, timeline: &Timeline, j: usize) -> f64 {
    ideal.exec_overlap(task, &timeline.get(j).interval) * ideal.freq[task]
}

/// Canonical water-filling order: weight descending, task id ascending on
/// ties — the deterministic order Algorithm 2 considers tasks in.
fn by_weight_desc(a: &(TaskId, f64), b: &(TaskId, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .expect("finite weights")
        .then(a.0.cmp(&b.0))
}

/// Per-call counters shared by the water-filling implementations.
#[derive(Debug, Default, Clone, Copy)]
struct WaterfillStats {
    /// Tasks whose proportional share exceeded `Δ_j` and was capped.
    capped: u64,
    /// Tasks served by the degenerate even-split fallback.
    even: u64,
}

/// `true` when `ESCHED_DER_REFERENCE` (non-empty, not `"0"`) pins the
/// process to the round-based reference allocator. Read once: the
/// differential battery flips it to drive every downstream consumer —
/// engine, experiments, fuzz — through the reference path.
fn reference_forced() -> bool {
    use std::sync::OnceLock;
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| {
        std::env::var_os("ESCHED_DER_REFERENCE").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// Below this size the fast path delegates to the reference loop: the
/// selection machinery only pays once the uncapped bulk dominates.
const WATERFILL_FAST_CUTOFF: usize = 16;

/// Default [`AllocRequest::with_parallel_threshold`]: instances with
/// fewer subintervals than this stay serial even when a pool is attached.
/// At paper scale (tens of columns) the fan-out's chunk bookkeeping and
/// thread spawns cost more than the columns themselves.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 256;

/// Target cell count per parallel chunk. Chunk boundaries are a pure
/// function of the CSR shape (never of the worker count), which is what
/// keeps pooled outputs byte-identical at 1/4/8 workers.
const PAR_CHUNK_CELLS: usize = 16_384;

/// The even-split tail of a canonically sorted weight list: the maximal
/// suffix whose weight sum is ≤ `EPS`. Proportional shares carry no
/// signal there (the denominator would be ~zero), so both water-filling
/// implementations switch to an even split of whatever pool remains — a
/// starved task would otherwise end up with zero total availability and
/// no finite final frequency. Returns `(start index, suffix sum)`. The
/// backward accumulation order is part of the contract: the fast path
/// reproduces it bit-for-bit on the same elements, so both
/// implementations agree exactly on where the tail begins.
fn even_split_tail<T>(sorted: &[T], weight: impl Fn(&T) -> f64) -> (usize, f64) {
    let mut start = sorted.len();
    let mut sum = 0.0;
    while start > 0 {
        let s = sum + weight(&sorted[start - 1]);
        if s > EPS {
            break;
        }
        sum = s;
        start -= 1;
    }
    (start, sum)
}

/// Round-based Algorithm 2 inner loop (the reference implementation):
/// walk the canonically sorted weights greatest-first, offer each task
/// the fraction `w/W_rem` of the remaining pool, cap the share at
/// `delta`, and let the shrinking pool and weight total redistribute
/// each cap's surplus over the tasks that follow. Full `O(n log n)`
/// sort plus a serial division chain. `suffix` is a scratch buffer for
/// the remaining-weight sums.
///
/// `W_rem` is a backward-accumulated suffix sum, not `W_total − prefix`:
/// subtracting a near-total prefix from the grand total cancels
/// catastrophically once caps have consumed almost all weight, and the
/// resulting noise in the share denominators is what would push the two
/// implementations apart. Summing the (positive) remaining weights
/// directly keeps every denominator accurate relative to itself, so the
/// fast path's frozen λ agrees with the reference's rolling ratio to a
/// few ULPs — far inside `WORK_TOL`.
///
/// On return `entries` is sorted canonically and each weight slot holds
/// the task's allocation.
fn waterfill_reference(
    entries: &mut [(TaskId, f64)],
    delta: f64,
    cores: usize,
    stats: &mut WaterfillStats,
    suffix: &mut Vec<f64>,
) {
    let n = entries.len();
    entries.sort_unstable_by(by_weight_desc);
    suffix.clear();
    suffix.resize(n + 1, 0.0);
    for k in (0..n).rev() {
        suffix[k] = suffix[k + 1] + entries[k].1;
    }
    // The even-split tail: suffix sums are non-increasing, so the tail is
    // exactly the positions whose remaining-weight total is ≤ EPS.
    let tail_start = suffix[..n].partition_point(|&s| s > EPS);
    let mut pool = cores as f64 * delta;
    for (k, e) in entries[..tail_start].iter_mut().enumerate() {
        let w = e.1;
        let alloc = if pool <= EPS {
            0.0
        } else {
            let share = w * pool / suffix[k];
            if share > delta {
                stats.capped += 1;
            }
            share.min(delta)
        };
        pool -= alloc;
        e.1 = alloc;
    }
    let mut remaining = n - tail_start;
    for e in entries[tail_start..].iter_mut() {
        let alloc = if pool <= EPS {
            0.0
        } else {
            stats.even += 1;
            (pool / remaining as f64).min(delta)
        };
        pool -= alloc;
        remaining -= 1;
        e.1 = alloc;
    }
}

/// Sort-free water-filling over flat parallel slices: the same
/// allocation as [`waterfill_reference`] in `O(n + m log m)`. Caps
/// consume `Δ_j` each from an `m·Δ_j` pool, so the capped prefix and the
/// crossover live in the `m + 2` largest weights — a bounded insertion
/// scan pulls that head without permuting the input, a linear scan finds
/// the crossover and freezes `λ = pool / W_rem`, and a single
/// multiply-by-λ pass prices every remaining task at once, replacing the
/// reference's full sort and serial division chain.
///
/// Cap and tail decisions reuse the reference's exact arithmetic (same
/// weight total, same prefix sums, same pool updates, same backward tail
/// accumulation), so the two implementations take identical branches;
/// the λ freeze itself only moves shares at rounding scale, far inside
/// `WORK_TOL`.
///
/// The scalar outputs; the head and tiny buffers (canonically ordered)
/// are left in the caller-provided vectors for the emission pass.
struct WaterfillPlan {
    /// Start of the even-split tail within the tiny buffer.
    tiny_tail_start: usize,
    /// Frozen multiplier `λ = pool / W_rem`; 0 when the pool died first.
    lam: f64,
    /// Capped head prefix length.
    caps: usize,
    /// Pool remaining at the tail boundary: λ·(tail weight), or whatever
    /// was left when the scan stopped without a crossover. The
    /// reference's sequential subtraction lands on the same value up to
    /// rounding, far inside WORK_TOL either side of the EPS gate.
    tail_pool: f64,
}

/// `overlap_len(e, iv) * freq` with plain compare-selects instead of the
/// NaN-propagating `f64::max`/`f64::min` — identical for the finite
/// intervals the planner stages (a debug assertion downstream enforces
/// finiteness), and free of the unordered-compare fixup chains IEEE
/// max/min lowers to, which dominate the staging gather otherwise.
#[inline(always)]
fn staged_weight(e: &Interval, iv: &Interval, freq: f64) -> f64 {
    let lo = if e.start > iv.start {
        e.start
    } else {
        iv.start
    };
    let hi = if e.end < iv.end { e.end } else { iv.end };
    let len = hi - lo;
    (if len > 0.0 { len } else { 0.0 }) * freq
}

/// [`staged_weight`] over a packed `[exec.start, exec.end, freq]` record
/// (see [`Scratch::packed`]) — the bulk gather's form.
#[inline(always)]
fn packed_weight(e: &[f64; 3], iv: &Interval) -> f64 {
    let lo = if e[0] > iv.start { e[0] } else { iv.start };
    let hi = if e[1] < iv.end { e[1] } else { iv.end };
    let len = hi - lo;
    (if len > 0.0 { len } else { 0.0 }) * e[2]
}

/// Index of the canonically-last (smallest weight, greatest id) entry of
/// an unsorted head — the eviction candidate. `m + 2` entries, so a
/// plain linear scan.
#[inline]
fn head_worst(head: &[(usize, TaskId, f64)]) -> usize {
    let mut at = 0usize;
    for (k, h) in head.iter().enumerate().skip(1) {
        let w = head[at];
        if h.2 < w.2 || (h.2 == w.2 && h.1 > w.1) {
            at = k;
        }
    }
    at
}

#[allow(clippy::too_many_arguments)] // flat hot-path plumbing; the public surface is `allocate`
fn waterfill_plan(
    ids: &[TaskId],
    w: &[f64],
    delta: f64,
    cores: usize,
    stats: &mut WaterfillStats,
    suffix: &mut Vec<f64>,
    head: &mut Vec<(usize, TaskId, f64)>,
    tiny: &mut [(usize, f64)],
) -> WaterfillPlan {
    let n = w.len();
    let k_nth = cores + 1;
    // Fast path first: one branch-free four-lane pass computes the column
    // total and maximum (lane assignment is a pure function of cell
    // position, so the folded bits are identical wherever this plan
    // runs). If even the heaviest task's proportional share stays within
    // `Δ_j` — the overwhelmingly common case on large instances — the cap
    // scan is a no-op, λ is just `pool / total`, and the top-`(m + 2)`
    // head is never needed: emission reduces to the bulk multiply-min
    // plus the even-split tail.
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut m0, mut m1, mut m2, mut m3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut quads = w.chunks_exact(4);
    for q in &mut quads {
        s0 += q[0];
        s1 += q[1];
        s2 += q[2];
        s3 += q[3];
        m0 = if q[0] > m0 { q[0] } else { m0 };
        m1 = if q[1] > m1 { q[1] } else { m1 };
        m2 = if q[2] > m2 { q[2] } else { m2 };
        m3 = if q[3] > m3 { q[3] } else { m3 };
    }
    for &v in quads.remainder() {
        s0 += v;
        m0 = if v > m0 { v } else { m0 };
    }
    let total = (s0 + s1) + (s2 + s3);
    let m01 = if m0 > m1 { m0 } else { m1 };
    let m23 = if m2 > m3 { m2 } else { m3 };
    let wmax = if m01 > m23 { m01 } else { m23 };
    debug_assert!(total.is_finite(), "finite weights");
    // Canonically order the tail candidates; all-positive workloads have
    // none and skip this.
    tiny.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite weights")
            .then(ids[a.0].cmp(&ids[b.0]))
    });
    let (tiny_tail_start, tail_sum) = even_split_tail(tiny, |e| e.1);
    let n_nontail = n - (tiny.len() - tiny_tail_start);
    let pool = cores as f64 * delta;
    if n_nontail == 0 || pool <= EPS {
        // Degenerate column (everything is tail, or no capacity): the cap
        // scan would resolve to λ = 0 with the whole pool left for the
        // even split.
        head.clear();
        return WaterfillPlan {
            tail_pool: pool,
            lam: 0.0,
            caps: 0,
            tiny_tail_start,
        };
    }
    if wmax * pool / total <= delta {
        head.clear();
        let lam = pool / total;
        return WaterfillPlan {
            tail_pool: lam * tail_sum,
            lam,
            caps: 0,
            tiny_tail_start,
        };
    }
    // Some share crosses `Δ_j`, so the capped prefix matters: one pass
    // over the staged weights does two jobs — track the `m + 2`
    // canonically-first entries (`head`, kept UNSORTED: an admitted
    // element overwrites the worst slot in place and a bounded rescan
    // refreshes the worst, so no insertion shifts the others) and
    // accumulate the weight staying outside the head (`rem_weight`:
    // evicted or never-admitted elements — all positive adds, so the
    // share denominators stay accurate relative to themselves, same as
    // the reference's suffix accumulation). Ids only break exact ties,
    // and the admit/evict sequence — hence the `rem_weight` summation
    // order — is identical to a sorted head's.
    head.clear();
    for p in 0..=k_nth {
        debug_assert!(w[p].is_finite(), "finite weights");
        head.push((p, ids[p], w[p]));
    }
    let mut worst_at = head_worst(head);
    let (mut worst_id, mut worst_w) = (head[worst_at].1, head[worst_at].2);
    let mut rem_weight = 0.0;
    for p in k_nth + 1..n {
        let (id, wv) = (ids[p], w[p]);
        debug_assert!(wv.is_finite(), "finite weights");
        if !(wv > worst_w || (wv == worst_w && id < worst_id)) {
            rem_weight += wv;
            continue;
        }
        rem_weight += worst_w;
        head[worst_at] = (p, id, wv);
        worst_at = head_worst(head);
        (worst_id, worst_w) = (head[worst_at].1, head[worst_at].2);
    }
    waterfill_plan_finish(ids, n, rem_weight, delta, cores, stats, suffix, head, tiny)
}

/// Turn a completed head scan into a [`WaterfillPlan`]: canonicalize the
/// head, build its suffix sums, order the ≤ EPS tail, and run the
/// cap-crossover scan. Only the capping branch of the planner above ends
/// up here — the no-cap fast path never materializes a head.
#[allow(clippy::too_many_arguments)] // flat hot-path plumbing; the public surface is `allocate`
fn waterfill_plan_finish(
    ids: &[TaskId],
    n: usize,
    rem_weight: f64,
    delta: f64,
    cores: usize,
    stats: &mut WaterfillStats,
    suffix: &mut Vec<f64>,
    head: &mut [(usize, TaskId, f64)],
    tiny: &mut [(usize, f64)],
) -> WaterfillPlan {
    let k_nth = cores + 1;
    debug_assert_eq!(head.len(), k_nth + 1);
    // Suffix sums, the cap scan, and emission all expect the canonical
    // (weight descending, id ascending) order, so sort the bounded head
    // once; overlap ids are unique, making the order total.
    head.sort_unstable_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .expect("finite weights")
            .then(a.1.cmp(&b.1))
    });
    suffix.clear();
    suffix.resize(k_nth + 2, 0.0);
    suffix[k_nth + 1] = rem_weight;
    for k in (0..=k_nth).rev() {
        suffix[k] = suffix[k + 1] + head[k].2;
    }
    // Canonically order the tail candidates; all-positive workloads have
    // none and skip this.
    tiny.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite weights")
            .then(ids[a.0].cmp(&ids[b.0]))
    });
    let (tiny_tail_start, tail_sum) = even_split_tail(tiny, |e| e.1);
    let n_nontail = n - (tiny.len() - tiny_tail_start);

    // Cap-crossover scan over the canonical head, with the reference's
    // exact branch arithmetic.
    let mut pool = cores as f64 * delta;
    let mut caps = 0usize;
    let mut lambda = None;
    while caps < n_nontail.min(k_nth + 1) && pool > EPS {
        let wv = head[caps].2;
        let rem = suffix[caps];
        if wv * pool / rem <= delta {
            lambda = Some(pool / rem);
            break;
        }
        stats.capped += 1;
        pool -= delta;
        caps += 1;
    }
    // At most m−1 caps fit before the crossover, so the scan always
    // resolves within the head (or exhausts the pool / non-tail).
    debug_assert!(
        lambda.is_some() || pool <= EPS || caps == n_nontail,
        "cap scan ran past the head"
    );
    WaterfillPlan {
        tail_pool: match lambda {
            Some(l) => l * tail_sum,
            None => pool,
        },
        lam: lambda.unwrap_or(0.0),
        caps,
        tiny_tail_start,
    }
}

/// Production emission: water-fill one heavy subinterval's staged flat
/// weights and write the allocations straight into its `AvailMatrix`
/// column. `ids`/`w`/`cells` are parallel slices in overlap order, so
/// the bulk pass is one branch-free fused multiply-min per cell —
/// sequential loads and stores the autovectorizer turns into packed
/// `mul`/`min`; the bounded head and the even-split tail are overwritten
/// after it, in that order. Falls back to [`waterfill_reference`] below
/// the cutoff or under `ESCHED_DER_REFERENCE`; the sort loses positions,
/// so that path maps task ids back through `ids`.
///
/// Precondition: `scratch.wf_tiny` holds the `(position, weight)` pairs
/// with weight ≤ `EPS`, ascending by position — the staging loop collects
/// them while its gather loads are in flight, which keeps the near-zero
/// check out of the planner's hot scan.
fn waterfill_into_flat(
    ids: &[TaskId],
    w: &[f64],
    delta: f64,
    cores: usize,
    stats: &mut WaterfillStats,
    scratch: &mut Scratch,
    cells: &mut [f64],
) {
    let n = w.len();
    debug_assert_eq!(cells.len(), n);
    debug_assert_eq!(ids.len(), n);
    debug_assert!(
        scratch.wf_tiny.iter().map(|e| e.0).eq(w
            .iter()
            .enumerate()
            .filter(|&(_, &wv)| wv <= EPS)
            .map(|(p, _)| p)),
        "staged tiny candidates out of sync with the weight slice"
    );
    if reference_forced() || n <= WATERFILL_FAST_CUTOFF || cores + 1 >= n {
        let pairs = &mut scratch.ders;
        pairs.clear();
        pairs.extend(ids.iter().copied().zip(w.iter().copied()));
        waterfill_reference(pairs, delta, cores, stats, &mut scratch.suffix);
        for &(i, alloc) in pairs.iter() {
            let pos = ids
                .binary_search(&i)
                .expect("entry task is in the overlap list");
            cells[pos] = alloc;
        }
        return;
    }
    let plan = waterfill_plan(
        ids,
        w,
        delta,
        cores,
        stats,
        &mut scratch.suffix,
        &mut scratch.wf_head,
        &mut scratch.wf_tiny,
    );
    waterfill_emit(
        &plan,
        w,
        delta,
        &scratch.wf_head,
        &scratch.wf_tiny,
        stats,
        cells,
    );
}

/// Write one planned column into its value slab: the branch-free bulk
/// multiply-min pass, then the bounded head (caps first), then the
/// even-split tail, in that order.
fn waterfill_emit(
    plan: &WaterfillPlan,
    w: &[f64],
    delta: f64,
    head: &[(usize, TaskId, f64)],
    tiny: &[(usize, f64)],
    stats: &mut WaterfillStats,
    cells: &mut [f64],
) {
    let lam = plan.lam;
    // Compare-select rather than `f64::min`: same value for the finite
    // products here, but it lowers to a bare packed `min` without the
    // NaN fixup blend.
    for (c, &wv) in cells.iter_mut().zip(w.iter()) {
        let v = wv * lam;
        *c = if v < delta { v } else { delta };
    }
    for (k, &(p, _, wv)) in head.iter().enumerate() {
        let v = wv * lam;
        cells[p] = if k < plan.caps || v >= delta {
            delta
        } else {
            v
        };
    }
    let tail = &tiny[plan.tiny_tail_start..];
    let mut tpool = plan.tail_pool;
    let mut remaining = tail.len();
    for &(idx, _) in tail {
        let alloc = if tpool <= EPS {
            0.0
        } else {
            stats.even += 1;
            (tpool / remaining as f64).min(delta)
        };
        tpool -= alloc;
        remaining -= 1;
        cells[idx] = alloc;
    }
}

/// One heavy column, end to end: gather the column's DER weights from the
/// packed per-task records, stage the ≤ EPS tail candidates, and
/// water-fill into the value slab. Every rounding step goes through
/// [`waterfill_into_flat`], the same routine the staged callers
/// (`repair_der_columns`, work-proportional refinement) use — the bulk
/// path and a single-column repair are bit-identical by construction.
#[allow(clippy::too_many_arguments)] // flat hot-path plumbing; the public surface is `allocate`
fn waterfill_gather_column(
    ids: &[TaskId],
    packed: &[[f64; 3]],
    iv: &Interval,
    delta: f64,
    cores: usize,
    stats: &mut WaterfillStats,
    scratch: &mut Scratch,
    cells: &mut [f64],
) {
    let n = ids.len();
    debug_assert_eq!(cells.len(), n);
    let mut der_w = std::mem::take(&mut scratch.der_w);
    // The gather is the only random-access pass per column, so keep its
    // loop minimal: a trusted-len extend (no per-cell capacity check)
    // reading one packed record per cell. The ≤ EPS tail candidates are
    // then collected from the staged weights while they are still in L1.
    der_w.clear();
    der_w.extend(ids.iter().map(|&i| packed_weight(&packed[i], iv)));
    scratch.wf_tiny.clear();
    scratch.wf_tiny.extend(
        der_w
            .iter()
            .enumerate()
            .filter(|&(_, &wv)| wv <= EPS)
            .map(|(p, &wv)| (p, wv)),
    );
    waterfill_into_flat(ids, &der_w, delta, cores, stats, scratch, cells);
    scratch.der_w = der_w;
}

/// Fill columns `cols` of a slab, overwriting every cell: light columns
/// get `Δ_j` outright, heavy columns stage their DER weights flat and
/// water-fill.
/// `slab` is `data[col_offsets[cols.start]..col_offsets[cols.end]]` and
/// `slab_base = col_offsets[cols.start]`, so the same body serves the
/// serial whole-matrix pass and one parallel chunk. Fusing light and
/// heavy into a single ascending walk (instead of the old two-iterator
/// split) keeps the slab writes sequential.
#[allow(clippy::too_many_arguments)] // flat hot-path plumbing; the public surface is `allocate`
fn fill_columns(
    timeline: &Timeline,
    cores: usize,
    packed: &[[f64; 3]],
    cols: Range<usize>,
    slab: &mut [f64],
    slab_base: usize,
    col_offsets: &[usize],
    scratch: &mut Scratch,
    stats: &mut WaterfillStats,
) {
    for j in cols {
        let cells = &mut slab[col_offsets[j] - slab_base..col_offsets[j + 1] - slab_base];
        let sub = timeline.get(j);
        if !sub.is_heavy(cores) {
            cells.fill(sub.delta());
            continue;
        }
        waterfill_gather_column(
            &sub.overlapping,
            packed,
            &sub.interval,
            sub.delta(),
            cores,
            stats,
            scratch,
            cells,
        );
    }
}

/// Fan one instance's columns across the pool: partition into chunks of
/// ~[`PAR_CHUNK_CELLS`] cells (boundaries depend only on the CSR shape),
/// split the value slab at the chunk boundaries, and fill each chunk as
/// an independent job. Every column's allocation is a pure function of
/// `(overlap ids, staged DERs, Δ_j, cores)` and every job writes a
/// disjoint slab, so the matrix is bitwise identical to the serial pass
/// at any worker count; stats are summed in submission order.
fn fill_columns_parallel(
    timeline: &Timeline,
    cores: usize,
    packed: &[[f64; 3]],
    avail: &mut AvailMatrix,
    pool: &Pool,
    stats: &mut WaterfillStats,
) {
    let n_cols = timeline.len();
    let col_offsets = &avail.col_offsets;
    let mut chunks: Vec<Range<usize>> = Vec::new();
    let mut start = 0usize;
    for j in 0..n_cols {
        if col_offsets[j + 1] - col_offsets[start] >= PAR_CHUNK_CELLS {
            chunks.push(start..j + 1);
            start = j + 1;
        }
    }
    if start < n_cols {
        chunks.push(start..n_cols);
    }
    metric_counter!("esched.core.der_parallel_chunks").add(chunks.len() as u64);

    let mut jobs = Vec::with_capacity(chunks.len());
    let mut rest: &mut [f64] = &mut avail.data;
    let mut cut = 0usize;
    for range in chunks {
        let end = col_offsets[range.end];
        let (slab, tail) = rest.split_at_mut(end - cut);
        rest = tail;
        jobs.push((range, cut, slab));
        cut = end;
    }
    let results = pool.batch_map(jobs, |scratch, (range, base, slab)| {
        let mut local = WaterfillStats::default();
        fill_columns(
            timeline,
            cores,
            packed,
            range,
            slab,
            base,
            col_offsets,
            scratch,
            &mut local,
        );
        local
    });
    for r in results {
        match r {
            Ok(s) => {
                stats.capped += s.capped;
                stats.even += s.even;
            }
            // Serial allocation lets panics unwind to the caller; keep
            // the same contract when the work went through the pool.
            Err(e) => panic!("intra-instance allocation chunk failed: {e}"),
        }
    }
}

/// Which implementation of the heavy-subinterval division [`allocate`]
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DerStrategy {
    /// The production closed-form water-fill (bounded head scan + one
    /// multiply pass), vectorized and pool-parallelizable.
    #[default]
    Waterfill,
    /// The round-based Algorithm 2 loop, unconditionally — the ground
    /// truth the differential harness compares against (shares agree to
    /// `WORK_TOL`), and the serial scalar baseline of the large-n
    /// benchmarks. Publishes no metrics, so differential runs don't
    /// double-count.
    Reference,
    /// Ablation: proportional shares against the original DER totals,
    /// capped at `Δ_j`, with **no redistribution** of a cap's surplus.
    /// Shows the cap-and-redistribute loop is load-bearing.
    NoRedistribution,
}

/// One request to the unified DER allocation entry point, [`allocate`].
///
/// Replaces the former four-function surface (`allocate_der`,
/// `allocate_der_with`, `allocate_der_reference`,
/// `allocate_der_no_redistribution`): strategy, scratch reuse, and
/// intra-instance parallelism are orthogonal knobs on one request.
///
/// ```
/// # use esched_core::{allocate, AllocRequest, DerStrategy, ideal_schedule};
/// # use esched_subinterval::Timeline;
/// # use esched_types::{PolynomialPower, TaskSet};
/// # let tasks = TaskSet::from_triples(&[(0.0, 4.0, 2.0), (1.0, 5.0, 2.0)]);
/// # let timeline = Timeline::build(&tasks);
/// # let ideal = ideal_schedule(&tasks, &PolynomialPower::cubic());
/// let avail = allocate(AllocRequest::new(&tasks, &timeline, 2, &ideal));
/// let ground_truth = allocate(
///     AllocRequest::new(&tasks, &timeline, 2, &ideal).strategy(DerStrategy::Reference),
/// );
/// # assert_eq!(avail.task_count(), ground_truth.task_count());
/// ```
#[derive(Debug)]
pub struct AllocRequest<'a> {
    tasks: &'a TaskSet,
    timeline: &'a Timeline,
    cores: usize,
    ideal: &'a IdealSolution,
    strategy: DerStrategy,
    scratch: Option<&'a mut Scratch>,
    pool: Option<&'a Pool>,
    parallel_threshold: usize,
}

impl<'a> AllocRequest<'a> {
    /// A request with the production defaults: [`DerStrategy::Waterfill`],
    /// a fresh scratch, no pool.
    pub fn new(
        tasks: &'a TaskSet,
        timeline: &'a Timeline,
        cores: usize,
        ideal: &'a IdealSolution,
    ) -> Self {
        Self {
            tasks,
            timeline,
            cores,
            ideal,
            strategy: DerStrategy::default(),
            scratch: None,
            pool: None,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// Select the division implementation.
    pub fn strategy(mut self, strategy: DerStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Reuse a caller-owned [`Scratch`] so batch drivers pay for the
    /// staging buffers once. Only the serial [`DerStrategy::Waterfill`]
    /// path reads it (pool workers own their arenas).
    pub fn with_scratch(mut self, scratch: &'a mut Scratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Fan heavy column ranges across `pool` when the instance has at
    /// least the threshold's worth of subintervals (see
    /// [`AllocRequest::with_parallel_threshold`]). Output is byte-identical
    /// to the serial pass at any worker count.
    pub fn with_pool(mut self, pool: &'a Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Minimum subinterval count before an attached pool is used
    /// (default [`DEFAULT_PARALLEL_THRESHOLD`]).
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = threshold;
        self
    }
}

/// The DER-based allocating method (Section V.C, Algorithm 2) — the one
/// entry point for every strategy, scratch, and parallelism combination.
///
/// In each heavy subinterval, tasks are considered in order of
/// decreasing DER. Each is offered the fraction `c(τ)/C` of the
/// remaining pool (where `C` is the remaining DER total); a share
/// exceeding `Δ_j` is capped at `Δ_j`, and the surplus is redistributed
/// over the tasks that follow. [`DerStrategy::Waterfill`] computes that
/// in closed form; see [`DerStrategy`] for the alternatives.
pub fn allocate(req: AllocRequest<'_>) -> AvailMatrix {
    let AllocRequest {
        tasks,
        timeline,
        cores,
        ideal,
        strategy,
        scratch,
        pool,
        parallel_threshold,
    } = req;
    match strategy {
        DerStrategy::Reference => allocate_reference_impl(tasks, timeline, cores, ideal),
        DerStrategy::NoRedistribution => {
            allocate_no_redistribution_impl(tasks, timeline, cores, ideal)
        }
        DerStrategy::Waterfill => {
            let mut avail = AvailMatrix::zeros(timeline, tasks.len());
            let mut local;
            let scratch = match scratch {
                Some(s) => s,
                None => {
                    local = Scratch::new();
                    &mut local
                }
            };
            fill_der(
                timeline,
                cores,
                ideal,
                &mut avail,
                scratch,
                pool,
                parallel_threshold,
            );
            avail
        }
    }
}

/// Water-fill every column of `avail`, which `timeline` shaped, the way
/// [`allocate`]'s [`DerStrategy::Waterfill`] does: light columns get
/// `Δ_j`, heavy columns their DER water-fill. Every cell is overwritten,
/// so whatever `avail` held before does not matter — the online repair's
/// fallback refills the matrix it has just spliced to its new shape. The
/// pass fans out across `pool` under the same rule as `allocate`.
fn fill_der(
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
    avail: &mut AvailMatrix,
    scratch: &mut Scratch,
    pool: Option<&Pool>,
    parallel_threshold: usize,
) {
    let _span = span!(
        Level::Debug,
        "allocate_der",
        n_tasks = avail.task_count(),
        n_subintervals = timeline.len(),
        n_heavy = heavy_count(timeline, cores),
    );
    metric_counter!("esched.core.der_alloc_calls").inc();
    let _flight = esched_obs::flight_span!("allocate_der");
    let mut stats = WaterfillStats::default();
    let n_cols = timeline.len();
    // One sequential pass packs the ideal solution into the gather
    // records every column's staging loop reads (`Scratch::packed` keeps
    // the buffer across calls); the parallel path shares the same slice
    // read-only.
    let mut packed = std::mem::take(&mut scratch.packed);
    packed.clear();
    packed.extend(
        ideal
            .exec
            .iter()
            .zip(ideal.freq.iter())
            .map(|(e, &f)| [e.start, e.end, f]),
    );
    let fan_out = pool.filter(|p| p.threads() > 1 && n_cols >= parallel_threshold);
    if let Some(p) = fan_out {
        fill_columns_parallel(timeline, cores, &packed, avail, p, &mut stats);
    } else {
        let AvailMatrix {
            data, col_offsets, ..
        } = avail;
        fill_columns(
            timeline,
            cores,
            &packed,
            0..n_cols,
            data,
            0,
            col_offsets,
            scratch,
            &mut stats,
        );
    }
    scratch.packed = packed;
    metric_counter!("esched.core.der_waterfill_capped").add(stats.capped);
    metric_counter!("esched.core.der_fallback_even").add(stats.even);
    event!(
        Level::Debug,
        "der allocation done",
        capped = stats.capped,
        fallback_even = stats.even,
    );
}

/// See [`DerStrategy::Reference`].
fn allocate_reference_impl(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
) -> AvailMatrix {
    let mut avail = AvailMatrix::zeros(timeline, tasks.len());
    allocate_light(timeline, cores, &mut avail);
    let mut stats = WaterfillStats::default();
    let mut ders: Vec<(TaskId, f64)> = Vec::new();
    let mut suffix = Vec::new();
    for j in timeline.heavy_iter(cores) {
        let sub = timeline.get(j);
        ders.clear();
        ders.extend(
            sub.overlapping
                .iter()
                .map(|&i| (i, der(ideal, i, timeline, j))),
        );
        waterfill_reference(&mut ders, sub.delta(), cores, &mut stats, &mut suffix);
        for &(i, alloc) in ders.iter() {
            avail.set(i, j, alloc);
        }
    }
    avail
}

/// See [`DerStrategy::NoRedistribution`]. Used by the `ablate`
/// experiment to show that the cap-and-redistribute loop is load-bearing:
/// without it, capped subintervals strand core time and the final
/// frequencies rise.
fn allocate_no_redistribution_impl(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
) -> AvailMatrix {
    let mut avail = AvailMatrix::zeros(timeline, tasks.len());
    allocate_light(timeline, cores, &mut avail);
    for j in timeline.heavy_iter(cores) {
        let sub = timeline.get(j);
        let delta = sub.delta();
        let pool = cores as f64 * delta;
        let ctot: f64 = sub
            .overlapping
            .iter()
            .map(|&i| der(ideal, i, timeline, j))
            .sum();
        let cells = avail.col_mut(j);
        for (pos, &i) in sub.overlapping.iter().enumerate() {
            let c = der(ideal, i, timeline, j);
            let share = if ctot > EPS { c * pool / ctot } else { 0.0 };
            cells[pos] = share.min(delta);
        }
    }
    avail
}

/// Former entry point; the water-fill strategy with owned buffers.
#[deprecated(note = "use `allocate(AllocRequest::new(tasks, timeline, cores, ideal))`")]
pub fn allocate_der(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
) -> AvailMatrix {
    allocate(AllocRequest::new(tasks, timeline, cores, ideal))
}

/// Former entry point; the water-fill strategy reusing `scratch`.
#[deprecated(
    note = "use `allocate(AllocRequest::new(tasks, timeline, cores, ideal).with_scratch(scratch))`"
)]
pub fn allocate_der_with(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
    scratch: &mut Scratch,
) -> AvailMatrix {
    allocate(AllocRequest::new(tasks, timeline, cores, ideal).with_scratch(scratch))
}

/// Former entry point; the round-based ground truth.
#[deprecated(note = "use `allocate(AllocRequest::new(..).strategy(DerStrategy::Reference))`")]
pub fn allocate_der_reference(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
) -> AvailMatrix {
    allocate(AllocRequest::new(tasks, timeline, cores, ideal).strategy(DerStrategy::Reference))
}

/// Former entry point; the no-redistribution ablation.
#[deprecated(
    note = "use `allocate(AllocRequest::new(..).strategy(DerStrategy::NoRedistribution))`"
)]
pub fn allocate_der_no_redistribution(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
) -> AvailMatrix {
    allocate(
        AllocRequest::new(tasks, timeline, cores, ideal).strategy(DerStrategy::NoRedistribution),
    )
}

/// Outcome counters of one [`repair_der_in_place`] (or
/// [`reallocate_der_patched`]) call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DerRepairStats {
    /// Columns whose allocation had to be recomputed.
    pub dirty_columns: usize,
    /// Total columns of the patched timeline.
    pub total_columns: usize,
    /// Whether the dirty fraction exceeded the threshold, so every column
    /// of the repaired matrix was refilled in place by [`allocate`]'s fill
    /// routine instead of only the dirty ones.
    pub fell_back: bool,
}

/// Recompute the listed columns of `avail` in place, exactly as
/// [`allocate`] would fill them for the same `(timeline, cores, ideal)`
/// — the local-repair half of the online engine. Each column's
/// allocation is a pure function of `(overlap ids, staged DERs, Δ_j,
/// cores)`, so recomputing only the columns whose inputs changed
/// reproduces the full allocator's output bit-for-bit.
///
/// `avail` must be shaped by `timeline` (same CSR layout).
pub fn repair_der_columns(
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
    avail: &mut AvailMatrix,
    columns: impl IntoIterator<Item = usize>,
    scratch: &mut Scratch,
) {
    let mut stats = WaterfillStats::default();
    let mut repaired = 0u64;
    let mut der_w = std::mem::take(&mut scratch.der_w);
    for j in columns {
        repaired += 1;
        let sub = timeline.get(j);
        if !sub.is_heavy(cores) {
            let delta = sub.delta();
            avail.col_mut(j).fill(delta);
            continue;
        }
        let iv = sub.interval;
        der_w.clear();
        der_w.reserve(sub.overlapping.len());
        scratch.wf_tiny.clear();
        for (p, &i) in sub.overlapping.iter().enumerate() {
            let wv = staged_weight(&ideal.exec[i], &iv, ideal.freq[i]);
            der_w.push(wv);
            if wv <= EPS {
                scratch.wf_tiny.push((p, wv));
            }
        }
        waterfill_into_flat(
            &sub.overlapping,
            &der_w,
            sub.delta(),
            cores,
            &mut stats,
            scratch,
            avail.col_mut(j),
        );
    }
    scratch.der_w = der_w;
    metric_counter!("esched.core.der_repair_columns").add(repaired);
}

/// The columns an online event can have changed, as `(lo, hi)`: the old
/// columns `lo..old_n - hi` of `avail` correspond to the new columns
/// `lo..new_n - hi` of `timeline`, and the `lo` columns before and the
/// `hi` columns after them are the same columns in both.
///
/// The region starts as everything between the longest bitwise-equal
/// runs of column bounds at either end, then widens to cover the old and
/// new spans of every touched task: `dirty_tasks` plus every arrival (an
/// id at or above `avail`'s row count). A column outside it keeps its
/// bounds and every member's window, so its overlap ids — and, since no
/// touched task is among them, its allocation — are unchanged.
fn changed_region(
    avail: &AvailMatrix,
    timeline: &Timeline,
    n_tasks: usize,
    dirty_tasks: &[TaskId],
) -> (usize, usize) {
    let subs = timeline.subintervals();
    let (old_n, new_n) = (avail.column_count(), subs.len());
    let same = |b: &(f64, f64), s: &Subinterval| {
        b.0.to_bits() == s.interval.start.to_bits() && b.1.to_bits() == s.interval.end.to_bits()
    };
    let lo = avail
        .col_bounds
        .iter()
        .zip(subs)
        .take_while(|(b, s)| same(b, s))
        .count();
    let hi = avail.col_bounds[lo..]
        .iter()
        .rev()
        .zip(subs[lo..].iter().rev())
        .take_while(|(b, s)| same(b, s))
        .count();
    // When every bound matches, the region is empty on both sides and has
    // no position of its own: the spans alone place it.
    let mut region = (lo + hi < old_n.max(new_n)).then_some((lo, hi));
    let mut cover = |(a, b): (usize, usize), n: usize| {
        if a < b {
            let (lo, hi) = region.unwrap_or((a, n - b));
            region = Some((lo.min(a), hi.min(n - b)));
        }
    };
    let old_rows = avail.task_count();
    for t in dirty_tasks.iter().copied().chain(old_rows..n_tasks) {
        if let Some(&span) = avail.spans.get(t) {
            cover(span, old_n);
        }
        let span = timeline.span(t);
        cover((span.start, span.end), new_n);
    }
    region.unwrap_or((old_n, 0))
}

/// Move `v[from..]` so it starts at `to`, growing or shrinking `v`; the
/// cells in between are left for the caller to overwrite. Growth goes
/// through `resize`, so capacity is reserved amortised.
fn move_tail<T: Copy + Default>(v: &mut Vec<T>, from: usize, to: usize) {
    let len = v.len();
    if to > from {
        v.resize(len + (to - from), T::default());
    }
    v.copy_within(from..len, to);
    v.truncate(len + to - from);
}

/// Repair `avail`, the DER allocation of the timeline before an online
/// event, into the DER allocation of the patched `timeline` — in place,
/// touching only the columns the event can have changed.
///
/// 1. The changed region is found from the column bounds at both ends
///    and the old and new spans of the touched tasks (`dirty_tasks`,
///    whose ideal-schedule DER changed, plus every arrival). Columns
///    outside it are left alone.
/// 2. A region column is **clean** when some old region column has
///    bitwise-identical time bounds and overlap ids, and, if it is
///    heavy, none of `dirty_tasks` overlaps it. Light columns depend
///    only on membership and `Δ_j`, so a dirty task alone never dirties
///    one. The rest are dirty.
/// 3. The region is spliced to its new shape: the clean columns are
///    saved, the slab's suffix moves by one `copy_within`, and the column
///    offsets and bounds are re-spliced.
/// 4. The saved clean columns are copied back and the dirty ones
///    re-waterfilled. When more than `fallback_fraction` of all columns
///    are dirty, every column is instead refilled by [`allocate`]'s fill
///    routine, fanned across `pool` when one is attached and the instance
///    clears `parallel_threshold` subintervals.
///
/// Because the per-column waterfill is a pure function of its inputs,
/// the result is bit-identical to [`allocate`] from scratch, however
/// the timeline was patched (a full rebuild included).
#[allow(clippy::too_many_arguments)] // mirrors the allocate inputs plus the patch inputs
pub fn repair_der_in_place(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
    avail: &mut AvailMatrix,
    dirty_tasks: &[TaskId],
    fallback_fraction: f64,
    pool: Option<&Pool>,
    parallel_threshold: usize,
    scratch: &mut Scratch,
) -> DerRepairStats {
    let _span = span!(
        Level::Debug,
        "repair_der_in_place",
        n_tasks = tasks.len(),
        n_subintervals = timeline.len(),
    );
    let subs = timeline.subintervals();
    let (old_n, new_n) = (avail.column_count(), subs.len());
    let (lo, hi) = changed_region(avail, timeline, tasks.len(), dirty_tasks);
    let (old_end, new_end) = (old_n - hi, new_n - hi);

    // Match old and new region columns with a two-pointer walk over the
    // time-sorted column bounds; lexicographic order on (start, end)
    // keeps the walk linear through splits and insertions.
    let mut dirty: Vec<usize> = Vec::new();
    let mut clean: Vec<(usize, usize)> = Vec::new();
    let touches_dirty_task =
        |ids: &[TaskId]| dirty_tasks.iter().any(|t| ids.binary_search(t).is_ok());
    let (mut i, mut j) = (lo, lo);
    while i < old_end && j < new_end {
        let ob = avail.col_bounds[i];
        let sub = &subs[j];
        let nb = (sub.interval.start, sub.interval.end);
        if ob == nb {
            let ids = sub.overlapping.as_slice();
            let heavy = ids.len() > cores;
            if avail.col_ids(i) == ids && !(heavy && touches_dirty_task(ids)) {
                clean.push((i, j));
            } else {
                dirty.push(j);
            }
            i += 1;
            j += 1;
        } else if ob < nb {
            i += 1;
        } else {
            dirty.push(j);
            j += 1;
        }
    }
    dirty.extend(j..new_end);
    let stats = DerRepairStats {
        dirty_columns: dirty.len(),
        total_columns: new_n,
        fell_back: dirty.len() as f64 > fallback_fraction * new_n as f64,
    };

    // Save the clean region columns before the splice overwrites them.
    let mut saved = std::mem::take(&mut scratch.saved_cells);
    saved.clear();
    if !stats.fell_back {
        for &(i, _) in &clean {
            saved.extend_from_slice(avail.col(i));
        }
    }

    // Splice the region to its new shape.
    let old_cell_end = avail.col_offsets[old_end];
    let mut new_cell_end = avail.col_offsets[lo];
    avail.col_offsets.splice(
        lo + 1..old_end + 1,
        subs[lo..new_end].iter().map(|s| {
            new_cell_end += s.overlapping.len();
            new_cell_end
        }),
    );
    for off in &mut avail.col_offsets[new_end + 1..] {
        *off = *off - old_cell_end + new_cell_end;
    }
    move_tail(&mut avail.data, old_cell_end, new_cell_end);
    move_tail(&mut avail.ids, old_cell_end, new_cell_end);
    for (j, sub) in subs.iter().enumerate().take(new_end).skip(lo) {
        let cells = avail.col_offsets[j]..avail.col_offsets[j + 1];
        avail.ids[cells].copy_from_slice(&sub.overlapping);
    }
    avail.col_bounds.splice(
        lo..old_end,
        subs[lo..new_end]
            .iter()
            .map(|s| (s.interval.start, s.interval.end)),
    );
    avail.spans.clear();
    avail.spans.extend((0..tasks.len()).map(|t| {
        let span = timeline.span(t);
        (span.start, span.end)
    }));
    debug_assert!(
        (0..lo)
            .chain(new_end..new_n)
            .all(|j| avail.col_ids(j) == subs[j].overlapping.as_slice()),
        "a column outside the changed region {lo}..{new_end} changed its overlap ids"
    );

    // Fill the region.
    if stats.fell_back {
        fill_der(
            timeline,
            cores,
            ideal,
            avail,
            scratch,
            pool,
            parallel_threshold,
        );
    } else {
        let mut from = 0;
        for &(_, j) in &clean {
            let col = avail.col_mut(j);
            col.copy_from_slice(&saved[from..from + col.len()]);
            from += col.len();
        }
        repair_der_columns(
            timeline,
            cores,
            ideal,
            avail,
            dirty.iter().copied(),
            scratch,
        );
    }
    scratch.saved_cells = saved;
    event!(
        Level::Debug,
        "der allocation repaired",
        region = (new_end - lo) as u64,
        dirty = stats.dirty_columns as u64,
        total = stats.total_columns as u64,
    );
    stats
}

/// Build the DER allocation for a *patched* timeline from `old`, the
/// allocation before the event: a clone of `old` repaired by
/// [`repair_der_in_place`], which documents the clean/dirty rule, the
/// fallback, and the bit-identity with [`allocate`]. Callers that keep
/// the matrix across events should repair it in place instead.
#[allow(clippy::too_many_arguments)] // mirrors the allocate inputs plus the patch inputs
pub fn reallocate_der_patched(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
    old: &AvailMatrix,
    dirty_tasks: &[TaskId],
    fallback_fraction: f64,
    pool: Option<&Pool>,
    parallel_threshold: usize,
    scratch: &mut Scratch,
) -> (AvailMatrix, DerRepairStats) {
    let mut avail = old.clone();
    let stats = repair_der_in_place(
        tasks,
        timeline,
        cores,
        ideal,
        &mut avail,
        dirty_tasks,
        fallback_fraction,
        pool,
        parallel_threshold,
        scratch,
    );
    (avail, stats)
}

/// Ablation variant: shares proportional to the *total execution
/// requirement* `C_i` instead of the DER (cap-and-redistribute retained).
/// This is the naive "bigger task, bigger share" rule; the DER weights it
/// by what the ideal schedule actually wants *inside this subinterval*,
/// which matters when windows and static power differ across tasks.
pub fn allocate_work_proportional(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
) -> AvailMatrix {
    let mut avail = AvailMatrix::zeros(timeline, tasks.len());
    allocate_light(timeline, cores, &mut avail);
    let mut scratch = Scratch::new();
    let mut stats = WaterfillStats::default();
    let mut weights: Vec<f64> = Vec::new();
    for j in timeline.heavy_iter(cores) {
        let sub = timeline.get(j);
        // Same water-filling core as the DER strategy (including the
        // degenerate even-split fallback), weighted by C_i instead of
        // the DER.
        weights.clear();
        scratch.wf_tiny.clear();
        for (p, &i) in sub.overlapping.iter().enumerate() {
            let wv = tasks.get(i).wcec;
            weights.push(wv);
            if wv <= EPS {
                scratch.wf_tiny.push((p, wv));
            }
        }
        waterfill_into_flat(
            &sub.overlapping,
            &weights,
            sub.delta(),
            cores,
            &mut stats,
            &mut scratch,
            avail.col_mut(j),
        );
    }
    avail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal::ideal_schedule;
    use esched_types::PolynomialPower;

    /// Test-only twin of the production emission that rewrites an
    /// `entries` buffer in place — the contract the differential
    /// property tests pin against [`waterfill_reference`].
    fn waterfill_fast(
        entries: &mut [(TaskId, f64)],
        delta: f64,
        cores: usize,
        stats: &mut WaterfillStats,
        suffix: &mut Vec<f64>,
    ) {
        let n = entries.len();
        if n <= WATERFILL_FAST_CUTOFF || cores + 1 >= n {
            return waterfill_reference(entries, delta, cores, stats, suffix);
        }
        let ids: Vec<TaskId> = entries.iter().map(|e| e.0).collect();
        let w: Vec<f64> = entries.iter().map(|e| e.1).collect();
        let mut cells = vec![0.0; n];
        let mut scratch = Scratch::new();
        scratch.wf_tiny.extend(
            w.iter()
                .enumerate()
                .filter(|&(_, &wv)| wv <= EPS)
                .map(|(p, &wv)| (p, wv)),
        );
        std::mem::swap(&mut scratch.suffix, suffix);
        waterfill_into_flat(&ids, &w, delta, cores, stats, &mut scratch, &mut cells);
        std::mem::swap(&mut scratch.suffix, suffix);
        for (e, &c) in entries.iter_mut().zip(cells.iter()) {
            e.1 = c;
        }
    }

    fn vd_tasks() -> TaskSet {
        TaskSet::from_triples(&[
            (0.0, 10.0, 8.0),
            (2.0, 18.0, 14.0),
            (4.0, 16.0, 8.0),
            (6.0, 14.0, 4.0),
            (8.0, 20.0, 10.0),
            (12.0, 22.0, 6.0),
        ])
    }

    fn alloc_der(
        tasks: &TaskSet,
        tl: &Timeline,
        cores: usize,
        ideal: &IdealSolution,
    ) -> AvailMatrix {
        allocate(AllocRequest::new(tasks, tl, cores, ideal))
    }

    #[test]
    fn even_allocation_matches_paper_vd_numbers() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let avail = allocate_even(&ts, &tl, 4);
        // Heavy subintervals are index 4 ([8,10]) and 6 ([12,14]); each
        // overlapping task gets (4/5)·2 = 8/5.
        for &i in &[0usize, 1, 2, 3, 4] {
            assert!((avail.get(i, 4) - 1.6).abs() < 1e-12, "task {i}");
        }
        for &i in &[1usize, 2, 3, 4, 5] {
            assert!((avail.get(i, 6) - 1.6).abs() < 1e-12, "task {i}");
        }
        // Light subintervals give the full Δ = 2.
        assert_eq!(avail.get(0, 0), 2.0);
        assert_eq!(avail.get(1, 5), 2.0);
        // Totals reproduce the paper's final-frequency denominators:
        // A_1 = 8 + 8/5, A_2 = 12 + 16/5, A_6 = 8 + 8/5.
        assert!((avail.total(0) - (8.0 + 1.6)).abs() < 1e-9);
        assert!((avail.total(1) - (12.0 + 3.2)).abs() < 1e-9);
        assert!((avail.total(2) - (8.0 + 3.2)).abs() < 1e-9);
        assert!((avail.total(3) - (4.0 + 3.2)).abs() < 1e-9);
        assert!((avail.total(4) - (8.0 + 3.2)).abs() < 1e-9);
        assert!((avail.total(5) - (8.0 + 1.6)).abs() < 1e-9);
    }

    #[test]
    fn der_values_match_paper_vd_numbers() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let ideal = ideal_schedule(&ts, &PolynomialPower::cubic());
        // DERs during [8,10] (index 4): 8/5, 7/4, 4/3, 1, 5/3.
        let expect4 = [1.6, 1.75, 4.0 / 3.0, 1.0, 5.0 / 3.0];
        for (i, &e) in expect4.iter().enumerate() {
            assert!(
                (der(&ideal, i, &tl, 4) - e).abs() < 1e-12,
                "task {i}: {} vs {e}",
                der(&ideal, i, &tl, 4)
            );
        }
        // DERs during [12,14] (index 6) for τ2..τ6: 7/4, 4/3, 1, 5/3, 6/5.
        let expect6 = [1.75, 4.0 / 3.0, 1.0, 5.0 / 3.0, 1.2];
        for (k, &e) in expect6.iter().enumerate() {
            let i = k + 1;
            assert!(
                (der(&ideal, i, &tl, 6) - e).abs() < 1e-12,
                "task {i}: {} vs {e}",
                der(&ideal, i, &tl, 6)
            );
        }
    }

    #[test]
    fn algorithm2_matches_paper_vd_allocations() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let ideal = ideal_schedule(&ts, &PolynomialPower::cubic());
        let avail = alloc_der(&ts, &tl, 4, &ideal);
        // Paper, interval [8,10]: τ1..τ5 get
        // 1.7415, 1.9048, 1.4512, 1.0884, 1.8141 (4 decimals).
        let expect4 = [1.7415, 1.9048, 1.4512, 1.0884, 1.8141];
        for (i, &e) in expect4.iter().enumerate() {
            assert!(
                (avail.get(i, 4) - e).abs() < 5e-5,
                "task {i} in [8,10]: {} vs {e}",
                avail.get(i, 4)
            );
        }
        // Paper, interval [12,14]: τ2..τ6 get
        // 2, 1.5385, 1.1538, 1.9231, 1.3846 — τ2's share caps at Δ = 2 and
        // the surplus is redistributed.
        let expect6 = [2.0, 1.5385, 1.1538, 1.9231, 1.3846];
        for (k, &e) in expect6.iter().enumerate() {
            let i = k + 1;
            assert!(
                (avail.get(i, 6) - e).abs() < 5e-5,
                "task {i} in [12,14]: {} vs {e}",
                avail.get(i, 6)
            );
        }
    }

    #[test]
    fn allocations_never_exceed_capacity() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let ideal = ideal_schedule(&ts, &PolynomialPower::paper(3.0, 0.2));
        for avail in [allocate_even(&ts, &tl, 4), alloc_der(&ts, &tl, 4, &ideal)] {
            for sub in tl.subintervals() {
                let total: f64 = sub
                    .overlapping
                    .iter()
                    .map(|&i| avail.get(i, sub.index))
                    .sum();
                let cap = if sub.is_heavy(4) {
                    4.0 * sub.delta()
                } else {
                    sub.overlap_count() as f64 * sub.delta()
                };
                assert!(
                    total <= cap + 1e-9,
                    "subinterval {}: {total} > {cap}",
                    sub.index
                );
                for &i in &sub.overlapping {
                    assert!(avail.get(i, sub.index) <= sub.delta() + 1e-9);
                }
            }
        }
    }

    #[test]
    fn positive_der_implies_positive_allocation() {
        // Skewed DERs: caps can consume at most (m−1)·Δ of the pool, so
        // every positive-DER task keeps a positive share.
        let ts = TaskSet::from_triples(&[
            (0.0, 4.0, 8.0),  // very dense
            (0.0, 4.0, 7.0),  // very dense
            (0.0, 4.0, 0.5),  // light
            (0.0, 4.0, 0.25), // lighter
        ]);
        let tl = Timeline::build(&ts);
        let ideal = ideal_schedule(&ts, &PolynomialPower::cubic());
        let avail = alloc_der(&ts, &tl, 2, &ideal);
        for i in 0..4 {
            assert!(avail.get(i, 0) > 0.0, "task {i} starved");
        }
    }

    #[test]
    fn zero_der_task_gets_zero_in_that_subinterval() {
        // With high static power, an early task's ideal execution finishes
        // before a later heavy subinterval → its DER there is 0.
        let ts = TaskSet::from_triples(&[
            (0.0, 20.0, 1.0), // f_crit ≫ 1/20: ideal exec ends early
            (10.0, 20.0, 8.0),
            (10.0, 20.0, 8.0),
        ]);
        let p = PolynomialPower::paper(2.0, 1.0); // f_crit = 1
        let tl = Timeline::build(&ts);
        let ideal = ideal_schedule(&ts, &p);
        // τ0 ideal: runs [0, 1] at f = 1. Subinterval [10, 20] gets DER 0.
        let j = tl
            .subintervals()
            .iter()
            .find(|s| s.interval.start == 10.0)
            .unwrap()
            .index;
        assert_eq!(der(&ideal, 0, &tl, j), 0.0);
        let avail = alloc_der(&ts, &tl, 2, &ideal);
        assert_eq!(avail.get(0, j), 0.0);
        // But τ0 still has available time elsewhere (its light span).
        assert!(avail.total(0) > 0.0);
    }

    #[test]
    fn avail_matrix_accessors() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let mut m = AvailMatrix::zeros(&tl, ts.len());
        assert_eq!(m.task_count(), 6);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 7), 0.0); // outside τ0's span
        m.set(0, 2, 1.5);
        assert_eq!(m.get(0, 2), 1.5);
        assert_eq!(m.total(0), 1.5);
        let row: Vec<(usize, f64)> = m.row(0).collect();
        assert_eq!(row.len(), 5);
        assert_eq!(row[2], (2, 1.5));
    }

    #[test]
    fn no_redistribution_strands_capacity_when_caps_bind() {
        // Interval [12,14] of the V.D example: τ2's proportional share
        // exceeds Δ = 2 and is capped. With redistribution the surplus
        // flows to the others (totals sum to 8); without it the surplus is
        // stranded.
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let ideal = ideal_schedule(&ts, &PolynomialPower::cubic());
        let with = alloc_der(&ts, &tl, 4, &ideal);
        let without = allocate(
            AllocRequest::new(&ts, &tl, 4, &ideal).strategy(DerStrategy::NoRedistribution),
        );
        let sum_with: f64 = (1..=5).map(|i| with.get(i, 6)).sum();
        let sum_without: f64 = (1..=5).map(|i| without.get(i, 6)).sum();
        assert!((sum_with - 8.0).abs() < 1e-9, "with = {sum_with}");
        assert!(
            sum_without < sum_with - 1e-3,
            "no-redistribution did not strand capacity: {sum_without}"
        );
        // In the uncapped interval [8,10] the two rules agree.
        for i in 0..5 {
            assert!(
                (with.get(i, 4) - without.get(i, 4)).abs() < 1e-9,
                "task {i}"
            );
        }
    }

    #[test]
    fn work_proportional_differs_from_der_when_windows_differ() {
        // Two tasks with equal work but very different windows: DER favors
        // the tight one (higher ideal frequency), work-proportional splits
        // evenly.
        let ts = TaskSet::from_triples(&[(0.0, 4.0, 3.0), (0.0, 12.0, 3.0), (0.0, 4.0, 1.0)]);
        let tl = Timeline::build(&ts);
        let ideal = ideal_schedule(&ts, &PolynomialPower::cubic());
        let der_alloc = alloc_der(&ts, &tl, 1, &ideal);
        let work_alloc = allocate_work_proportional(&ts, &tl, 1);
        // Subinterval [0,4] is heavy on one core.
        let j = 0;
        assert!(
            der_alloc.get(0, j) > work_alloc.get(0, j) + 1e-9,
            "DER should favor the tight task: {} vs {}",
            der_alloc.get(0, j),
            work_alloc.get(0, j)
        );
        // Both respect capacity.
        let cap = tl.delta(j);
        for alloc in [&der_alloc, &work_alloc] {
            let total: f64 = (0..3).map(|i| alloc.get(i, j)).sum();
            assert!(total <= cap + 1e-9);
        }
    }

    /// Extract the capped-task id set from a waterfill result: tasks
    /// whose allocation landed on the `Δ_j` cap (up to rounding).
    fn capped_set(entries: &[(TaskId, f64)], delta: f64) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = entries
            .iter()
            .filter(|&&(_, a)| a >= delta * (1.0 - 1e-9))
            .map(|&(i, _)| i)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Property test: the sort-free water-filling equals the round-based
    /// reference on 1k random heavy subintervals — same capped index
    /// set, shares within `WORK_TOL` — across zero, tiny (≤ EPS), and
    /// duplicated weights, including all-underflow instances.
    #[test]
    fn waterfill_fast_matches_reference_on_1k_random_heavy_subintervals() {
        use esched_obs::ChaCha8;
        use esched_types::validate::WORK_TOL;
        let mut rng = ChaCha8::seed_from_u64(0x5eed);
        for case in 0..1000u32 {
            let n = rng.gen_range_usize(2, 200);
            let cores = rng.gen_range_usize(1, n); // heavy: n > m
            let delta = rng.gen_range_f64(0.05, 8.0);
            // Every 25th case underflows all DERs to force the
            // even-split fallback; otherwise mix regular, tiny, and
            // zero weights with occasional exact duplicates.
            let underflow = case % 25 == 0;
            let mut entries: Vec<(TaskId, f64)> = (0..n)
                .map(|i| {
                    let w = if underflow {
                        rng.gen_f64() * EPS / n as f64
                    } else if rng.gen_bool(0.08) {
                        0.0
                    } else if rng.gen_bool(0.08) {
                        rng.gen_f64() * EPS
                    } else {
                        rng.gen_range_f64(0.0, 5.0)
                    };
                    (i, w)
                })
                .collect();
            if !underflow && n > 3 {
                let w = entries[0].1;
                entries[2].1 = w; // exact tie
            }
            let mut fast = entries.clone();
            let mut stats = WaterfillStats::default();
            let mut suffix = Vec::new();
            waterfill_reference(&mut entries, delta, cores, &mut stats, &mut suffix);
            waterfill_fast(&mut fast, delta, cores, &mut stats, &mut suffix);
            assert_eq!(
                capped_set(&entries, delta),
                capped_set(&fast, delta),
                "case {case}: capped sets diverge (n={n}, m={cores})"
            );
            fast.sort_unstable_by_key(|e| e.0);
            entries.sort_unstable_by_key(|e| e.0);
            for (r, f) in entries.iter().zip(fast.iter()) {
                assert_eq!(r.0, f.0);
                assert!(
                    (r.1 - f.1).abs() <= WORK_TOL,
                    "case {case}, task {}: reference {} vs fast {} (n={n}, m={cores}, Δ={delta})",
                    r.0,
                    r.1,
                    f.1
                );
            }
        }
    }

    #[test]
    fn all_ders_underflow_takes_even_split_in_both_implementations() {
        // Every DER ≤ EPS with total ≤ EPS: proportional shares carry no
        // signal, so the whole pool is split evenly — nobody is starved.
        let n = 40;
        let cores = 3;
        let delta = 2.0;
        // Weight total ≈ 4.9e-9 ≤ EPS: the whole list underflows.
        let entries: Vec<(TaskId, f64)> = (0..n).map(|i| (i, 1e-10 * (i % 7) as f64)).collect();
        let expect = (cores as f64 * delta / n as f64).min(delta);
        for fast in [false, true] {
            let mut e = entries.clone();
            let mut stats = WaterfillStats::default();
            let mut suffix = Vec::new();
            if fast {
                waterfill_fast(&mut e, delta, cores, &mut stats, &mut suffix);
            } else {
                waterfill_reference(&mut e, delta, cores, &mut stats, &mut suffix);
            }
            assert_eq!(stats.even, n as u64, "fast={fast}");
            assert_eq!(stats.capped, 0, "fast={fast}");
            for &(i, a) in &e {
                assert!(
                    (a - expect).abs() < 1e-9,
                    "fast={fast}, task {i}: {a} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn allocate_matches_reference_end_to_end() {
        use esched_obs::ChaCha8;
        use esched_types::validate::WORK_TOL;
        let mut rng = ChaCha8::seed_from_u64(99);
        for case in 0..60 {
            let n = rng.gen_range_usize(20, 48);
            let cores = rng.gen_range_usize(1, 4);
            let triples: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    let release = rng.gen_range_f64(0.0, 10.0);
                    let len = rng.gen_range_f64(0.5, 12.0);
                    let wcec = rng.gen_range_f64(0.1, 8.0);
                    (release, release + len, wcec)
                })
                .collect();
            let ts = TaskSet::from_triples(&triples);
            let tl = Timeline::build(&ts);
            let ideal = ideal_schedule(&ts, &PolynomialPower::paper(3.0, 0.1));
            let fast = alloc_der(&ts, &tl, cores, &ideal);
            let reference = allocate(
                AllocRequest::new(&ts, &tl, cores, &ideal).strategy(DerStrategy::Reference),
            );
            for sub in tl.subintervals() {
                for &i in &sub.overlapping {
                    let (a, b) = (fast.get(i, sub.index), reference.get(i, sub.index));
                    assert!(
                        (a - b).abs() <= WORK_TOL,
                        "case {case}, task {i}, sub {}: fast {a} vs reference {b}",
                        sub.index
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_allocation_is_bit_identical_across_worker_counts() {
        // The fan-out's chunk boundaries depend only on the CSR shape and
        // each column is a pure function of its inputs, so any worker
        // count must produce the serial matrix bit-for-bit.
        use esched_obs::ChaCha8;
        let mut rng = ChaCha8::seed_from_u64(0xbeef);
        let n = 300;
        let triples: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                let release = rng.gen_range_f64(0.0, 60.0);
                let len = rng.gen_range_f64(0.5, 10.0);
                (release, release + len, rng.gen_range_f64(0.1, 5.0))
            })
            .collect();
        let ts = TaskSet::from_triples(&triples);
        let tl = Timeline::build(&ts);
        let ideal = ideal_schedule(&ts, &PolynomialPower::paper(3.0, 0.1));
        let serial = alloc_der(&ts, &tl, 2, &ideal);
        for threads in [1, 2, 4, 8] {
            let pool = Pool::with_threads(threads);
            let pooled = allocate(
                AllocRequest::new(&ts, &tl, 2, &ideal)
                    .with_pool(&pool)
                    .with_parallel_threshold(1),
            );
            assert_eq!(pooled, serial, "{threads} workers");
        }
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_forwarders_match_the_unified_entry_point() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let ideal = ideal_schedule(&ts, &PolynomialPower::cubic());
        let unified = alloc_der(&ts, &tl, 4, &ideal);
        assert_eq!(allocate_der(&ts, &tl, 4, &ideal), unified);
        assert_eq!(
            allocate_der_with(&ts, &tl, 4, &ideal, &mut Scratch::new()),
            unified
        );
        assert_eq!(
            allocate_der_reference(&ts, &tl, 4, &ideal),
            allocate(AllocRequest::new(&ts, &tl, 4, &ideal).strategy(DerStrategy::Reference))
        );
        assert_eq!(
            allocate_der_no_redistribution(&ts, &tl, 4, &ideal),
            allocate(
                AllocRequest::new(&ts, &tl, 4, &ideal).strategy(DerStrategy::NoRedistribution)
            )
        );
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn set_outside_span_panics() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let mut m = AvailMatrix::zeros(&tl, ts.len());
        m.set(5, 0, 1.0); // τ5 starts at subinterval 6
    }

    #[test]
    fn patched_reallocation_is_bit_identical_to_scratch() {
        use esched_obs::ChaCha8;
        let mut rng = ChaCha8::seed_from_u64(0x9a7c_4ed1);
        let power = PolynomialPower::paper(3.0, 0.1);
        let mut scratch = Scratch::new();
        let pool = Pool::with_threads(2);
        for case in 0..120 {
            let n = rng.gen_range_usize(8, 40);
            let cores = rng.gen_range_usize(1, 5);
            let mut triples: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    let release = (rng.gen_range_f64(0.0, 20.0) * 2.0).round() / 2.0;
                    let len = (rng.gen_range_f64(0.5, 12.0) * 2.0).round().max(1.0) / 2.0;
                    let wcec = rng.gen_range_f64(0.1, len.min(6.0));
                    (release, release + len, wcec)
                })
                .collect();
            let ts = TaskSet::from_triples(&triples);
            let mut tl = Timeline::build(&ts);
            let ideal = ideal_schedule(&ts, &power);
            let old =
                allocate(AllocRequest::new(&ts, &tl, cores, &ideal).with_scratch(&mut scratch));
            // Mutate the set the three ways the online engine does:
            // early completion (wcec shrink), arrival, window shift.
            let victim = rng.gen_range_usize(0, n);
            let dirty = match case % 3 {
                0 => {
                    triples[victim].2 *= rng.gen_range_f64(0.1, 0.9);
                    victim
                }
                1 => {
                    let r = (rng.gen_range_f64(0.0, 25.0) * 2.0).round() / 2.0;
                    let len = (rng.gen_range_f64(0.5, 10.0) * 2.0).round().max(1.0) / 2.0;
                    triples.push((r, r + len, rng.gen_range_f64(0.1, len)));
                    n
                }
                _ => {
                    let pts = tl.boundaries().to_vec();
                    let a = rng.gen_range_usize(0, pts.len() - 1);
                    let b = rng.gen_range_usize(a + 1, pts.len());
                    let span = pts[b] - pts[a];
                    triples[victim] = (pts[a], pts[b], triples[victim].2.min(span * 0.9));
                    victim
                }
            };
            let mutated = TaskSet::from_triples(&triples);
            match case % 3 {
                0 => {} // windows unchanged: same decomposition
                1 => {
                    tl.rebuild_inserted(&mutated, dirty);
                }
                _ => {
                    tl.rebuild_shifted(&mutated, dirty);
                }
            }
            let ideal2 = ideal_schedule(&mutated, &power);
            let fresh = allocate(
                AllocRequest::new(&mutated, &tl, cores, &ideal2).with_scratch(&mut scratch),
            );
            let (patched, stats) = reallocate_der_patched(
                &mutated,
                &tl,
                cores,
                &ideal2,
                &old,
                &[dirty],
                0.25,
                None,
                DEFAULT_PARALLEL_THRESHOLD,
                &mut scratch,
            );
            assert_eq!(patched, fresh, "case {case} (n = {n}, m = {cores})");
            assert_eq!(stats.total_columns, tl.len());
            // Forcing the global-recompute fallback must not change the
            // result either.
            let (forced, fstats) = reallocate_der_patched(
                &mutated,
                &tl,
                cores,
                &ideal2,
                &old,
                &[dirty],
                0.0,
                None,
                DEFAULT_PARALLEL_THRESHOLD,
                &mut scratch,
            );
            assert!(fstats.fell_back || fstats.dirty_columns == 0, "case {case}");
            assert_eq!(forced, fresh, "case {case} forced fallback");
            // ... nor filling the fallback's matrix across a pool.
            let (pooled, _) = reallocate_der_patched(
                &mutated,
                &tl,
                cores,
                &ideal2,
                &old,
                &[dirty],
                0.0,
                Some(&pool),
                1,
                &mut scratch,
            );
            assert_eq!(pooled, fresh, "case {case} pooled fallback");
        }
    }

    #[test]
    fn repair_der_columns_reproduces_full_allocation() {
        // Repairing *every* column of a zeroed matrix must reproduce the
        // full allocator output exactly — the bit-identity contract the
        // online engine relies on.
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let ideal = ideal_schedule(&ts, &PolynomialPower::cubic());
        let mut scratch = Scratch::new();
        let full = allocate(AllocRequest::new(&ts, &tl, 4, &ideal).with_scratch(&mut scratch));
        let mut repaired = AvailMatrix::zeros(&tl, ts.len());
        repair_der_columns(&tl, 4, &ideal, &mut repaired, 0..tl.len(), &mut scratch);
        assert_eq!(repaired, full);
    }

    /// The rule [`repair_der_in_place`] must reproduce, walked over every
    /// column instead of the changed region: a two-pointer match of the
    /// old matrix's columns against the new timeline's.
    fn full_width_stats(
        old: &AvailMatrix,
        tl: &Timeline,
        cores: usize,
        dirty_tasks: &[TaskId],
        fallback_fraction: f64,
    ) -> DerRepairStats {
        let subs = tl.subintervals();
        let touches = |ids: &[TaskId]| dirty_tasks.iter().any(|t| ids.binary_search(t).is_ok());
        let (mut i, mut j, mut dirty) = (0, 0, 0);
        while i < old.column_count() && j < subs.len() {
            let ob = old.col_bounds[i];
            let nb = (subs[j].interval.start, subs[j].interval.end);
            if ob == nb {
                let ids = subs[j].overlapping.as_slice();
                if old.col_ids(i) != ids || (ids.len() > cores && touches(ids)) {
                    dirty += 1;
                }
                i += 1;
                j += 1;
            } else if ob < nb {
                i += 1;
            } else {
                dirty += 1;
                j += 1;
            }
        }
        dirty += subs.len() - j;
        DerRepairStats {
            dirty_columns: dirty,
            total_columns: subs.len(),
            fell_back: dirty as f64 > fallback_fraction * subs.len() as f64,
        }
    }

    fn assert_bitwise_eq(got: &AvailMatrix, want: &AvailMatrix, ctx: &str) {
        assert_eq!(got, want, "{ctx}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.data), bits(&want.data), "{ctx}: cell bits");
        assert_eq!(
            bits(&got.totals()),
            bits(&want.totals()),
            "{ctx}: total bits"
        );
        let bounds = |m: &AvailMatrix| {
            m.col_bounds
                .iter()
                .map(|(a, b)| (a.to_bits(), b.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bounds(got), bounds(want), "{ctx}: column bound bits");
    }

    /// Chains of online events repaired in place must track [`allocate`]
    /// from scratch bit for bit, with the repair statistics of the
    /// full-width walk, whatever part of the slab the event touches.
    #[test]
    fn in_place_repair_tracks_scratch_over_event_chains() {
        use esched_obs::ChaCha8;
        let mut rng = ChaCha8::seed_from_u64(0x51ce_2b07);
        let power = PolynomialPower::paper(3.0, 0.1);
        let mut scratch = Scratch::new();
        let pool = Pool::with_threads(2);
        // (fallback fraction, pool, parallel threshold): the default, a
        // forced fallback filled across two workers, and never falling back.
        let configs: [(f64, Option<&Pool>, usize); 3] = [
            (0.25, None, DEFAULT_PARALLEL_THRESHOLD),
            (0.0, Some(&pool), 1),
            (1.0, None, DEFAULT_PARALLEL_THRESHOLD),
        ];
        // Regions at the front, at the back, covering everything, empty;
        // and timeline patches that fell back to a full rebuild.
        let (mut front, mut back, mut all, mut empty, mut rebuilt) = (0, 0, 0, 0, 0);
        let grid = |x: f64| (x * 4.0).round() / 4.0;
        for chain in 0..40 {
            let n = rng.gen_range_usize(6, 28);
            let cores = rng.gen_range_usize(1, 5);
            let mut triples: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    let r = grid(rng.gen_range_f64(0.0, 20.0));
                    let len = grid(rng.gen_range_f64(0.5, 10.0)).max(0.25);
                    (r, r + len, rng.gen_range_f64(0.05, len))
                })
                .collect();
            let mut ts = TaskSet::from_triples(&triples);
            let mut tl = Timeline::build(&ts);
            let mut ideal = ideal_schedule(&ts, &power);
            let mut mats: Vec<AvailMatrix> = configs
                .iter()
                .map(|_| allocate(AllocRequest::new(&ts, &tl, cores, &ideal)))
                .collect();
            for step in 0..30 {
                let ctx = format!("chain {chain} step {step} (m = {cores})");
                let pts = tl.boundaries().to_vec();
                let (first, last) = (pts[0], pts[pts.len() - 1]);
                let v = rng.gen_range_usize(0, triples.len());
                // `Some(dirty)` for an event on an existing task, `None`
                // for an arrival; `shift` says the window moved.
                let (dirty, shift): (Option<TaskId>, bool) = match rng.gen_range_usize(0, 10) {
                    // ±0.25 slide.
                    0 | 1 => {
                        let d = if rng.gen_bool(0.5) { 0.25 } else { -0.25 };
                        triples[v].0 += d;
                        triples[v].1 += d;
                        (Some(v), true)
                    }
                    // Slide the task owning the first or last event point.
                    2 => {
                        let owner = if rng.gen_bool(0.5) {
                            triples.iter().position(|t| t.0 == first)
                        } else {
                            triples.iter().position(|t| t.1 == last)
                        }
                        .expect("some task owns each end of the horizon");
                        let d = grid(rng.gen_range_f64(0.25, 3.0));
                        let d = if rng.gen_bool(0.5) { d } else { -d };
                        triples[owner].0 += d;
                        triples[owner].1 += d;
                        (Some(owner), true)
                    }
                    // Land an endpoint approx- but not bitwise on a
                    // boundary: the timeline rebuilds in full.
                    3 => {
                        let a = rng.gen_range_usize(0, pts.len() - 1);
                        let (r, d) = (pts[a] + 1e-9, pts[a] + grid(rng.gen_range_f64(0.5, 4.0)));
                        triples[v] = (r, d, triples[v].2.min(0.9 * (d - r)));
                        (Some(v), true)
                    }
                    // Early completion.
                    4 | 5 => {
                        triples[v].2 *= rng.gen_range_f64(0.1, 0.95);
                        (Some(v), false)
                    }
                    // Arrival snapped onto two boundaries.
                    6 => {
                        let a = rng.gen_range_usize(0, pts.len() - 1);
                        let b = rng.gen_range_usize(a + 1, pts.len());
                        let wcec = rng.gen_range_f64(0.05, pts[b] - pts[a]);
                        triples.push((pts[a], pts[b], wcec));
                        (None, true)
                    }
                    // Arrival before or after the horizon, or over all of it.
                    7 => {
                        let (r, d) = match rng.gen_range_usize(0, 3) {
                            0 => (first - 3.0, first - grid(rng.gen_range_f64(0.0, 2.0))),
                            1 => (last + grid(rng.gen_range_f64(0.0, 2.0)), last + 3.0),
                            _ => (first - 0.5, last + 0.5),
                        };
                        triples.push((r, d, rng.gen_range_f64(0.05, d - r)));
                        (None, true)
                    }
                    // No event: nothing changes, nothing is touched.
                    8 => (None, false),
                    // A jump to a disjoint window.
                    _ => {
                        let len = triples[v].1 - triples[v].0;
                        let r = grid(rng.gen_range_f64(first - 5.0, last + 5.0));
                        triples[v].0 = r;
                        triples[v].1 = r + len;
                        (Some(v), true)
                    }
                };
                let arrived = triples.len() > ts.len();
                ts = TaskSet::from_triples(&triples);
                if arrived {
                    rebuilt += usize::from(!tl.rebuild_inserted(&ts, ts.len() - 1));
                } else if let (Some(t), true) = (dirty, shift) {
                    rebuilt += usize::from(!tl.rebuild_shifted(&ts, t));
                }
                ideal = ideal_schedule(&ts, &power);
                let dirty: Vec<TaskId> = dirty.into_iter().collect();
                let fresh =
                    allocate(AllocRequest::new(&ts, &tl, cores, &ideal).with_scratch(&mut scratch));

                let (old_n, new_n) = (mats[0].column_count(), tl.len());
                let (lo, hi) = changed_region(&mats[0], &tl, ts.len(), &dirty);
                if lo == old_n - hi && lo == new_n - hi {
                    empty += 1;
                } else {
                    front += usize::from(lo == 0 && hi > 0);
                    back += usize::from(lo > 0 && hi == 0);
                    all += usize::from(lo == 0 && hi == 0);
                }
                if !shift && !arrived {
                    // Same timeline: the region is exactly the task's span.
                    let want = dirty.first().map_or((old_n, 0), |&t| {
                        let span = tl.span(t);
                        (span.start, new_n - span.end)
                    });
                    assert_eq!((lo, hi), want, "{ctx}: region of an unshaped event");
                }
                for (m, &(fraction, pool, threshold)) in mats.iter_mut().zip(&configs) {
                    let want = full_width_stats(m, &tl, cores, &dirty, fraction);
                    let stats = repair_der_in_place(
                        &ts,
                        &tl,
                        cores,
                        &ideal,
                        m,
                        &dirty,
                        fraction,
                        pool,
                        threshold,
                        &mut scratch,
                    );
                    let ctx = format!("{ctx}, fallback fraction {fraction}");
                    assert_eq!(stats, want, "{ctx}: repair statistics");
                    assert_bitwise_eq(m, &fresh, &ctx);
                }
            }
        }
        for (what, count) in [
            ("front", front),
            ("back", back),
            ("whole-slab", all),
            ("empty", empty),
            ("timeline-rebuild", rebuilt),
        ] {
            assert!(count > 0, "no {what} case in the chains");
        }
    }
}
