//! The exact optimum of the energy program: Fujishige's decomposition
//! algorithm, one maximum flow per split.
//!
//! The objective depends on `x` only through the task totals `X_i`, and
//! is `Σ_i C_i·g(X_i/C_i)` with `g(u) = γu^{1−α} + p₀u`, convex with its
//! minimum at `u* = 1/f_crit`. The totals that some feasible `x` achieves
//! form a polymatroid with rank
//!
//! ```text
//! r(A) = Σ_j Δ_j · min(m, |A ∩ O_j|)      (O_j: tasks whose window covers j)
//! ```
//!
//! so the optimum is the lexicographically optimal base for weights `C`
//! (Fujishige, Math. Oper. Res. 1980) truncated at `X_i ≤ u*·C_i`: the
//! multiprocessor YDS of the paper's refs \[2\] and \[4\]. The tasks fall into
//! *levels*; a level runs every task at one frequency `1/λ`
//! (`X_i = λ·C_i`), and the levels below `u*` are tight on the rank
//! contracted by the levels below them.
//!
//! **Divide and conquer.** A subproblem is a task set `S` with residual
//! cores `m_j` (the cores the finished lower levels leave in subinterval
//! `j`). A subinterval is *light* when `m_j ≥ |S ∩ O_j|` (modular: each
//! task can have all of it), *heavy* when `0 < m_j < |S ∩ O_j|`. A task
//! that touches no heavy subinterval is a level of its own at
//! `λ = min(light time / C_i, u*)`. For the rest:
//!
//! - `λ = r(S)/C(S)` and `λ' = min(λ, u*)`;
//! - one maximum flow on `source —λ'C_i→ task —Δ_j→ heavy j —m_jΔ_j→ sink`,
//!   plus one `task → sink` edge per task holding its light time;
//! - `T` = the tasks reachable from the source in the residual network:
//!   the smallest minimizer of `r(A) − λ'C(A)`;
//! - if `T` is a proper subset and `r(T)/C(T) < λ'(1 − SPLIT_GUARD)`: when
//!   `λ' = λ`, recurse on `T` (restriction, same `m`) and on `S∖T`
//!   (contraction, `m_j ← max(0, m_j − |T ∩ O_j|)`); when `λ' = u*`, fix
//!   `S∖T` at `u*·C_i` and recurse on `T` only;
//! - otherwise `S` is one level at `λ'`.
//!
//! Subproblems run depth-first, restriction first, so the finished levels
//! are always exactly the tasks a subproblem is contracted by, and a
//! per-subinterval count of them gives every residual. Every subproblem is
//! a range of one task permutation (a split is a stable partition of its
//! range), and every network is rebuilt in one reused [`Dinic`] arena, so
//! the solve allocates nothing per subproblem. Finally one more maximum
//! flow, with source capacities `X_i`, recovers a feasible `x`. Results
//! are deterministic: the same program gives the same bits.

use crate::energy_program::EnergyProgram;
use crate::flow::{Dinic, EdgeHandle};
use crate::solver::{IterSample, SolveOptions, SolveResult, SolverTelemetry};
use esched_obs::{event, span};
use esched_subinterval::Timeline;
use esched_types::TaskSet;
use std::time::Instant;

/// Eps of a split's network, relative to its mean source capacity
/// `λ'C(S)/|S|`. A saturated edge keeps rounding crumbs of about 1e-16 of
/// the flows through it; the reachability search must not cross them,
/// and this leaves three orders of margin for capacities up to a
/// thousand times the mean.
const SPLIT_EPS: f64 = 1e-13;
/// How much denser than `λ'` the reachable set must be for a split. A
/// reachable set that only rounding made reachable is tight at `λ'` to
/// ~1e-15; a real split is not.
const SPLIT_GUARD: f64 = 1e-12;
/// Eps of the recovery network, relative to the mean `X_i`. Recovery
/// reads no reachability, so the eps only has to stay above the rounding
/// of the flow sums.
const RECOVERY_EPS: f64 = 1e-15;

/// Network nodes every flow here shares.
const SOURCE: usize = 0;
const SINK: usize = 1;
const FIRST_TASK: usize = 2;

/// One level of the optimum: tasks that share one `λ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    /// The level's tasks, ascending.
    pub tasks: Vec<usize>,
    /// `X_i = λ·C_i` for every task of the level: they all run at
    /// frequency `1/λ`.
    pub lambda: f64,
    /// The level is cut at `λ = u* = 1/f_crit`: its tasks run at the
    /// critical frequency and leave time unused, so unlike the other
    /// levels it is not tight.
    pub truncated: bool,
}

/// The instance as the decomposition reads it.
struct Instance {
    works: Vec<f64>,
    spans: Vec<(usize, usize)>,
    deltas: Vec<f64>,
    cores: usize,
}

impl Instance {
    fn of_program(ep: &EnergyProgram) -> Self {
        Self {
            works: (0..ep.task_count()).map(|i| ep.work_of_task(i)).collect(),
            spans: (0..ep.task_count()).map(|i| ep.span_of_task(i)).collect(),
            deltas: (0..ep.subinterval_count())
                .map(|j| ep.delta_of_sub(j))
                .collect(),
            cores: ep.cores,
        }
    }

    fn of_timeline(tasks: &TaskSet, timeline: &Timeline, cores: usize) -> Self {
        Self {
            works: tasks.iter().map(|(_, t)| t.wcec).collect(),
            spans: (0..tasks.len())
                .map(|i| {
                    let r = timeline.span(i);
                    (r.start, r.end)
                })
                .collect(),
            deltas: (0..timeline.len()).map(|j| timeline.delta(j)).collect(),
            cores,
        }
    }

    fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.spans[i].0..self.spans[i].1
    }
}

/// How one subproblem `order[lo..hi]` divides.
struct Node {
    /// `order[lo..heavy]` touch no heavy subinterval: each is a level of
    /// its own at `lump_i / C_i` (capped at `u*`).
    heavy: usize,
    /// `r(S_h)/C(S_h)` of the rest, untruncated.
    lambda: f64,
    /// The end of `T` in `order` when the rest splits at `heavy..cut`.
    cut: Option<usize>,
}

/// A finished level: a range of `order`.
struct LevelSpan {
    start: usize,
    end: usize,
    lambda: f64,
    truncated: bool,
}

enum Job {
    Split(usize, usize),
    /// Tasks fixed at `u*·C_i`, emitted once the restriction before them
    /// has finished.
    Fixed(usize, usize),
}

struct Decomposer {
    inst: Instance,
    /// `u* = 1/f_crit` (`∞` without static power).
    u_star: f64,
    /// Tasks in subproblem order: every subproblem is a range of it.
    order: Vec<usize>,
    /// Per subinterval: tasks of finished levels that cover it.
    used: Vec<usize>,
    /// Per subinterval: tasks of the current set (and of its `T`) that
    /// cover it, and its node in the current network. Zeroed after use.
    count: Vec<usize>,
    count_t: Vec<usize>,
    node: Vec<usize>,
    /// Subintervals the current set touches, in order of first touch.
    touched: Vec<usize>,
    /// Per task: time in light subintervals (valid for the current set),
    /// and the mark a stable partition moves to the front.
    lump: Vec<f64>,
    mark: Vec<bool>,
    /// Stable-partition buffer.
    buf: Vec<usize>,
    net: Dinic,
    flows: usize,
}

impl Decomposer {
    fn new(inst: Instance, u_star: f64) -> Self {
        let (n, nsub) = (inst.works.len(), inst.deltas.len());
        Self {
            inst,
            u_star,
            order: (0..n).collect(),
            used: vec![0; nsub],
            count: vec![0; nsub],
            count_t: vec![0; nsub],
            node: vec![0; nsub],
            touched: Vec::new(),
            lump: vec![0.0; n],
            mark: vec![false; n],
            buf: Vec::new(),
            net: Dinic::new(0, 0.0),
            flows: 0,
        }
    }

    /// Cores left in subinterval `j` by the finished levels.
    fn residual(&self, j: usize) -> usize {
        self.inst.cores.saturating_sub(self.used[j])
    }

    fn is_heavy(&self, j: usize) -> bool {
        let res = self.residual(j);
        res > 0 && res < self.count[j]
    }

    /// Stable-partition `order[lo..hi]` so that the marked tasks come
    /// first; returns the boundary.
    fn partition(&mut self, lo: usize, hi: usize) -> usize {
        self.buf.clear();
        let mut w = lo;
        for p in lo..hi {
            let i = self.order[p];
            if self.mark[i] {
                self.order[w] = i;
                w += 1;
            } else {
                self.buf.push(i);
            }
        }
        self.order[w..hi].copy_from_slice(&self.buf);
        w
    }

    /// Divide the subproblem `order[lo..hi]` (see the module docs): move
    /// the tasks that touch no heavy subinterval to the front, and split
    /// the rest by one maximum flow.
    fn split(&mut self, lo: usize, hi: usize) -> Node {
        for p in lo..hi {
            for j in self.inst.span(self.order[p]) {
                if self.count[j] == 0 {
                    self.touched.push(j);
                }
                self.count[j] += 1;
            }
        }
        for p in lo..hi {
            let i = self.order[p];
            let (mut lump, mut heavy) = (0.0, false);
            for j in self.inst.span(i) {
                if self.residual(j) >= self.count[j] {
                    lump += self.inst.deltas[j];
                } else {
                    heavy |= self.is_heavy(j);
                }
            }
            self.lump[i] = lump;
            self.mark[i] = !heavy;
        }
        let heavy = self.partition(lo, hi);
        let node = if heavy == hi {
            Node {
                heavy,
                lambda: f64::INFINITY,
                cut: None,
            }
        } else {
            self.split_heavy(heavy, hi)
        };
        for &j in &self.touched {
            self.count[j] = 0;
        }
        self.touched.clear();
        node
    }

    /// [`Decomposer::split`] of the tasks `order[lo..hi]`, which all touch
    /// a heavy subinterval.
    fn split_heavy(&mut self, lo: usize, hi: usize) -> Node {
        let inst = &self.inst;
        let mut work = 0.0;
        let mut rank = 0.0;
        for &i in &self.order[lo..hi] {
            work += inst.works[i];
            rank += self.lump[i];
        }
        let mut heavy_subs = 0;
        for &j in &self.touched {
            if self.is_heavy(j) {
                rank += inst.deltas[j] * self.residual(j) as f64;
                self.node[j] = FIRST_TASK + (hi - lo) + heavy_subs;
                heavy_subs += 1;
            }
        }
        let lambda = rank / work;
        let lam = lambda.min(self.u_star);

        let eps = SPLIT_EPS * lam * work / (hi - lo) as f64;
        self.net.reset(FIRST_TASK + (hi - lo) + heavy_subs, eps);
        for (k, &i) in self.order[lo..hi].iter().enumerate() {
            let v = FIRST_TASK + k;
            self.net.add_edge(SOURCE, v, lam * inst.works[i]);
            if self.lump[i] > 0.0 {
                self.net.add_edge(v, SINK, self.lump[i]);
            }
            for j in inst.span(i) {
                if self.is_heavy(j) {
                    self.net.add_edge(v, self.node[j], inst.deltas[j]);
                }
            }
        }
        for &j in &self.touched {
            if self.is_heavy(j) {
                let cap = inst.deltas[j] * self.residual(j) as f64;
                self.net.add_edge(self.node[j], SINK, cap);
            }
        }
        self.net.max_flow(SOURCE, SINK);
        self.flows += 1;

        let mut reached = 0;
        for (k, &i) in self.order[lo..hi].iter().enumerate() {
            self.mark[i] = self.net.on_source_side(FIRST_TASK + k);
            reached += usize::from(self.mark[i]);
        }
        let mut cut = None;
        if reached > 0 && reached < hi - lo {
            let cut_at = self.partition(lo, hi);
            if self.is_denser(lo, cut_at, lam) {
                cut = Some(cut_at);
            }
        }
        Node {
            heavy: lo,
            lambda,
            cut,
        }
    }

    /// Whether `T = order[lo..hi]` has `r(T)/C(T) < λ'(1 − SPLIT_GUARD)`
    /// under the current residuals.
    fn is_denser(&mut self, lo: usize, hi: usize, lam: f64) -> bool {
        let mut work = 0.0;
        for p in lo..hi {
            let i = self.order[p];
            work += self.inst.works[i];
            for j in self.inst.span(i) {
                self.count_t[j] += 1;
            }
        }
        let mut rank = 0.0;
        for &j in &self.touched {
            rank += self.inst.deltas[j] * self.residual(j).min(self.count_t[j]) as f64;
            self.count_t[j] = 0;
        }
        rank < lam * (1.0 - SPLIT_GUARD) * work
    }

    /// Record `order[lo..hi]` as a level and count its tasks as used.
    fn emit(&mut self, levels: &mut Vec<LevelSpan>, lo: usize, hi: usize, lambda: f64) {
        let truncated = lambda >= self.u_star;
        levels.push(LevelSpan {
            start: lo,
            end: hi,
            lambda: lambda.min(self.u_star),
            truncated,
        });
        for p in lo..hi {
            for j in self.inst.span(self.order[p]) {
                self.used[j] += 1;
            }
        }
    }

    /// The whole decomposition: levels as ranges of `order`, ascending.
    fn decompose(&mut self) -> Vec<LevelSpan> {
        let mut levels = Vec::new();
        let mut jobs = vec![Job::Split(0, self.order.len())];
        while let Some(job) = jobs.pop() {
            let (lo, hi) = match job {
                Job::Fixed(lo, hi) => {
                    self.emit(&mut levels, lo, hi, self.u_star);
                    continue;
                }
                Job::Split(lo, hi) => (lo, hi),
            };
            let node = self.split(lo, hi);
            for p in lo..node.heavy {
                let i = self.order[p];
                let lambda = self.lump[i] / self.inst.works[i];
                self.emit(&mut levels, p, p + 1, lambda);
            }
            if node.heavy == hi {
                continue;
            }
            match node.cut {
                None => self.emit(&mut levels, node.heavy, hi, node.lambda),
                Some(cut) => {
                    jobs.push(if node.lambda < self.u_star {
                        Job::Split(cut, hi)
                    } else {
                        Job::Fixed(cut, hi)
                    });
                    jobs.push(Job::Split(node.heavy, cut));
                }
            }
        }
        levels
    }

    /// One maximum flow with source capacities `totals`, on the full
    /// instance: a feasible `x` (flat, in `ep`'s layout) with those totals.
    /// Subintervals that no more than `m` tasks cover are lumped into one
    /// `task → sink` edge per task, and its flow fills them in order.
    fn recover(&mut self, ep: &EnergyProgram, totals: &[f64]) -> Vec<f64> {
        let inst = &self.inst;
        let n = inst.works.len();
        let light = |j: usize| ep.vars_of_sub(j).len() <= inst.cores;
        let mut nodes = FIRST_TASK + n;
        for j in 0..inst.deltas.len() {
            if !light(j) {
                self.node[j] = nodes;
                nodes += 1;
            }
        }
        let mean = totals.iter().sum::<f64>() / n.max(1) as f64;
        self.net.reset(nodes, RECOVERY_EPS * mean);
        let mut handles: Vec<EdgeHandle> = Vec::with_capacity(ep.dim() + n);
        for (i, &total) in totals.iter().enumerate() {
            let v = FIRST_TASK + i;
            self.net.add_edge(SOURCE, v, total);
            let lump: f64 = inst
                .span(i)
                .filter(|&j| light(j))
                .map(|j| inst.deltas[j])
                .sum();
            handles.push(self.net.add_edge(v, SINK, lump));
            for j in inst.span(i).filter(|&j| !light(j)) {
                handles.push(self.net.add_edge(v, self.node[j], inst.deltas[j]));
            }
        }
        for j in (0..inst.deltas.len()).filter(|&j| !light(j)) {
            let cap = inst.deltas[j] * inst.cores as f64;
            self.net.add_edge(self.node[j], SINK, cap);
        }
        self.net.max_flow(SOURCE, SINK);
        self.flows += 1;

        let mut x = vec![0.0; ep.dim()];
        let mut h = handles.iter();
        for i in 0..n {
            let (a, _) = inst.spans[i];
            let o = ep.offset_of_task(i);
            let mut lump = self.net.flow_of(*h.next().expect("one lump edge per task"));
            for j in inst.span(i) {
                x[o + j - a] = if light(j) {
                    let take = lump.min(inst.deltas[j]);
                    lump -= take;
                    take
                } else {
                    self.net
                        .flow_of(*h.next().expect("one edge per heavy pair"))
                };
            }
        }
        trim(ep, &mut x);
        x
    }
}

/// Make a recovered `x` feasible to the last bit: clamp it to the boxes,
/// and take a block's rounding excess over `m·Δ_j` from its largest entry.
/// A projection would shift every entry of the block by the excess, which
/// is a large relative change for a tiny task's total; the largest entry
/// holds at least the block's mean share and barely moves.
fn trim(ep: &EnergyProgram, x: &mut [f64]) {
    for j in 0..ep.subinterval_count() {
        let (vars, delta) = (ep.vars_of_sub(j), ep.delta_of_sub(j));
        let Some(&largest) = vars.iter().max_by(|&&a, &&b| x[a].total_cmp(&x[b])) else {
            continue;
        };
        for &k in vars {
            x[k] = x[k].clamp(0.0, delta);
        }
        // Summed in `vars` order, as `EnergyProgram::is_feasible` sums.
        let sum = |x: &[f64]| vars.iter().fold(0.0, |s, &k| s + x[k]);
        // Each pass moves the entry down by at least one ulp.
        while sum(x) > ep.capacity(j) && x[largest] > 0.0 {
            let excess = sum(x) - ep.capacity(j);
            x[largest] = (x[largest] - excess).min(x[largest].next_down()).max(0.0);
        }
    }
}

/// `u* = 1/f_crit = (γ(α−1)/p₀)^{1/α}`, the `X_i/C_i` that minimizes a
/// task's energy on its own; `∞` without static power.
fn u_star(ep: &EnergyProgram) -> f64 {
    let (gamma, alpha, p0) = ep.power_parameters();
    if p0 > 0.0 {
        (gamma * (alpha - 1.0) / p0).powf(1.0 / alpha)
    } else {
        f64::INFINITY
    }
}

/// Solve `ep` exactly: the decomposition, then one maximum flow to
/// recover `x`. Serial and deterministic; ignores every start in `opts`.
/// [`SolveResult::iters`] counts the maximum flows, `converged` says
/// whether the duality gap at `x` meets `opts.gap_tol`, and
/// [`SolveResult::levels`] holds the levels in the decomposition's
/// depth-first order. The iteration trace, when asked for, is one sample
/// at the solution.
pub fn solve_exact(ep: &EnergyProgram, opts: &SolveOptions) -> SolveResult {
    let _span = span!(
        esched_obs::Level::Debug,
        "solve_exact",
        tasks = ep.task_count(),
        dim = ep.dim()
    );
    let t_start = Instant::now();
    let mut d = Decomposer::new(Instance::of_program(ep), u_star(ep));
    let spans = d.decompose();
    let mut totals = vec![0.0; ep.task_count()];
    let mut levels = Vec::with_capacity(spans.len());
    for s in &spans {
        let tasks = d.order[s.start..s.end].to_vec();
        for &i in &tasks {
            totals[i] = s.lambda * d.inst.works[i];
        }
        levels.push(Level {
            tasks,
            lambda: s.lambda,
            truncated: s.truncated,
        });
    }
    let x = d.recover(ep, &totals);
    let objective = ep.objective(&x);
    let gap = ep.duality_gap(&x);
    let converged = gap <= opts.gap_tol * (1.0 + objective.abs());
    let telemetry = SolverTelemetry {
        iters: d.flows,
        stalls: 0,
        gap_evals: 1,
        backtracks: 0,
        wall_s: t_start.elapsed().as_secs_f64(),
        final_gap: gap,
        converged,
    };
    telemetry.publish("exact");
    event!(
        esched_obs::Level::Debug,
        "exact done",
        flows = d.flows,
        levels = levels.len(),
        gap = gap,
    );
    SolveResult {
        x,
        objective,
        gap,
        iters: d.flows,
        converged,
        telemetry,
        iter_trace: opts.trace_iters.then(|| {
            vec![IterSample {
                iter: d.flows,
                objective,
                gap,
                step: 0.0,
            }]
        }),
        dual: None,
        levels: Some(levels),
    }
}

/// The minimum uniform frequency at which `tasks` are schedulable on
/// `cores` cores: `1/λ₁`, with `λ₁` the first level of the decomposition
/// without the `u*` cap. Only the densest branch is followed, so this
/// costs at most one maximum flow per level of depth.
pub fn min_uniform_frequency(tasks: &TaskSet, timeline: &Timeline, cores: usize) -> f64 {
    let mut d = Decomposer::new(Instance::of_timeline(tasks, timeline, cores), f64::INFINITY);
    let (mut lo, mut hi) = (0, tasks.len());
    let mut lambda = f64::INFINITY;
    loop {
        let node = d.split(lo, hi);
        for &i in &d.order[lo..node.heavy] {
            lambda = lambda.min(d.lump[i] / d.inst.works[i]);
        }
        match node.cut {
            _ if node.heavy == hi => break,
            None => {
                lambda = lambda.min(node.lambda);
                break;
            }
            Some(cut) => (lo, hi) = (node.heavy, cut),
        }
    }
    1.0 / lambda
}
