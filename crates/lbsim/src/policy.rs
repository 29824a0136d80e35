//! The PolicySmith template host for load balancing.
//!
//! A synthesized candidate arrives as a verified [`CompiledPolicy`] in
//! [`Mode::Lb`]; the host scores the fleet and sends the request to the
//! **lowest-scoring** server (argmin, ties to the lower index), the mirror
//! image of the cache host's highest-priority-stays rule. Three scan
//! engines implement that rule at different points on the cost curve:
//!
//! * **Batched** (the default, [`ExprDispatcher::new`]) — fills one
//!   structure-of-arrays [`BatchCtx`] column per feature slot and makes a
//!   single [`CompiledPolicy::run_batch_argmin`] call per pick: no per-row
//!   fill plan, no per-server VM call, a column-major inner loop the
//!   compiler can vectorize.
//! * **Power-of-d** ([`ExprDispatcher::power_of_d`]) — score only `d`
//!   seeded distinct samples per pick: O(d) instead of O(fleet), the
//!   classical sampling tradeoff, batched under the hood.
//! * **Argmin tree** ([`ExprDispatcher::argmin_tree`]) — cache every
//!   server's score in a tournament tree and rescore only the servers the
//!   engine marked dirty ([`DispatchView::dirty`]) since the last pick:
//!   O(changed · log fleet) per pick, decision-identical to the full scan
//!   for event-driven policies (pinned on all presets by
//!   `tests/batch_dispatch.rs`). Policies reading time-derived signals
//!   (`now`, `req.size`, `server.work_left`) are not eligible — their
//!   scores move without a dirty mark — and silently fall back to the
//!   batched full scan.
//!
//! The DSL interpreter is *not* on any of these hot paths. It survives
//! behind [`ExprDispatcher::interpreted`] as the differential oracle: the
//! study integration tests replay whole scenarios through both engines and
//! demand identical picks.
//!
//! Runtime faults (division by zero despite the checker's warning; the
//! compile pipeline marks such candidates `may_fault`) follow the
//! cache-study contract: the first error is **latched**, the dispatch
//! falls back to round-robin so the simulation still completes with exact
//! accounting, and the study scores the candidate as a hard failure. The
//! batched argmin aborts at the lowest faulting row — the fault a
//! server-by-server scan would meet first — so the latched fault and the
//! fallback sequence are engine-independent.

use crate::dispatch::{DispatchView, Dispatcher, ServerView};
use policysmith_dsl::{eval, Expr, Feature, FeatureEnv, Mode};
use policysmith_kbpf::{BatchCtx, BatchScratch, CompiledPolicy, RuntimeFault, SPILL_SLOTS};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Dispatcher backed by a `Mode::Lb` scoring policy.
pub struct ExprDispatcher {
    name: String,
    engine: Engine,
    first_error: Option<RuntimeFault>,
    fallback_next: usize,
    /// Policy score evaluations performed so far — the denominator of the
    /// "score-calls per pick" sublinearity statistic `exp_batch` reports.
    score_calls: u64,
    picks: u64,
}

enum Engine {
    /// The production path: one structure-of-arrays batch per pick, one
    /// fused argmin call over the whole fleet.
    Batched {
        policy: CompiledPolicy,
        batch: BatchCtx,
        scratch: BatchScratch,
        map: Vec<i64>,
        /// Per-request invariant slots, broadcast once per pick.
        invariant_slots: FillPlan<InvariantField>,
        /// Per-server feature slots, filled column-major.
        server_slots: FillPlan<ServerField>,
    },
    /// Power-of-d sampling: score `d` seeded distinct servers, batched.
    PowerOfD {
        policy: CompiledPolicy,
        batch: BatchCtx,
        scratch: BatchScratch,
        map: Vec<i64>,
        invariant_slots: FillPlan<InvariantField>,
        server_slots: FillPlan<ServerField>,
        d: usize,
        rng: StdRng,
        /// Sampled indices, ascending (so the batched argmin's lowest-row
        /// tie-break is the lowest *server index* of the sample).
        sample: Vec<usize>,
    },
    /// Incremental argmin tree over cached scores; only dirty servers are
    /// rescored. Constructed only for tree-eligible layouts (event-driven
    /// per-server features exclusively).
    Tree {
        policy: CompiledPolicy,
        ctx: Vec<i64>,
        map: Vec<i64>,
        server_slots: FillPlan<ServerField>,
        scores: Vec<i64>,
        tree: ArgminTree,
        /// False until the first full rescore (and again after a faulting
        /// one): the cached scores cannot be trusted.
        ready: bool,
    },
    /// The reference oracle: `dsl::eval` over a flat field-read
    /// environment, kept only for differential testing and the
    /// interpreter-vs-VM benchmarks.
    Interpreted { expr: Expr },
}

/// `(ctx slot, field to write there)` pairs, precomputed per layout.
type FillPlan<F> = Vec<(usize, F)>;

#[derive(Clone, Copy)]
enum InvariantField {
    Now,
    ReqSize,
}

#[derive(Clone, Copy)]
enum ServerField {
    QueueLen,
    Inflight,
    Speed,
    EwmaLatency,
    WorkLeft,
}

/// Split a layout into the two fill plans.
fn fill_plans(policy: &CompiledPolicy) -> (FillPlan<InvariantField>, FillPlan<ServerField>) {
    let mut invariant = Vec::new();
    let mut server = Vec::new();
    for (slot, f) in policy.layout().features().iter().enumerate() {
        match f {
            Feature::Now => invariant.push((slot, InvariantField::Now)),
            Feature::ReqSize => invariant.push((slot, InvariantField::ReqSize)),
            Feature::ServerQueueLen => server.push((slot, ServerField::QueueLen)),
            Feature::ServerInflight => server.push((slot, ServerField::Inflight)),
            Feature::ServerSpeed => server.push((slot, ServerField::Speed)),
            Feature::ServerEwmaLatency => server.push((slot, ServerField::EwmaLatency)),
            Feature::ServerWorkLeft => server.push((slot, ServerField::WorkLeft)),
            // non-lb features cannot survive the Mode::Lb check
            _ => unreachable!("non-lb feature in a Mode::Lb layout"),
        }
    }
    (invariant, server)
}

fn invariant_value(field: InvariantField, view: &DispatchView<'_>) -> i64 {
    match field {
        InvariantField::Now => view.now_us as i64,
        InvariantField::ReqSize => view.req_size as i64,
    }
}

fn server_value(field: ServerField, s: &ServerView) -> i64 {
    match field {
        ServerField::QueueLen => s.queue_len as i64,
        ServerField::Inflight => s.inflight as i64,
        ServerField::Speed => s.speed as i64,
        ServerField::EwmaLatency => s.ewma_latency_us as i64,
        ServerField::WorkLeft => s.work_left_us as i64,
    }
}

/// Is the policy's feature surface purely event-driven? Queue length,
/// inflight, speed and EWMA latency change only at admissions,
/// completions, and reconfigures — exactly the events [`LbEngine`] marks
/// dirty. `now`/`req.size` change per request and `work_left` drains with
/// wall time, so any of them invalidates score caching.
///
/// [`LbEngine`]: crate::sim::LbEngine
fn tree_eligible(policy: &CompiledPolicy) -> bool {
    policy.layout().features().iter().all(|f| {
        matches!(
            f,
            Feature::ServerQueueLen
                | Feature::ServerInflight
                | Feature::ServerSpeed
                | Feature::ServerEwmaLatency
        )
    })
}

/// A tournament (segment) tree over per-server scores: leaf `i` holds
/// server `i`'s score, each internal node the minimum of its children.
/// The merge prefers the **left** child on equal scores and padding
/// leaves sit to the right of the real servers at `(i64::MAX, u32::MAX)`,
/// so the root's winner is always the lowest server index among the
/// minima — the same tie-break as the full scan's strict-`<` loop.
struct ArgminTree {
    /// Leaf count, a power of two (0 until the first rebuild).
    size: usize,
    /// `2 * size` nodes, 1-indexed; `nodes[1]` is the root, leaf `i` is
    /// `nodes[size + i]`. Each node is `(score, server index)`.
    nodes: Vec<(i64, u32)>,
}

impl ArgminTree {
    fn new() -> Self {
        ArgminTree { size: 0, nodes: Vec::new() }
    }

    fn merge(l: (i64, u32), r: (i64, u32)) -> (i64, u32) {
        if r.0 < l.0 {
            r
        } else {
            l
        }
    }

    /// Rebuild from scratch over `scores` (O(n)).
    fn rebuild(&mut self, scores: &[i64]) {
        let n = scores.len();
        let mut size = 1usize;
        while size < n {
            size <<= 1;
        }
        self.size = size;
        self.nodes.clear();
        self.nodes.resize(2 * size, (i64::MAX, u32::MAX));
        for (i, &s) in scores.iter().enumerate() {
            self.nodes[size + i] = (s, i as u32);
        }
        for i in (1..size).rev() {
            self.nodes[i] = Self::merge(self.nodes[2 * i], self.nodes[2 * i + 1]);
        }
    }

    /// Replace leaf `ix`'s score and repair its root path (O(log n)).
    fn update(&mut self, ix: usize, score: i64) {
        let mut i = self.size + ix;
        self.nodes[i] = (score, ix as u32);
        while i > 1 {
            i >>= 1;
            self.nodes[i] = Self::merge(self.nodes[2 * i], self.nodes[2 * i + 1]);
        }
    }

    /// The current argmin (lowest index among equal minima).
    fn best(&self) -> usize {
        self.nodes[1].1 as usize
    }
}

impl ExprDispatcher {
    /// Host a compiled (checked, lowered, verified) scoring policy on the
    /// batched full-scan engine — the default production path, adopted by
    /// every `new` caller (the serving runtime included) without further
    /// opt-in.
    pub fn new(name: &str, policy: CompiledPolicy) -> Self {
        debug_assert_eq!(policy.mode(), Mode::Lb, "lb host needs a Mode::Lb policy");
        let (invariant_slots, server_slots) = fill_plans(&policy);
        ExprDispatcher {
            name: name.to_string(),
            engine: Engine::Batched {
                batch: BatchCtx::new(policy.layout().len()),
                scratch: BatchScratch::new(),
                map: vec![0; SPILL_SLOTS],
                policy,
                invariant_slots,
                server_slots,
            },
            first_error: None,
            fallback_next: 0,
            score_calls: 0,
            picks: 0,
        }
    }

    /// Host on power-of-d sampling: each pick scores `d` distinct servers
    /// drawn from a seeded RNG and dispatches to the best of the sample —
    /// O(d) score calls per pick regardless of fleet size, at a bounded
    /// quality cost. `d ≥ fleet` degenerates to the batched full scan
    /// (decision-identical to [`new`](Self::new)).
    ///
    /// # Panics
    /// If `d == 0`.
    pub fn power_of_d(name: &str, policy: CompiledPolicy, d: usize, seed: u64) -> Self {
        assert!(d > 0, "power-of-d needs at least one sample");
        debug_assert_eq!(policy.mode(), Mode::Lb, "lb host needs a Mode::Lb policy");
        let (invariant_slots, server_slots) = fill_plans(&policy);
        ExprDispatcher {
            name: name.to_string(),
            engine: Engine::PowerOfD {
                batch: BatchCtx::new(policy.layout().len()),
                scratch: BatchScratch::new(),
                map: vec![0; SPILL_SLOTS],
                policy,
                invariant_slots,
                server_slots,
                d,
                rng: StdRng::seed_from_u64(seed),
                sample: Vec::with_capacity(d),
            },
            first_error: None,
            fallback_next: 0,
            score_calls: 0,
            picks: 0,
        }
    }

    /// Host on the incremental argmin tree: scores are cached per server
    /// and only the servers the engine marked dirty since the last pick
    /// are rescored — O(changed · log fleet) per pick, decision-identical
    /// to the full scan.
    ///
    /// Only policies whose features are purely event-driven qualify (see
    /// the module docs); anything else falls back to the batched full
    /// scan, observable via [`scan_kind`](Self::scan_kind).
    pub fn argmin_tree(name: &str, policy: CompiledPolicy) -> Self {
        debug_assert_eq!(policy.mode(), Mode::Lb, "lb host needs a Mode::Lb policy");
        if !tree_eligible(&policy) {
            return Self::new(name, policy);
        }
        let (invariant_slots, server_slots) = fill_plans(&policy);
        debug_assert!(invariant_slots.is_empty(), "eligible layouts have no invariant slots");
        let _ = invariant_slots;
        ExprDispatcher {
            name: name.to_string(),
            engine: Engine::Tree {
                ctx: vec![0; policy.layout().len()],
                map: vec![0; SPILL_SLOTS],
                policy,
                server_slots,
                scores: Vec::new(),
                tree: ArgminTree::new(),
                ready: false,
            },
            first_error: None,
            fallback_next: 0,
            score_calls: 0,
            picks: 0,
        }
    }

    /// Compile `expr` for `Mode::Lb` and host it. Expressions the compile
    /// pipeline rejects outright (float literals; every other rejection is
    /// impossible for checked lb source) fall back to the interpreter so
    /// hosting stays total.
    pub fn from_expr(name: &str, expr: &Expr) -> Self {
        match CompiledPolicy::compile(expr, Mode::Lb) {
            Ok(policy) => Self::new(name, policy),
            Err(_) => Self::interpreted(name, expr.clone()),
        }
    }

    /// Host via the reference interpreter — the differential oracle.
    pub fn interpreted(name: &str, expr: Expr) -> Self {
        ExprDispatcher {
            name: name.to_string(),
            engine: Engine::Interpreted { expr },
            first_error: None,
            fallback_next: 0,
            score_calls: 0,
            picks: 0,
        }
    }

    /// The first runtime fault, if any occurred — the study's hard-failure
    /// signal (same contract as the cache host's `first_error`).
    pub fn first_error(&self) -> Option<&RuntimeFault> {
        self.first_error.as_ref()
    }

    /// Is this host running compiled bytecode (vs the interpreter oracle)?
    pub fn is_compiled(&self) -> bool {
        !matches!(self.engine, Engine::Interpreted { .. })
    }

    /// Which scan engine actually answers picks — the post-construction
    /// truth (an ineligible [`argmin_tree`](Self::argmin_tree) request
    /// reads back as `"batched"`).
    pub fn scan_kind(&self) -> &'static str {
        match self.engine {
            Engine::Batched { .. } => "batched",
            Engine::PowerOfD { .. } => "power-of-d",
            Engine::Tree { .. } => "argmin-tree",
            Engine::Interpreted { .. } => "interpreted",
        }
    }

    /// Total policy score evaluations across all picks so far.
    pub fn score_calls(&self) -> u64 {
        self.score_calls
    }

    /// Total picks served so far (fallback picks included).
    pub fn picks(&self) -> u64 {
        self.picks
    }

    fn fallback(&mut self, n: usize) -> usize {
        let ix = self.fallback_next % n;
        self.fallback_next = (self.fallback_next + 1) % n;
        ix
    }
}

impl Dispatcher for ExprDispatcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        let n = view.servers.len();
        self.picks += 1;
        if self.first_error.is_some() {
            // latched failure: degrade to round-robin, keep the run exact
            return self.fallback(n);
        }
        let mut best = 0usize;
        let mut scored = 0u64;
        let fault = match &mut self.engine {
            Engine::Batched { policy, batch, scratch, map, invariant_slots, server_slots } => {
                batch.set_rows(n);
                for &(slot, field) in invariant_slots.iter() {
                    batch.broadcast(slot, invariant_value(field, view));
                }
                for &(slot, field) in server_slots.iter() {
                    let col = batch.column_mut(slot);
                    for (ix, s) in view.servers.iter().enumerate() {
                        col[ix] = server_value(field, s);
                    }
                }
                scored = n as u64;
                match policy.run_batch_argmin(batch, scratch, map) {
                    Ok(ix) => {
                        best = ix;
                        None
                    }
                    // the fused argmin aborts at the lowest faulting row —
                    // the fault a server-by-server scan would latch first
                    Err(bf) => Some(RuntimeFault::Vm(bf.fault)),
                }
            }
            Engine::PowerOfD {
                policy,
                batch,
                scratch,
                map,
                invariant_slots,
                server_slots,
                d,
                rng,
                sample,
            } => {
                let k = (*d).min(n);
                sample.clear();
                if k == n {
                    sample.extend(0..n);
                } else {
                    // distinct draws by rejection: k ≪ n makes retries rare
                    while sample.len() < k {
                        let c = rng.random_range(0..n);
                        if !sample.contains(&c) {
                            sample.push(c);
                        }
                    }
                    // ascending, so the argmin's lowest-row tie-break is
                    // the lowest server index of the sample
                    sample.sort_unstable();
                }
                batch.set_rows(k);
                for &(slot, field) in invariant_slots.iter() {
                    batch.broadcast(slot, invariant_value(field, view));
                }
                for &(slot, field) in server_slots.iter() {
                    let col = batch.column_mut(slot);
                    for (row, &six) in sample.iter().enumerate() {
                        col[row] = server_value(field, &view.servers[six]);
                    }
                }
                scored = k as u64;
                match policy.run_batch_argmin(batch, scratch, map) {
                    Ok(row) => {
                        best = sample[row];
                        None
                    }
                    Err(bf) => Some(RuntimeFault::Vm(bf.fault)),
                }
            }
            Engine::Tree { policy, ctx, map, server_slots, scores, tree, ready } => {
                // full rescore when the cache can't be trusted: first pick,
                // fleet resize, or a view without dirty provenance
                let full = !*ready || scores.len() != n || view.dirty.is_none();
                let mut fault = None;
                if full {
                    scores.clear();
                    for s in view.servers.iter() {
                        for &(slot, field) in server_slots.iter() {
                            ctx[slot] = server_value(field, s);
                        }
                        scored += 1;
                        match policy.run(ctx, map) {
                            Ok(v) => scores.push(v),
                            Err(e) => {
                                fault = Some(RuntimeFault::Vm(e));
                                break;
                            }
                        }
                    }
                    if fault.is_none() {
                        tree.rebuild(scores);
                        *ready = true;
                    } else {
                        *ready = false;
                    }
                } else {
                    for &six in view.dirty.unwrap_or(&[]) {
                        let s = &view.servers[six];
                        for &(slot, field) in server_slots.iter() {
                            ctx[slot] = server_value(field, s);
                        }
                        scored += 1;
                        match policy.run(ctx, map) {
                            Ok(v) => {
                                scores[six] = v;
                                tree.update(six, v);
                            }
                            Err(e) => {
                                fault = Some(RuntimeFault::Vm(e));
                                *ready = false;
                                break;
                            }
                        }
                    }
                }
                if fault.is_none() {
                    best = tree.best();
                }
                fault
            }
            Engine::Interpreted { expr } => {
                let mut best_score = i64::MAX;
                let mut fault = None;
                for (ix, s) in view.servers.iter().enumerate() {
                    let env = OracleEnv { now_us: view.now_us, req_size: view.req_size, server: s };
                    scored += 1;
                    match eval(expr, &env) {
                        Ok(score) => {
                            if score < best_score {
                                best_score = score;
                                best = ix;
                            }
                        }
                        Err(e) => {
                            fault = Some(RuntimeFault::Interp(e));
                            break;
                        }
                    }
                }
                fault
            }
        };
        self.score_calls += scored;
        match fault {
            None => best,
            Some(f) => {
                self.first_error = Some(f);
                self.fallback(n)
            }
        }
    }
}

/// The oracle's per-`(dispatch, server)` feature environment: plain field
/// reads off the borrowed views — no hash map, no per-pick allocation —
/// the same dense treatment the compiled engine's fill plans get, so the
/// interpreter-vs-VM comparison measures the engines, not the plumbing.
struct OracleEnv<'a> {
    now_us: u64,
    req_size: u64,
    server: &'a ServerView,
}

impl FeatureEnv for OracleEnv<'_> {
    fn feature(&self, f: Feature) -> i64 {
        match f {
            Feature::Now => self.now_us as i64,
            Feature::ReqSize => self.req_size as i64,
            Feature::ServerQueueLen => self.server.queue_len as i64,
            Feature::ServerInflight => self.server.inflight as i64,
            Feature::ServerSpeed => self.server.speed as i64,
            Feature::ServerEwmaLatency => self.server.ewma_latency_us as i64,
            Feature::ServerWorkLeft => self.server.work_left_us as i64,
            // non-lb features cannot survive the Mode::Lb check; be total
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::ServerView;
    use policysmith_dsl::parse;

    fn sv(queue_len: usize, inflight: usize, speed: u32, ewma: u64) -> ServerView {
        ServerView { queue_len, inflight, speed, ewma_latency_us: ewma, work_left_us: 0 }
    }

    fn host(src: &str) -> ExprDispatcher {
        let e = parse(src).unwrap();
        let policy = CompiledPolicy::compile(&e, Mode::Lb).unwrap();
        ExprDispatcher::new("test", policy)
    }

    fn view<'a>(servers: &'a [ServerView]) -> DispatchView<'a> {
        DispatchView { now_us: 0, req_size: 10, servers, dirty: None }
    }

    #[test]
    fn argmin_on_queue_len_is_jsq() {
        let servers = [sv(4, 5, 4, 0), sv(1, 2, 4, 0), sv(2, 3, 4, 0)];
        let mut d = host("server.queue_len");
        assert!(d.is_compiled(), "study candidates must run compiled");
        assert_eq!(d.scan_kind(), "batched", "the default host is the batched scan");
        assert_eq!(d.pick(&view(&servers)), 1);
        assert_eq!((d.picks(), d.score_calls()), (1, 3));
    }

    #[test]
    fn speed_normalized_score_prefers_fast_servers() {
        // equal backlog, unequal speed → normalized load picks the fast one
        let servers = [sv(3, 4, 1, 0), sv(3, 4, 8, 0)];
        assert_eq!(host("server.inflight * 1000 / server.speed").pick(&view(&servers)), 1);
    }

    #[test]
    fn work_left_scores_see_the_residual_backlog() {
        let mut a = sv(1, 2, 4, 0);
        a.work_left_us = 9_000;
        let mut b = sv(3, 4, 4, 0);
        b.work_left_us = 2_000; // more requests but less actual work
        let servers = [a, b];
        assert_eq!(host("server.work_left").pick(&view(&servers)), 1);
        assert_eq!(host("server.queue_len").pick(&view(&servers)), 0);
    }

    #[test]
    fn ties_break_to_the_lower_index() {
        let servers = [sv(2, 2, 4, 0), sv(2, 2, 4, 0)];
        assert_eq!(host("server.queue_len").pick(&view(&servers)), 0);
    }

    #[test]
    fn power_of_d_covering_the_fleet_is_the_full_scan() {
        let e = parse("server.queue_len").unwrap();
        let policy = CompiledPolicy::compile(&e, Mode::Lb).unwrap();
        let mut pd = ExprDispatcher::power_of_d("pd", policy, 16, 7);
        assert_eq!(pd.scan_kind(), "power-of-d");
        let servers = [sv(4, 5, 4, 0), sv(1, 2, 4, 0), sv(2, 3, 4, 0)];
        assert_eq!(pd.pick(&view(&servers)), 1, "d ≥ fleet degenerates to argmin");
    }

    #[test]
    fn argmin_tree_rejects_time_derived_features() {
        let e = parse("server.work_left + req.size").unwrap();
        let policy = CompiledPolicy::compile(&e, Mode::Lb).unwrap();
        let d = ExprDispatcher::argmin_tree("t", policy);
        assert_eq!(d.scan_kind(), "batched", "ineligible layouts fall back to the full scan");

        let e = parse("server.inflight * 1000 / server.speed").unwrap();
        let policy = CompiledPolicy::compile(&e, Mode::Lb).unwrap();
        let d = ExprDispatcher::argmin_tree("t", policy);
        assert_eq!(d.scan_kind(), "argmin-tree");
    }

    #[test]
    fn argmin_tree_rescores_all_without_dirty_provenance() {
        let e = parse("server.queue_len").unwrap();
        let policy = CompiledPolicy::compile(&e, Mode::Lb).unwrap();
        let mut d = ExprDispatcher::argmin_tree("t", policy);
        let a = [sv(4, 5, 4, 0), sv(1, 2, 4, 0)];
        assert_eq!(d.pick(&view(&a)), 1);
        // state changed behind its back; dirty: None must force a rescore
        let b = [sv(0, 0, 4, 0), sv(1, 2, 4, 0)];
        assert_eq!(d.pick(&view(&b)), 0);
    }

    #[test]
    fn runtime_fault_latches_and_degrades_to_round_robin() {
        // queue_len is 0 on an idle server → division by zero at runtime;
        // the compile pipeline flags it, the VM guard catches it
        let servers = [sv(0, 0, 4, 0), sv(0, 0, 4, 0)];
        let mut d = host("1000 / server.queue_len");
        assert!(d.first_error().is_none());
        let picks: Vec<usize> = (0..4).map(|_| d.pick(&view(&servers))).collect();
        assert!(d.first_error().is_some(), "fault must latch");
        assert_eq!(picks, vec![0, 1, 0, 1], "fallback is round-robin");
    }

    #[test]
    fn full_simulation_with_expr_host_matches_jsq_ordering() {
        // end-to-end: the expr host with the JSQ expression must land at
        // exactly the inflight-argmin decisions the native Jsq makes
        let servers =
            vec![crate::model::ServerCfg::new(4, 32), crate::model::ServerCfg::new(4, 32)];
        let cfg = crate::workload::WorkloadCfg {
            arrivals: crate::workload::ArrivalProcess::Poisson { rate_per_sec: 900.0 },
            sizes: crate::workload::BoundedPareto::web_default(),
            n: 4_000,
        };
        let reqs = crate::workload::generate(&cfg, 5);
        let expr_m = crate::sim::run(&servers, &reqs, &mut host("server.inflight"));
        let jsq_m = crate::sim::run(&servers, &reqs, &mut crate::dispatch::Jsq::new());
        assert_eq!(expr_m, jsq_m, "server.inflight argmin IS join-shortest-queue");
    }

    #[test]
    fn compiled_host_matches_the_interpreter_oracle_on_whole_scenarios() {
        // the differential check behind the host redesign: same scenario,
        // same expression, compiled (batched) vs interpreted → identical
        // metrics
        for src in [
            "server.inflight * 1000 / server.speed + server.queue_len * 50",
            "server.work_left + req.size * 1000 / server.speed",
            "if(server.queue_len > 8, 100000, server.ewma_latency / 100 + server.inflight * 10)",
        ] {
            let e = parse(src).unwrap();
            for sc in crate::scenario::all_presets() {
                let reqs = sc.requests();
                let mut compiled =
                    ExprDispatcher::new("vm", CompiledPolicy::compile(&e, Mode::Lb).unwrap());
                let mut oracle = ExprDispatcher::interpreted("interp", e.clone());
                let vm_m = crate::sim::run(&sc.servers, &reqs, &mut compiled);
                let or_m = crate::sim::run(&sc.servers, &reqs, &mut oracle);
                assert_eq!(vm_m, or_m, "engines diverged on {} for `{src}`", sc.name);
                assert!(compiled.first_error().is_none());
                assert!(oracle.first_error().is_none());
            }
        }
    }

    #[test]
    fn faulting_candidates_latch_identically_in_both_engines() {
        let e = parse("req.size / server.inflight").unwrap(); // idle → /0
        let sc = crate::scenario::uniform_fleet();
        let reqs = sc.requests();
        let mut compiled = ExprDispatcher::from_expr("vm", &e);
        let mut oracle = ExprDispatcher::interpreted("interp", e.clone());
        let vm_m = crate::sim::run(&sc.servers, &reqs, &mut compiled);
        let or_m = crate::sim::run(&sc.servers, &reqs, &mut oracle);
        assert!(compiled.first_error().is_some());
        assert!(oracle.first_error().is_some());
        assert_eq!(vm_m, or_m, "latched fallback must be engine-independent");
    }
}
