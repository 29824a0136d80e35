//! The PolicySmith template host for load balancing.
//!
//! A synthesized candidate arrives as a verified [`CompiledPolicy`] in
//! [`Mode::Lb`]; the host scores the fleet and sends the request to the
//! **lowest-scoring** server (argmin, ties to the lower index), the mirror
//! image of the cache host's highest-priority-stays rule. Like the cache
//! and aqm hosts it has two engines, one compiled and one oracle:
//!
//! * **Batched** ([`ExprDispatcher::new`], what every caller runs) — one
//!   fused [`CompiledPolicy::run_columns_argmin`] call per pick over
//!   columns the host **lends, not fills**: each event-driven feature slot
//!   is the [`DispatchView`]'s own column, passed as it is; `now` and
//!   `req.size` are passed as [`Column::Uniform`], so whatever the policy
//!   computes from them alone runs once per pick, not once per server; and
//!   `server.work_left` — the one column that moves with the clock — is
//!   derived in one pass (`max(drain_at − now, 0)`) only when the layout
//!   reads it. No per-row fill, no per-server VM call, no copy. In a
//!   policy that divides, a lent column whose servers all hold one value
//!   is found by the column engine and treated as a uniform too: always
//!   `server.speed` on a uniform fleet, so `req.size * 1000 / server.speed`
//!   is one division per pick there, and for a moment any column that
//!   happens to agree — every queue empty, an idle fleet's zero
//!   `work_left`, equal in-flight counts. The host declares nothing for
//!   either.
//! * **Interpreted** ([`ExprDispatcher::interpreted`]) — `dsl::eval`,
//!   server by server: the differential oracle. It is *not* on any hot
//!   path; the study integration tests, `tests/dispatch_golden.rs` and the
//!   benchmark's `decide-lb` verification replay whole runs through both
//!   engines and demand identical picks.
//!
//! There is no sublinear engine (sampling, cached-score tree): none ever
//! had a caller or fit a policy the search picked — ARCHITECTURE.md "Why
//! there is no sublinear engine" has the record and the way back.
//!
//! Runtime faults (division by zero despite the checker's warning; the
//! compile pipeline marks such candidates `may_fault`) follow the
//! cache-study contract: the first error is **latched**, the dispatch
//! falls back to round-robin so the simulation still completes with exact
//! accounting, and the study scores the candidate as a hard failure. The
//! batched argmin aborts at the lowest faulting row — the fault a
//! server-by-server scan would meet first — so the latched fault, the
//! fallback sequence and the count of servers scored up to it are
//! engine-independent.

use crate::dispatch::{DispatchView, Dispatcher};
use policysmith_dsl::{eval, Expr, Feature, FeatureEnv, Mode};
use policysmith_kbpf::{
    BatchFault, BatchScratch, Column, CompiledPolicy, RuntimeFault, SPILL_SLOTS,
};

/// Dispatcher backed by a `Mode::Lb` scoring policy.
pub struct ExprDispatcher {
    name: String,
    engine: Engine,
    first_error: Option<RuntimeFault>,
    fallback_next: usize,
    /// Policy score evaluations performed so far — the numerator of the
    /// "score-calls per pick" statistic (`exp_lb`, the benchmark's
    /// `lbsim.score_calls_per_pick`).
    score_calls: u64,
    picks: u64,
}

// the large variant is the one every caller runs; boxing it would put an
// indirection on the pick path to save bytes on test-only oracles
#[allow(clippy::large_enum_variant)]
enum Engine {
    /// The production path: one fused argmin call over the whole fleet, on
    /// the view's own columns.
    Batched {
        policy: CompiledPolicy,
        scratch: BatchScratch,
        map: Vec<i64>,
        /// `server.work_left` at this pick's `now`, derived only when the
        /// layout reads it.
        work_left: Vec<i64>,
    },
    /// The reference oracle: `dsl::eval` over a flat field-read
    /// environment, kept only for differential testing and the
    /// interpreter-vs-VM benchmarks.
    Interpreted { expr: Expr },
}

/// How many slots a `Mode::Lb` layout can have: one per lb feature.
const LB_SLOTS: usize = 7;

/// The view's column for an event-driven per-server feature: the four
/// that change only at admissions, completions and reconfigures, which is
/// when [`LbEngine`] writes them.
///
/// [`LbEngine`]: crate::sim::LbEngine
fn event_column<'a>(view: &DispatchView<'a>, f: Feature) -> Option<&'a [i64]> {
    match f {
        Feature::ServerQueueLen => Some(view.queue_len),
        Feature::ServerInflight => Some(view.inflight),
        Feature::ServerSpeed => Some(view.speed),
        Feature::ServerEwmaLatency => Some(view.ewma_latency_us),
        _ => None,
    }
}

/// `f`'s value when it is the same for every server of one decision.
fn uniform(view: &DispatchView<'_>, f: Feature) -> Option<i64> {
    match f {
        Feature::Now => Some(view.now_us as i64),
        Feature::ReqSize => Some(view.req_size as i64),
        _ => None,
    }
}

/// `f` for server `six` — the one feature map both engines read through
/// (the batched one column-wise, via the two functions above).
fn feature_at(view: &DispatchView<'_>, f: Feature, six: usize) -> i64 {
    match f {
        Feature::ServerWorkLeft => view.work_left_us(six) as i64,
        // non-lb features cannot survive the Mode::Lb check; be total
        _ => uniform(view, f).or_else(|| event_column(view, f).map(|col| col[six])).unwrap_or(0),
    }
}

/// One decision as the batch executor takes it: `now`/`req.size` stay
/// uniforms, an event-driven slot is the view's own column, and what is
/// not stored of the per-server lb surface is `server.work_left`.
fn lend<'a>(
    view: &DispatchView<'a>,
    features: &[Feature],
    work_left: &'a [i64],
) -> [Column<'a>; LB_SLOTS] {
    let mut cols = [Column::Uniform(0); LB_SLOTS];
    for (col, &f) in cols.iter_mut().zip(features) {
        *col = match uniform(view, f) {
            Some(v) => Column::Uniform(v),
            None => Column::Rows(event_column(view, f).unwrap_or(work_left)),
        };
    }
    cols
}

/// The first lent value that lies outside its feature's declared
/// [`Feature::range`], with that feature — the premise the verifier's
/// interval analysis rests on, checked in builds with debug assertions.
fn out_of_range(features: &[Feature], cols: &[Column<'_>], rows: usize) -> Option<(Feature, i64)> {
    features.iter().zip(cols).find_map(|(&f, col)| {
        let (lo, hi) = f.range();
        let values = match col {
            Column::Rows(col) => &col[..rows],
            Column::Uniform(v) => std::slice::from_ref(v),
        };
        values.iter().find(|v| !(lo..=hi).contains(*v)).map(|&v| (f, v))
    })
}

impl ExprDispatcher {
    /// Host a compiled (checked, lowered, verified) scoring policy on the
    /// batched full-scan engine — the production path (the serving runtime
    /// included).
    pub fn new(name: &str, policy: CompiledPolicy) -> Self {
        debug_assert_eq!(policy.mode(), Mode::Lb, "lb host needs a Mode::Lb policy");
        ExprDispatcher {
            name: name.to_string(),
            engine: Engine::Batched {
                scratch: BatchScratch::new(),
                map: vec![0; SPILL_SLOTS],
                work_left: Vec::new(),
                policy,
            },
            first_error: None,
            fallback_next: 0,
            score_calls: 0,
            picks: 0,
        }
    }

    /// Compile `expr` for `Mode::Lb` and host it on the batched engine.
    ///
    /// # Panics
    /// If the compile pipeline refuses `expr` (a float literal, a
    /// cross-mode feature, a size or depth budget): the host never swaps
    /// in the interpreter behind a caller that asked for the VM.
    pub fn from_expr(name: &str, expr: &Expr) -> Self {
        match CompiledPolicy::compile(expr, Mode::Lb) {
            Ok(policy) => Self::new(name, policy),
            Err(e) => panic!("lb host `{name}`: the compile pipeline refused the policy: {e}"),
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
        let n = view.len();
        self.picks += 1;
        if self.first_error.is_some() {
            // latched failure: degrade to round-robin, keep the run exact
            return self.fallback(n);
        }
        let mut scored = 0u64;
        let picked = match &mut self.engine {
            Engine::Batched { policy, scratch, map, work_left } => {
                let features = policy.layout().features();
                if features.contains(&Feature::ServerWorkLeft) {
                    let now = view.now_us as i64;
                    work_left.clear();
                    work_left.extend(view.drain_at_us.iter().map(|&at| (at - now).max(0)));
                }
                let cols = lend(view, features, work_left);
                debug_assert_eq!(
                    out_of_range(features, &cols, n),
                    None,
                    "a lent value lies outside the range the Checker assumed for its feature"
                );
                let row = policy.run_columns_argmin(&cols[..features.len()], n, scratch, map);
                scored = rows_scored(&row, n);
                row.map_err(|bf| RuntimeFault::Vm(bf.fault))
            }
            Engine::Interpreted { expr } => {
                let mut best = (0usize, i64::MAX);
                (0..n)
                    .try_for_each(|six| {
                        scored += 1;
                        let score = eval(expr, &OracleEnv { view, six })?;
                        if score < best.1 {
                            best = (six, score);
                        }
                        Ok(())
                    })
                    .map(|()| best.0)
                    .map_err(RuntimeFault::Interp)
            }
        };
        self.score_calls += scored;
        match picked {
            Ok(best) => best,
            Err(fault) => {
                self.first_error = Some(fault);
                self.fallback(n)
            }
        }
    }
}

/// How many rows a fused argmin over `rows` rows scored: all of them, or —
/// the scan being spec'd as row by row, aborting at the lowest faulting
/// row, the fault a server-by-server scan would latch first — those up to
/// and including that one.
fn rows_scored(picked: &Result<usize, BatchFault>, rows: usize) -> u64 {
    match picked {
        Ok(_) => rows as u64,
        Err(bf) => bf.row as u64 + 1,
    }
}

/// The oracle's per-`(dispatch, server)` feature environment: plain cell
/// reads off the borrowed view — no hash map, no per-pick allocation — so
/// the interpreter-vs-VM comparison measures the engines, not the plumbing.
struct OracleEnv<'v, 'a> {
    view: &'v DispatchView<'a>,
    six: usize,
}

impl FeatureEnv for OracleEnv<'_, '_> {
    fn feature(&self, f: Feature) -> i64 {
        feature_at(self.view, f, self.six)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{FleetColumns, ServerView};
    use policysmith_dsl::parse;

    fn sv(queue_len: usize, inflight: usize, speed: u32, ewma: u64) -> ServerView {
        ServerView { queue_len, inflight, speed, ewma_latency_us: ewma, work_left_us: 0 }
    }

    fn host(src: &str) -> ExprDispatcher {
        ExprDispatcher::new("test", CompiledPolicy::from_source(src, Mode::Lb).unwrap())
    }

    /// One decision of `d` over `servers` (a size-10 request at t = 0).
    fn pick_on(d: &mut ExprDispatcher, servers: &[ServerView]) -> usize {
        d.pick(&FleetColumns::from_rows(servers, 0).view(0, 10))
    }

    #[test]
    fn argmin_on_queue_len_is_jsq() {
        let servers = [sv(4, 5, 4, 0), sv(1, 2, 4, 0), sv(2, 3, 4, 0)];
        let mut d = host("server.queue_len");
        assert_eq!(pick_on(&mut d, &servers), 1);
        assert_eq!((d.picks(), d.score_calls()), (1, 3));
    }

    #[test]
    fn speed_normalized_score_prefers_fast_servers() {
        // equal backlog, unequal speed → normalized load picks the fast one
        let servers = [sv(3, 4, 1, 0), sv(3, 4, 8, 0)];
        assert_eq!(pick_on(&mut host("server.inflight * 1000 / server.speed"), &servers), 1);
    }

    #[test]
    fn work_left_scores_see_the_residual_backlog() {
        let mut a = sv(1, 2, 4, 0);
        a.work_left_us = 9_000;
        let mut b = sv(3, 4, 4, 0);
        b.work_left_us = 2_000; // more requests but less actual work
        let servers = [a, b];
        assert_eq!(pick_on(&mut host("server.work_left"), &servers), 1);
        assert_eq!(pick_on(&mut host("server.queue_len"), &servers), 0);
    }

    #[test]
    fn ties_break_to_the_lower_index() {
        let servers = [sv(2, 2, 4, 0), sv(2, 2, 4, 0)];
        assert_eq!(pick_on(&mut host("server.queue_len"), &servers), 0);
    }

    #[test]
    fn runtime_fault_latches_and_degrades_to_round_robin() {
        // queue_len is 0 on an idle server → division by zero at runtime;
        // the compile pipeline flags it, the VM guard catches it
        let servers = [sv(0, 0, 4, 0), sv(0, 0, 4, 0)];
        let mut d = host("1000 / server.queue_len");
        assert!(d.first_error().is_none());
        let picks: Vec<usize> = (0..4).map(|_| pick_on(&mut d, &servers)).collect();
        assert!(d.first_error().is_some(), "fault must latch");
        assert_eq!(picks, vec![0, 1, 0, 1], "fallback is round-robin");
    }

    #[test]
    #[should_panic(expected = "refused the policy")]
    fn from_expr_refuses_rather_than_interprets() {
        // a float literal fails the check; the host must not quietly run
        // the oracle in its place
        ExprDispatcher::from_expr("float", &parse("server.queue_len + 0.5").unwrap());
    }

    #[test]
    fn out_of_range_names_the_first_feature_and_value() {
        let features = [Feature::ServerQueueLen, Feature::ServerSpeed];
        let ok = [0, 3];
        // only the batch's rows count: the slice may be longer
        let long = [0, 3, -1];
        assert_eq!(out_of_range(&features, &[Column::Rows(&long), Column::Uniform(4)], 2), None);
        assert_eq!(
            out_of_range(&features, &[Column::Rows(&long), Column::Uniform(0)], 3),
            Some((Feature::ServerQueueLen, -1))
        );
        assert_eq!(
            out_of_range(&features, &[Column::Rows(&ok), Column::Uniform(0)], 2),
            Some((Feature::ServerSpeed, 0))
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the range")]
    fn picks_check_what_they_lend() {
        // server.speed is declared (1, 2^16): a zero speed is a host bug,
        // caught before the division it would fault
        let servers = [sv(1, 1, 4, 0), sv(1, 1, 0, 0)];
        pick_on(&mut host("server.inflight * 1000 / server.speed"), &servers);
    }

    #[test]
    fn lent_column_arrays_cover_the_lb_surface() {
        assert_eq!(LB_SLOTS, Feature::catalog(Mode::Lb).len());
    }

    #[test]
    fn score_calls_count_rows_actually_scored() {
        // server 1 is the lowest faulting row: a server-by-server scan
        // scores two servers and stops, and so must both engines report
        let servers = [sv(2, 3, 4, 0), sv(0, 0, 4, 0), sv(3, 4, 4, 0), sv(0, 0, 4, 0)];
        let e = parse("1000 / server.queue_len").unwrap();
        let policy = || CompiledPolicy::compile(&e, Mode::Lb).unwrap();
        for mut d in [
            ExprDispatcher::new("batched", policy()),
            ExprDispatcher::interpreted("oracle", e.clone()),
        ] {
            pick_on(&mut d, &servers);
            assert!(d.first_error().is_some(), "{} must latch the fault", d.name());
            assert_eq!(d.score_calls(), 2, "{} scored past (or short of) the abort", d.name());
            // latched: fallback picks score nothing
            pick_on(&mut d, &servers);
            assert_eq!((d.picks(), d.score_calls()), (2, 2), "{}", d.name());
        }

        // and a clean pick scores every row it was given
        let mut d = ExprDispatcher::new("batched", policy());
        pick_on(&mut d, &[sv(2, 3, 4, 0), sv(1, 2, 4, 0), sv(3, 4, 4, 0)]);
        assert_eq!((d.first_error(), d.score_calls()), (None, 3));
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
