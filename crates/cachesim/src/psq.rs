//! The PolicySmith cache template host (§4.1.2 of the paper).
//!
//! Object metadata lives in a priority structure; a synthesized
//! `priority()` candidate — hosted as a verified, compiled
//! [`CompiledPolicy`] — is executed **on each access or insertion** to
//! (re)score the accessed object, and the lowest-scored object is evicted
//! when space is needed. Each evaluation fills a flat, reusable context
//! slab with exactly the Table-1 features the candidate reads and runs the
//! kbpf program: no per-decision allocation, no AST walking. Per-object
//! state (rank scores, the aggregate tracker's resident list) is indexed
//! by the engine slot each callback carries ([`CacheView::subject`]), so
//! the host itself hashes an id only for the `hist.*` features. The DSL
//! interpreter survives only behind [`PriorityPolicy::interpreted`] as the
//! differential oracle. Priorities of untouched objects are *not*
//! recomputed (the paper's design: scores update on access), so the host
//! costs O(log N) per access as §4.1.2 advertises.
//!
//! Runtime faults (division by zero — the classic generated-code bug; the
//! compile pipeline marks such candidates `may_fault` instead of rejecting
//! them, because this host has a defined fallback) do not crash the host:
//! the first fault is latched into [`PriorityPolicy::first_error`], the
//! object keeps its previous score, and the evaluator downgrades the
//! candidate (§4.1.3's Checker catches most, the Evaluator the rest).

use crate::engine::{CacheView, ObjId, Policy};
use crate::features::{AggregateTracker, EvictionHistory, EvictionRecord, Tables};
use crate::rank::{EvictionRank, HeapRank};
use policysmith_dsl::{eval, Expr, Feature, FeatureEnv, Mode};
use policysmith_kbpf::{CompileError, CompiledPolicy, RuntimeFault, SPILL_SLOTS};

/// Eviction-history length (entries).
const DEFAULT_HISTORY: usize = 1024;
/// Aggregate snapshot refresh interval (accesses).
const DEFAULT_REFRESH: u64 = 512;

/// Does `feats` read any eviction-history feature? (Gates the
/// [`EvictionHistory`] upkeep.)
fn reads_history(feats: &[Feature]) -> bool {
    feats.iter().any(|f| {
        matches!(
            f,
            Feature::HistContains
                | Feature::HistCount
                | Feature::HistAgeAtEvict
                | Feature::HistTimeSinceEvict
        )
    })
}

/// The slot of the object a hit, insert or evict callback is about.
fn subject(view: &CacheView<'_>) -> u32 {
    view.subject().expect("the engine names the subject of every callback about an object")
}

/// A cache policy driven by a synthesized priority expression.
pub struct PriorityPolicy {
    name: String,
    engine: Engine,
    /// (score, id) index — min score evicted first.
    rank: HeapRank,
    /// Keeps the percentile tables the hosted expression reads; when that
    /// is none, the sampled snapshots would never be consulted, so the
    /// tracker is not maintained at all — score-identical, measurably
    /// cheaper.
    aggregates: AggregateTracker,
    history: EvictionHistory,
    /// Does the hosted expression read any eviction-history feature? The
    /// same gate, for the history's upkeep.
    uses_history: bool,
    /// First runtime fault, if any (latched).
    first_error: Option<RuntimeFault>,
    evaluations: u64,
}

enum Engine {
    /// The production path: compiled bytecode + reusable ctx slab/map.
    Compiled { policy: CompiledPolicy, ctx: Vec<i64>, map: Vec<i64> },
    /// The reference oracle, for differential tests and benchmarks.
    Interpreted { expr: Expr },
}

impl PriorityPolicy {
    /// Host a compiled (checked, lowered, verified) priority policy.
    pub fn new(name: impl Into<String>, policy: CompiledPolicy) -> Self {
        debug_assert_eq!(policy.mode(), Mode::Cache, "cache host needs a Mode::Cache policy");
        Self::build(
            name,
            Engine::Compiled {
                ctx: Vec::with_capacity(policy.layout().len()),
                map: vec![0; SPILL_SLOTS],
                policy,
            },
        )
    }

    /// Compile `expr` for `Mode::Cache` and host it on the VM.
    ///
    /// # Panics
    /// If the compile pipeline refuses `expr` (a float literal, a
    /// cross-mode feature, a size or depth budget): the host never swaps
    /// in the interpreter behind a caller that asked for the VM.
    pub fn from_expr(name: impl Into<String>, expr: &Expr) -> Self {
        let name = name.into();
        match CompiledPolicy::compile(expr, Mode::Cache) {
            Ok(policy) => Self::new(name, policy),
            Err(e) => panic!("cache host `{name}`: the compile pipeline refused the policy: {e}"),
        }
    }

    /// Host via the reference interpreter — the differential oracle.
    pub fn interpreted(name: impl Into<String>, expr: Expr) -> Self {
        Self::build(name, Engine::Interpreted { expr })
    }

    fn build(name: impl Into<String>, engine: Engine) -> Self {
        let feats = match &engine {
            Engine::Compiled { policy, .. } => policy.expr().features(),
            Engine::Interpreted { expr } => expr.features(),
        };
        PriorityPolicy {
            name: name.into(),
            engine,
            rank: HeapRank::new(),
            aggregates: AggregateTracker::new(DEFAULT_REFRESH, Tables::read_by(&feats)),
            history: EvictionHistory::new(DEFAULT_HISTORY),
            uses_history: reads_history(&feats),
            first_error: None,
            evaluations: 0,
        }
    }

    /// Keep the feature trackers (percentile aggregates + eviction
    /// history) maintained whether or not the *current* expression reads
    /// them. Costs the upkeep the access-gated default elides; required
    /// for hosts that may [`swap_policy`](Self::swap_policy) mid-run,
    /// since a policy swapped in later may read features the deposed one
    /// never touched — and a tracker only engaged at swap time would
    /// start empty. Must be called before the first request.
    pub fn track_everything(mut self) -> Self {
        assert!(self.rank.is_empty(), "tracking switch only valid on an empty host");
        self.aggregates = AggregateTracker::new(DEFAULT_REFRESH, Tables::ALL);
        self.uses_history = true;
        self
    }

    /// Hot-swap the hosted policy mid-run — the cache half of the serving
    /// runtime's publish step.
    ///
    /// Follows the template's own update discipline (§4.1.2: scores update
    /// **on access**): resident objects keep the priority the deposed
    /// policy last gave them and are re-scored by the new policy on their
    /// next access or insertion, so the swap itself touches no per-object
    /// state and completes in O(layout) — no stop-the-world rescore, no
    /// allocation beyond the new context slab. Any latched runtime fault
    /// belonged to the deposed policy and is cleared; construct the host
    /// with [`track_everything`](Self::track_everything) when swaps are
    /// possible, so aggregate/history features the new policy reads have
    /// been maintained all along.
    pub fn swap_policy(&mut self, policy: CompiledPolicy) {
        debug_assert_eq!(policy.mode(), Mode::Cache, "cache host needs a Mode::Cache policy");
        let feats = policy.expr().features();
        // A tracker engaged only now would be cold: already-resident
        // objects were never inserted, so percentile/history reads would
        // be silently wrong. Refuse instead — swap-capable hosts opt into
        // `track_everything` up front.
        assert!(
            self.aggregates.tables().covers(Tables::read_by(&feats)),
            "swapped-in policy reads a percentile table the tracker was never \
             keeping; construct the host with track_everything()"
        );
        assert!(
            self.uses_history || !reads_history(&feats),
            "swapped-in policy reads eviction history but the tracker was never \
             maintained; construct the host with track_everything()"
        );
        self.engine = Engine::Compiled {
            ctx: Vec::with_capacity(policy.layout().len()),
            map: vec![0; SPILL_SLOTS],
            policy,
        };
        self.first_error = None;
    }

    /// Compile `src` for `Mode::Cache` and host it. Returns the stage that
    /// refused it on bad source (no interpreter fallback: text that does
    /// not compile is not hosted).
    pub fn from_source(name: impl Into<String>, src: &str) -> Result<Self, CompileError> {
        Ok(PriorityPolicy::new(name, CompiledPolicy::from_source(src, Mode::Cache)?))
    }

    /// First runtime fault observed, if any.
    pub fn first_error(&self) -> Option<&RuntimeFault> {
        self.first_error.as_ref()
    }

    /// Number of priority evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The hosted expression (the compiled engine retains it as the
    /// reference semantics of its bytecode).
    pub fn expr(&self) -> &Expr {
        match &self.engine {
            Engine::Compiled { policy, .. } => policy.expr(),
            Engine::Interpreted { expr } => expr,
        }
    }

    /// Re-score the callback's subject (object `id`).
    fn rescore(&mut self, id: ObjId, view: &CacheView<'_>) {
        let slot = subject(view);
        let meta = view.meta_at(slot);
        debug_assert!(
            view.meta(id).is_some_and(|m| std::ptr::eq(m, meta)),
            "the view's subject is not object {id}"
        );
        let env = PsqEnv { id, meta, view, aggregates: &self.aggregates, history: &self.history };
        self.evaluations += 1;
        let result = match &mut self.engine {
            Engine::Compiled { policy, ctx, map } => {
                policy.run_with_env(&env, ctx, map).map_err(RuntimeFault::Vm)
            }
            Engine::Interpreted { expr } => eval(expr, &env).map_err(RuntimeFault::Interp),
        };
        let new_score = match result {
            Ok(v) => v,
            Err(e) => {
                if self.first_error.is_none() {
                    self.first_error = Some(e);
                }
                // keep previous score; new objects get the minimum
                self.rank.get(slot).unwrap_or(i64::MIN)
            }
        };
        self.rank.set(slot, id, new_score);
    }
}

impl Policy for PriorityPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.aggregates.on_access(view);
        self.rescore(id, view);
    }

    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        self.rank.peek_min().expect("priority victim from empty cache").1
    }

    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        let slot = subject(view);
        self.rank.remove(slot);
        self.aggregates.remove(slot);
        if self.uses_history {
            let m = view.meta_at(slot);
            self.history.record(
                id,
                EvictionRecord {
                    evict_vtime: view.vtime,
                    access_count: m.access_count,
                    age_at_evict: view.vtime.saturating_sub(m.last_vtime),
                },
            );
        }
    }

    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.aggregates.insert(subject(view));
        self.aggregates.on_access(view);
        self.rescore(id, view);
    }
}

/// The Table-1 feature environment for one evaluation.
struct PsqEnv<'a> {
    id: ObjId,
    meta: &'a crate::engine::ObjMeta,
    view: &'a CacheView<'a>,
    aggregates: &'a AggregateTracker,
    history: &'a EvictionHistory,
}

impl FeatureEnv for PsqEnv<'_> {
    fn feature(&self, f: Feature) -> i64 {
        use Feature::*;
        let now = self.view.vtime;
        let v: u64 = match f {
            Now => now,
            ObjCount => self.meta.access_count,
            ObjLastAccess => self.meta.last_vtime,
            ObjInsertTime => self.meta.insert_vtime,
            ObjSize => self.meta.size as u64,
            ObjAge => now.saturating_sub(self.meta.last_vtime),
            ObjTimeInCache => now.saturating_sub(self.meta.insert_vtime),
            CountsPct(p) => self.aggregates.counts_pct(p),
            AgesPct(p) => self.aggregates.ages_pct(p, now),
            SizesPct(p) => self.aggregates.sizes_pct(p),
            HistContains => self.history.get(self.id).is_some() as u64,
            HistCount => self.history.get(self.id).map(|r| r.access_count).unwrap_or(0),
            HistAgeAtEvict => self.history.get(self.id).map(|r| r.age_at_evict).unwrap_or(0),
            HistTimeSinceEvict => {
                self.history.get(self.id).map(|r| now.saturating_sub(r.evict_vtime)).unwrap_or(0)
            }
            CacheObjects => self.view.num_objects() as u64,
            CacheUsedBytes => self.view.used_bytes,
            CacheCapacity => self.view.capacity_bytes,
            // kernel features are rejected by the checker in cache mode;
            // be total anyway
            _ => 0,
        };
        v.min(i64::MAX as u64) as i64
    }
}

/// LRU expressed in the template (one of the paper's two search seeds):
/// highest priority = most recently accessed.
pub fn lru_seed() -> Expr {
    policysmith_dsl::parse("obj.last_access").expect("seed parses")
}

/// LFU expressed in the template (the other seed).
pub fn lfu_seed() -> Expr {
    policysmith_dsl::parse("obj.count").expect("seed parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cache;
    use policysmith_traces::{OpKind, Request};

    fn req(t: u64, obj: u64) -> Request {
        Request { time_us: t, obj, size: 100, op: OpKind::Read }
    }

    fn run_ids(policy: PriorityPolicy, ids: &[u64], cap: u64) -> Cache<PriorityPolicy> {
        let mut c = Cache::new(cap, policy);
        for (i, &id) in ids.iter().enumerate() {
            c.request(&req(i as u64, id));
        }
        c
    }

    #[test]
    fn lru_seed_behaves_like_lru() {
        use crate::policies::basic::Lru;
        let ids: Vec<u64> = (0..8_000u64).map(|i| (i * 2654435761) % 120).collect();
        let cap = 2_000;
        let host = PriorityPolicy::from_expr("psq-lru", &lru_seed());
        let psq = run_ids(host, &ids, cap).result();
        let lru = {
            let mut c = Cache::new(cap, Lru::new());
            for (i, &id) in ids.iter().enumerate() {
                c.request(&req(i as u64, id));
            }
            c.result()
        };
        assert_eq!(psq.hits, lru.hits, "template-hosted LRU must equal native LRU");
    }

    #[test]
    fn lfu_seed_behaves_like_lfu_modulo_ties() {
        use crate::policies::basic::Lfu;
        // Distinct counts avoid tie-breaking differences.
        let mut ids = Vec::new();
        for r in 0..50u64 {
            for id in 0..10u64 {
                if r % (id + 1) == 0 {
                    ids.push(id);
                }
            }
        }
        let cap = 500;
        let psq = run_ids(PriorityPolicy::from_expr("psq-lfu", &lfu_seed()), &ids, cap).result();
        let lfu = {
            let mut c = Cache::new(cap, Lfu::new());
            for (i, &id) in ids.iter().enumerate() {
                c.request(&req(i as u64, id));
            }
            c.result()
        };
        // Tie-breaking differs (native LFU breaks ties FIFO, the template
        // by object id), so behaviour matches only approximately.
        let diff = (psq.hits as f64 - lfu.hits as f64).abs();
        assert!(diff <= 0.3 * lfu.hits.max(1) as f64, "psq {} vs lfu {}", psq.hits, lfu.hits);
    }

    #[test]
    fn history_features_visible_after_eviction() {
        let expr = policysmith_dsl::parse("if(hist.contains, 1000, 0) + obj.last_access").unwrap();
        let mut c = Cache::new(300, PriorityPolicy::from_expr("hist", &expr));
        let mut t = 0;
        let mut go = |c: &mut Cache<PriorityPolicy>, id: u64| {
            t += 1;
            c.request(&req(t, id));
        };
        go(&mut c, 1);
        go(&mut c, 2);
        go(&mut c, 3);
        go(&mut c, 4); // evicts 1 (lowest last_access)
        assert!(!c.contains(1));
        go(&mut c, 1); // re-inserted; hist.contains → big bonus
        assert!(c.policy.history.get(1).is_some());
        // now 1 is protected by its history bonus; 2 should be next victim
        go(&mut c, 5);
        assert!(c.contains(1));
    }

    #[test]
    #[should_panic(expected = "refused the policy")]
    fn from_expr_refuses_rather_than_interprets() {
        // a float literal fails the check; the host must not quietly run
        // the oracle in its place
        PriorityPolicy::from_expr("float", &policysmith_dsl::parse("obj.count * 0.5").unwrap());
    }

    #[test]
    fn runtime_fault_is_latched_not_fatal() {
        // cache.objects - 3 hits zero when 3 objects are resident
        let expr = policysmith_dsl::parse("100 / (cache.objects - 3)").unwrap();
        let host = PriorityPolicy::from_expr("faulty", &expr);
        let c = run_ids(host, &[1, 2, 3, 4, 5, 6], 300);
        assert!(c.policy.first_error().is_some());
        // simulation completed anyway
        assert_eq!(c.result().requests, 6);
    }

    #[test]
    fn ranking_consistent() {
        let ids: Vec<u64> = (0..10_000u64).map(|i| (i * 31) % 200).collect();
        let expr =
            policysmith_dsl::parse("obj.count * 20 - obj.age / 300 - obj.size / 500").unwrap();
        let c = run_ids(PriorityPolicy::from_expr("mix", &expr), &ids, 2_500);
        assert_eq!(c.policy.rank.len(), c.num_objects());
        assert!(c.policy.first_error().is_none());
        assert!(c.policy.evaluations() >= ids.len() as u64);
    }

    #[test]
    fn percentile_features_flow_through() {
        let expr =
            policysmith_dsl::parse("if(obj.size > sizes.p50, 0 - obj.age, obj.count)").unwrap();
        let mut c = Cache::new(10_000, PriorityPolicy::from_expr("pct", &expr));
        for i in 0..2_000u64 {
            let size = if i % 2 == 0 { 50 } else { 200 };
            c.request(&Request { time_us: i, obj: i % 150, size, op: OpKind::Read });
        }
        assert!(c.policy.first_error().is_none());
        assert!(c.result().hits > 0);
    }

    #[test]
    fn swap_policy_rescoring_applies_on_access() {
        // LRU host: highest last_access survives. Fill 3 objects, then swap
        // to anti-LRU (0 - obj.last_access) and re-touch them: the rescored
        // priorities must invert the eviction order.
        let lru = CompiledPolicy::compile(&lru_seed(), Mode::Cache).unwrap();
        let mut c = Cache::new(300, PriorityPolicy::new("swap", lru).track_everything());
        c.request(&req(1, 1));
        c.request(&req(2, 2));
        c.request(&req(3, 3));
        let anti = CompiledPolicy::from_source("0 - obj.last_access", Mode::Cache).unwrap();
        c.policy.swap_policy(anti);
        // re-touch in the same order: scores update on access (§4.1.2)
        c.request(&req(4, 1));
        c.request(&req(5, 2));
        c.request(&req(6, 3));
        // next insertion must evict object 3 (most recent ⇒ lowest
        // anti-LRU priority), not object 1 as LRU would
        c.request(&req(7, 4));
        assert!(c.contains(1), "anti-LRU protects the oldest");
        assert!(!c.contains(3), "anti-LRU evicts the most recent");
        assert!(c.policy.first_error().is_none());
    }

    #[test]
    fn swapped_in_reader_finds_the_tables_it_would_have_kept_itself() {
        // Two LRU hosts over one request stream: `all` keeps every table
        // (track_everything), `own` only the one the reader will consult —
        // the tracking a host built for the reader runs from the start.
        // Both are then swapped to the reader. A refresh draws the same
        // sample whatever is kept, so the two must agree on every decision
        // and on the percentile itself.
        let reader = policysmith_dsl::parse("if(obj.size > sizes.p75, 0 - obj.age, obj.count)")
            .expect("reader parses");
        let lru = || CompiledPolicy::compile(&lru_seed(), Mode::Cache).unwrap();
        let all = PriorityPolicy::new("all", lru()).track_everything();
        let mut own = PriorityPolicy::new("own", lru());
        let tables = Tables::read_by(&reader.features());
        assert_eq!(tables, Tables { sizes: true, ..Tables::default() });
        own.aggregates = AggregateTracker::new(DEFAULT_REFRESH, tables);

        let mut all = Cache::new(40_000, all);
        let mut own = Cache::new(40_000, own);
        let request = |i: u64| {
            let obj = (i * 2654435761) % 900;
            Request { time_us: i, obj, size: 40 + (obj as u32 * 37) % 400, op: OpKind::Read }
        };
        for i in 0..6_000 {
            assert_eq!(all.request(&request(i)), own.request(&request(i)), "request {i}");
        }
        assert!(all.result().evictions > 1_000, "the stream must churn the slots");
        all.policy.swap_policy(CompiledPolicy::compile(&reader, Mode::Cache).unwrap());
        own.policy.swap_policy(CompiledPolicy::compile(&reader, Mode::Cache).unwrap());
        for i in 6_000..12_000 {
            assert_eq!(all.request(&request(i)), own.request(&request(i)), "request {i}");
            assert_eq!(all.policy.aggregates.sizes_pct(75), own.policy.aggregates.sizes_pct(75));
        }
        assert_eq!(all.result(), own.result());
        assert_ne!(all.policy.aggregates.sizes_pct(75), 0);
        // what `own` never kept stays empty; `all` has it
        assert_eq!(own.policy.aggregates.counts_pct(50), 0);
        assert_ne!(all.policy.aggregates.counts_pct(50), 0);
    }

    #[test]
    #[should_panic(expected = "reads a percentile table the tracker was never keeping")]
    fn swap_policy_refuses_a_reader_of_an_unkept_table() {
        // the host reads sizes.*, so its tracker keeps sizes only
        let compiled = |src| CompiledPolicy::from_source(src, Mode::Cache).unwrap();
        let mut host = PriorityPolicy::new("sizes", compiled("obj.count - (obj.size > sizes.p50)"));
        host.swap_policy(compiled("obj.count - counts.p50"));
    }

    #[test]
    fn swap_policy_clears_the_latched_fault() {
        let faulty = policysmith_dsl::parse("100 / (cache.objects - 3)").unwrap();
        let host = PriorityPolicy::new(
            "swap-fault",
            CompiledPolicy::compile(&faulty, Mode::Cache).unwrap(),
        )
        .track_everything();
        let mut c = Cache::new(600, host);
        for (i, id) in (1..=6u64).enumerate() {
            c.request(&req(i as u64, id));
        }
        assert!(c.policy.first_error().is_some(), "deposed policy faulted");
        let sane = CompiledPolicy::compile(&lru_seed(), Mode::Cache).unwrap();
        c.policy.swap_policy(sane);
        assert!(c.policy.first_error().is_none(), "new policy starts with a clean slate");
        for (i, id) in (1..=6u64).enumerate() {
            c.request(&req(100 + i as u64, id));
        }
        assert!(c.policy.first_error().is_none());
    }

    #[test]
    fn compiled_host_matches_the_interpreter_oracle_on_whole_traces() {
        // the differential check behind the host redesign: same trace,
        // same expression, compiled vs interpreted → identical outcomes
        let ids: Vec<u64> = (0..20_000u64).map(|i| (i * 2654435761) % 400).collect();
        for src in [
            "obj.count * 20 - obj.age / 300 - obj.size / 500",
            "if(hist.contains, hist.count * 10 + 50, 0) + obj.last_access",
            "if(obj.size > sizes.p75, 0 - obj.age, obj.count * counts.p50)",
        ] {
            let expr = policysmith_dsl::parse(src).unwrap();
            let compiled = PriorityPolicy::from_expr("vm", &expr);
            let oracle = PriorityPolicy::interpreted("interp", expr.clone());
            let a = run_ids(compiled, &ids, 8_000);
            let b = run_ids(oracle, &ids, 8_000);
            assert_eq!(a.result(), b.result(), "engines diverged for `{src}`");
            assert!(a.policy.first_error().is_none());
            assert!(b.policy.first_error().is_none());
        }
    }
}
