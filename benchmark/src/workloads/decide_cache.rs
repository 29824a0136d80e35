//! `decide-cache` — op = cache request. The deployed cache hot path at 1 %
//! of the trace's footprint: roughly one victim per miss, so heap churn
//! and eviction-history upkeep dominate, the opposite regime to the 10 %
//! caches `search-cache` evaluates on.

use super::{finish_trace, reconcile, traced_cycles, untraced_cycles, Layers};
use crate::adaptors::{sampled, TimedPolicy, SAMPLE_EVERY, SAMPLE_RUN};
use crate::harness::{measure_setup, run_cycles, OpClock, Outcome, RunCfg, UnitLatency};
use crate::probes;
use crate::spans::Tracer;
use crate::stats::{self, Rng};
use policysmith::cachesim::{self, policies::Fifo, Cache, Policy, PriorityPolicy, SimResult};
use policysmith::dsl::{self, Expr, Mode};
use policysmith::kbpf::CompiledPolicy;
use policysmith::traces::{self, Trace};
use std::time::Instant;

/// History- and aggregate-reading priority expression (the cache row of
/// the repo's interpreter-vs-VM workload table).
pub const POLICY: &str = "if(hist.contains, hist.count * 20 + 100, 0) \
     + obj.count * 30 - obj.age / 300 - obj.size / 500 \
     + if(obj.size > sizes.p75, 0 - 50, 10)";
/// CloudPhysics-style parameter draw the trace is synthesized from.
const CONTEXT: usize = 89;
const REQUESTS: usize = 600_000;
/// Requests per timed unit (≈ 3 ms): a pass over the trace is 60 units.
const UNIT_REQUESTS: usize = 10_000;
/// What one cycle of the untraced regions took on the 2-vCPU box (calm) at the
/// commit of `baseline/BENCH_0.json`: it turns `--seconds` into a number of
/// cycles ([`crate::harness::cycles_for`]), the same at every commit.
pub const CYCLE_S: f64 = 0.42;
/// Share of the stream replayed through the interpreter twin.
const VERIFY_SHARE: usize = 20;

pub struct Inputs {
    pub trace: Trace,
    pub capacity: u64,
    pub expr: Expr,
    pub policy: CompiledPolicy,
    pub synth_ns_per_request: f64,
}

pub fn inputs(seed: u64, requests: usize) -> Inputs {
    let params = traces::cloudphysics().params(CONTEXT);
    let t0 = Instant::now();
    let trace = traces::generate("decide-cache", &params, seed, requests);
    let synth_ns_per_request = t0.elapsed().as_nanos() as f64 / requests as f64;
    let capacity = (traces::footprint_bytes(&trace) / 100).max(1);
    let expr = dsl::parse(POLICY).expect("the workload's policy parses");
    let policy =
        CompiledPolicy::compile(&expr, Mode::Cache).expect("the workload's policy compiles");
    Inputs { trace, capacity, expr, policy, synth_ns_per_request }
}

fn setup(seed: u64) -> Inputs {
    let inp = inputs(seed, REQUESTS);
    let mut warm = Cache::new(inp.capacity, PriorityPolicy::from_expr("warm-up", &inp.expr));
    for req in &inp.trace.requests[..REQUESTS / 10] {
        warm.request(req);
    }
    inp
}

/// Ops of a pass that count as failed: all of them once the host's fault
/// latch tripped (decisions after it are the fallback's, not the policy's).
fn latched(cache: &Cache<PriorityPolicy>, ops: u64) -> u64 {
    if cache.policy.first_error().is_some() {
        ops
    } else {
        0
    }
}

/// Hit/miss of every request of `requests` under `policy`.
fn decisions<P: Policy>(inp: &Inputs, n: usize, policy: P) -> (Vec<bool>, SimResult) {
    let mut cache = Cache::new(inp.capacity, policy);
    let hits = inp.trace.requests[..n].iter().map(|r| cache.request(r)).collect();
    (hits, cache.result())
}

/// Compiled host against its `interpreted(..)` twin on the verification
/// prefix; returns the number of requests they disagree on.
pub fn verify(inp: &Inputs, corrupt: bool) -> u64 {
    let n = inp.trace.len() / VERIFY_SHARE;
    let (compiled, a) = decisions(inp, n, PriorityPolicy::from_expr("compiled", &inp.expr));
    let (mut reference, b) =
        decisions(inp, n, PriorityPolicy::interpreted("twin", inp.expr.clone()));
    if corrupt {
        reference[0] = !reference[0];
    }
    let mismatches = compiled.iter().zip(&reference).filter(|(x, y)| x != y).count() as u64;
    mismatches + u64::from(mismatches == 0 && a != b)
}

/// What one traced pass counted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassCounts {
    pub result: SimResult,
    /// Policy callbacks over the whole pass.
    pub calls: u64,
    /// Requests whose policy callbacks were timed, and the mean time those
    /// callbacks took per such request.
    pub callback_ops: u64,
    pub policy_ns: f64,
}

/// One traced pass over `trace`. Sampled runs of requests alternate
/// between two kinds, so that neither measurement pays for the other's
/// clock reads (four timed callbacks cost about as much as the 300 ns
/// request they sit in): in one kind each request is a childless
/// `cachesim.request` span, in the other each policy callback is timed
/// and becomes a `cachesim.policy` span, and the request itself is not.
pub fn traced_pass<P: Policy>(
    tracer: &Tracer,
    trace: &Trace,
    capacity: u64,
    host: P,
    clock_ns: f64,
) -> PassCounts {
    let mut cache = Cache::new(capacity, TimedPolicy::new(host, tracer));
    let mut callback_ops = 0;
    for (i, req) in trace.requests.iter().enumerate() {
        let i = i as u64;
        if !sampled(i) {
            cache.policy.on = false;
            cache.request(req);
            continue;
        }
        tracer.set_op(i);
        let whole_request = (i / (SAMPLE_RUN * SAMPLE_EVERY)).is_multiple_of(2);
        cache.policy.on = !whole_request;
        if whole_request {
            {
                let _op = tracer.begin("cachesim.request");
                cache.request(req);
            }
            tracer.probe_cost();
        } else {
            callback_ops += 1;
            cache.request(req);
            cache.policy.flush();
        }
    }
    PassCounts {
        result: cache.result(),
        calls: cache.policy.calls,
        callback_ops,
        policy_ns: cache.policy.ns_per_request(callback_ops, clock_ns),
    }
}

/// `cachesim.*` from the `cachesim.request` spans, the callbacks' mean
/// time per request, and the exact counts of one pass. Returns the
/// request time, ns.
pub fn cachesim_metrics(
    out: &mut Outcome,
    layers: &Layers,
    pass: PassCounts,
    policy_ns: f64,
) -> f64 {
    let op = layers["cachesim.request"];
    let request_ns = op.self_ns / op.count as f64;
    out.set("cachesim.request_ns", request_ns);
    out.set("cachesim.policy_ns", policy_ns);
    out.set("cachesim.engine_self_ns", (request_ns - policy_ns).max(0.0));
    let n = pass.result.requests as f64;
    out.set("cachesim.evictions_per_request", pass.result.evictions as f64 / n);
    out.set("cachesim.hit_share", pass.result.hits as f64 / n);
    out.set("cachesim.policy_calls_per_request", pass.calls as f64 / n);
    request_ns
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let setup = measure_setup(!cfg.trace, || setup(cfg.seed));
    let inp = &setup.inputs;
    let n = inp.trace.len() as u64;
    let mut first: Option<SimResult> = None;
    let fresh = || Cache::new(inp.capacity, PriorityPolicy::from_expr("decide", &inp.expr));
    let units = || inp.trace.requests.chunks(UNIT_REQUESTS).enumerate();

    // throughput and CPU from passes that read the clock only between units …
    let cycles = untraced_cycles(cfg, CYCLE_S);
    let untraced = run_cycles(cycles, 1, |laps, _| {
        let mut cache = fresh();
        laps.start();
        for (kind, unit) in units() {
            for req in unit {
                cache.request(req);
            }
            laps.lap(kind as u32, unit.len() as u64);
        }
        out.failed += latched(&cache, n);
        first.get_or_insert(cache.result());
    });
    // … latency from passes over the same inputs that read it once per op
    // boundary
    let mut clock = OpClock::new(stats::clock_cost_ns());
    let mut latency = UnitLatency::new();
    let clocked = run_cycles(cycles, 1, |laps, _| {
        let mut cache = fresh();
        for (kind, unit) in units() {
            clock.start();
            for req in unit {
                cache.request(req);
                clock.tick();
            }
            latency.push_hist(kind as u32, &clock.take());
            laps.lap(kind as u32, unit.len() as u64);
        }
        out.failed += latched(&cache, n);
    });
    out.attempted = untraced.ops() + clocked.ops();
    out.end_to_end(setup.seconds, &untraced, &latency);

    if cfg.trace {
        let tracer = Tracer::default();
        let cost = Tracer::calibrate();
        let clock_ns = stats::clock_cost_ns();
        let mut passes = Vec::new();
        let traced = run_cycles(traced_cycles(cfg, CYCLE_S), 1, |laps, _| {
            let host = PriorityPolicy::from_expr("decide", &inp.expr);
            passes.push(traced_pass(&tracer, &inp.trace, inp.capacity, host, clock_ns));
            laps.lap(0, n);
        });
        out.attempted += traced.ops();
        let layers = finish_trace(cfg, &tracer, cost);
        let policy_ns = stats::median(&passes.iter().map(|p| p.policy_ns).collect::<Vec<_>>());
        let request_ns = cachesim_metrics(&mut out, &layers, passes[0], policy_ns);
        reconcile(&mut out, request_ns, &untraced, &traced);

        let mut rng = Rng::new(cfg.seed).fork(0x9b0b);
        probes::kbpf_run(&mut out, &inp.policy, &mut rng);
        probes::dsl_eval(&mut out, &inp.expr, &mut rng);
        out.set("traces.synth_ns_per_request", inp.synth_ns_per_request);
    }

    out.failed += verify(inp, cfg.corrupt);
    let fifo = cachesim::simulate(&inp.trace, inp.capacity, Fifo::new()).miss_ratio();
    let deployed = first.expect("at least one pass ran").miss_ratio();
    out.set("quality_score", (fifo - deployed) / fifo.max(1e-9));
    out
}
