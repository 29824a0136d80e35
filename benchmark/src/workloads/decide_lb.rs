//! `decide-lb` — op = dispatch decision. `LbEngine::offer` with the
//! default `ExprDispatcher` on a 256-server uniform fleet at ~72 % load:
//! at this width the per-row context fill and the fused batch argmin set
//! the op time, and the engine's event bookkeeping does not.

use super::{finish_trace, reconcile, traced_cycles, untraced_cycles};
use crate::adaptors::{sampled, Recording, TimedDispatcher};
use crate::harness::{measure_setup, run_cycles, OpClock, Outcome, RunCfg, UnitLatency};
use crate::probes;
use crate::spans::Tracer;
use crate::stats::{self, Rng};
use policysmith::dsl::{self, Expr, Mode};
use policysmith::kbpf::CompiledPolicy;
use policysmith::lbsim::dispatch::RoundRobin;
use policysmith::lbsim::workload::{ArrivalProcess, BoundedPareto, WorkloadCfg};
use policysmith::lbsim::{
    sim, Dispatcher, ExprDispatcher, LbEngine, LbMetrics, LbRequest, Scenario, ServerCfg,
};

/// Exact least-work-left plus the request's own demand — the policy the
/// serve workloads deploy too.
pub const POLICY: &str = "server.work_left + req.size * 1000 / server.speed";
const SERVERS: usize = 256;
const REQUESTS: usize = 100_000;
/// Independent arrival draws; unit `u` replays stream `u % STREAMS`. Where
/// the tail of a stream's op latency sits depends on its draw (p99 ranged
/// 3.4–5.6 µs over four seeds), and a run's median unit over several draws
/// depends on the seed far less than any one draw does.
const STREAMS: usize = 4;
/// Requests per timed unit (≈ 4 ms): a pass over a stream is 50 units.
const UNIT_REQUESTS: usize = 2_000;
/// What one cycle of the untraced regions took on the 2-vCPU box (calm) at the
/// commit of `baseline/BENCH_0.json`: it turns `--seconds` into a number of
/// cycles ([`crate::harness::cycles_for`]), the same at every commit.
pub const CYCLE_S: f64 = 1.85;
const VERIFY_SHARE: usize = 20;

pub struct Inputs {
    pub servers: Vec<ServerCfg>,
    /// The first stream: what verification and the quality score replay.
    pub requests: Vec<LbRequest>,
    pub streams: Vec<Vec<LbRequest>>,
    pub expr: Expr,
    pub policy: CompiledPolicy,
}

pub fn compiled(src: &str) -> (Expr, CompiledPolicy) {
    let expr = dsl::parse(src).expect("the workload's policy parses");
    let policy = CompiledPolicy::compile(&expr, Mode::Lb).expect("the workload's policy compiles");
    (expr, policy)
}

/// Uniform speed-4 fleet, Poisson arrivals sized to ~72 % of its capacity
/// (the shape of the repo's own fleet-size sweeps).
pub fn scenario(seed: u64, servers: usize, requests: usize) -> Scenario {
    Scenario {
        name: format!("lb/uniform-{servers}"),
        servers: vec![ServerCfg::new(4, 32); servers],
        workload: WorkloadCfg {
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 488.0 * servers as f64 },
            sizes: BoundedPareto::web_default(),
            n: requests,
        },
        seed,
    }
}

pub fn inputs(seed: u64, servers: usize, requests: usize) -> Inputs {
    let sc = scenario(seed, servers, requests);
    let (expr, policy) = compiled(POLICY);
    let streams: Vec<_> =
        (0..STREAMS as u64).map(|i| sc.clone().with_seed(stats::mix(seed, i)).requests()).collect();
    Inputs { requests: streams[0].clone(), streams, servers: sc.servers, expr, policy }
}

/// What a replay tells its caller as it goes.
enum Done {
    Op,
    /// Unit `index` of the stream, `ops` decisions long.
    Unit {
        index: u32,
        ops: u64,
    },
}

/// Offer `requests` to a fresh engine in units of [`UNIT_REQUESTS`],
/// reporting every decision and every unit; the last unit also drains the
/// engine.
fn replay(
    inp: &Inputs,
    requests: &[LbRequest],
    d: &mut dyn Dispatcher,
    mut on: impl FnMut(Done),
) -> LbMetrics {
    let mut engine = LbEngine::new(&inp.servers);
    let units = requests.chunks(UNIT_REQUESTS);
    let count = units.len();
    for (i, unit) in units.enumerate() {
        for req in unit {
            engine.offer(req, d);
            on(Done::Op);
        }
        if i + 1 == count {
            engine.drain();
        }
        on(Done::Unit { index: i as u32, ops: unit.len() as u64 });
    }
    engine.metrics().clone()
}

/// Offer `requests` to a fresh engine under `policy` with every sampled
/// offer an `lbsim.offer` span (its pick an `lbsim.pick` span inside it)
/// followed by a span-cost probe. Returns the score calls per pick.
pub fn traced_replay(
    tracer: &Tracer,
    servers: &[ServerCfg],
    requests: &[LbRequest],
    policy: &CompiledPolicy,
) -> f64 {
    let mut d = TimedDispatcher::new(ExprDispatcher::new("traced", policy.clone()), tracer);
    let mut engine = LbEngine::new(servers);
    for (i, req) in requests.iter().enumerate() {
        d.on = sampled(i as u64);
        if d.on {
            tracer.set_op(i as u64);
            {
                let _op = tracer.begin("lbsim.offer");
                engine.offer(req, &mut d);
            }
            tracer.probe_cost();
        } else {
            engine.offer(req, &mut d);
        }
    }
    engine.drain();
    d.inner.score_calls() as f64 / d.inner.picks().max(1) as f64
}

fn setup(seed: u64) -> Inputs {
    let inp = inputs(seed, SERVERS, REQUESTS);
    let mut warm = ExprDispatcher::new("warm-up", inp.policy.clone());
    replay(&inp, &inp.requests[..REQUESTS / 10], &mut warm, |_| {});
    inp
}

/// Decisions of the compiled host against its `interpreted(..)` twin on
/// the verification prefix; returns how many differ.
pub fn verify(inp: &Inputs, corrupt: bool) -> u64 {
    let prefix = &inp.requests[..inp.requests.len() / VERIFY_SHARE];
    let mut compiled = Recording::new(ExprDispatcher::new("compiled", inp.policy.clone()));
    let mut twin = Recording::new(ExprDispatcher::interpreted("twin", inp.expr.clone()));
    let (a, b) =
        (replay(inp, prefix, &mut compiled, |_| {}), replay(inp, prefix, &mut twin, |_| {}));
    if corrupt {
        twin.picks[0] ^= 1;
    }
    let mismatches = compiled.picks.iter().zip(&twin.picks).filter(|(x, y)| x != y).count() as u64;
    mismatches + u64::from(mismatches == 0 && a != b)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let setup = measure_setup(!cfg.trace, || setup(cfg.seed));
    let inp = &setup.inputs;
    let n = inp.requests.len() as u64;
    let draws = STREAMS as u64;
    let units_per_stream = REQUESTS.div_ceil(UNIT_REQUESTS) as u32;
    let mut first: Option<LbMetrics> = None;
    // pass `p` replays stream `p % STREAMS`; `on` hears of its decisions
    // and of its units, numbered across the streams
    let mut plain_pass = |out: &mut Outcome, pass: u64, on: &mut dyn FnMut(Done)| {
        let stream = pass as usize % STREAMS;
        let mut d = ExprDispatcher::new("decide", inp.policy.clone());
        let metrics = replay(inp, &inp.streams[stream], &mut d, |done| match done {
            Done::Op => on(Done::Op),
            Done::Unit { index, ops } => {
                on(Done::Unit { index: stream as u32 * units_per_stream + index, ops })
            }
        });
        if d.first_error().is_some() {
            out.failed += n;
        }
        first.get_or_insert(metrics);
    };

    // throughput and CPU from passes that read the clock only between
    // units, latency from passes over the same draws that read it once per
    // op boundary
    let cycles = untraced_cycles(cfg, CYCLE_S);
    let untraced = run_cycles(cycles, draws, |laps, p| {
        plain_pass(&mut out, p, &mut |done| {
            if let Done::Unit { index, ops } = done {
                laps.lap(index, ops);
            }
        })
    });
    let mut clock = OpClock::new(stats::clock_cost_ns());
    let mut latency = UnitLatency::new();
    let clocked = run_cycles(cycles, draws, |laps, p| {
        clock.start();
        plain_pass(&mut out, p, &mut |done| match done {
            Done::Op => clock.tick(),
            Done::Unit { index, ops } => {
                latency.push_hist(index, &clock.take());
                laps.lap(index, ops);
                clock.start();
            }
        })
    });
    out.attempted = untraced.ops() + clocked.ops();
    out.end_to_end(setup.seconds, &untraced, &latency);

    if cfg.trace {
        let tracer = Tracer::default();
        let cost = Tracer::calibrate();
        let mut calls_per_pick = 0.0;
        let traced = run_cycles(traced_cycles(cfg, CYCLE_S), draws, |laps, p| {
            let stream = p as usize % STREAMS;
            calls_per_pick =
                traced_replay(&tracer, &inp.servers, &inp.streams[stream], &inp.policy);
            laps.lap(stream as u32, n);
        });
        out.attempted += traced.ops();
        let layers = finish_trace(cfg, &tracer, cost);
        let (offer, pick) = (layers["lbsim.offer"], layers["lbsim.pick"]);
        let ops = offer.count as f64;
        let offer_ns = (offer.self_ns + pick.self_ns) / ops;
        out.set("lbsim.offer_ns", offer_ns);
        out.set("lbsim.pick_ns", pick.self_ns / ops);
        out.set("lbsim.engine_self_ns", offer.self_ns / ops);
        out.set("lbsim.score_calls_per_pick", calls_per_pick);
        reconcile(&mut out, offer_ns, &untraced, &traced);

        let mut rng = Rng::new(cfg.seed).fork(0x1b);
        probes::kbpf_run(&mut out, &inp.policy, &mut rng);
        probes::dsl_eval(&mut out, &inp.expr, &mut rng);
        // the host's share of a pick: what is left after the fused batch
        // call on as many rows as the fleet has servers
        let batch_ns = out.values["kbpf.batch_ns_per_row_n256"] * SERVERS as f64;
        out.set("lbsim.pick_host_self_ns", (pick.self_ns / ops - batch_ns).max(0.0));
    }

    out.failed += verify(inp, cfg.corrupt);
    let rr = sim::run(&inp.servers, &inp.requests, &mut RoundRobin::new()).mean_slowdown();
    let deployed = first.expect("at least one pass ran").mean_slowdown();
    out.set("quality_score", (rr - deployed) / rr.max(1e-9));
    out
}
