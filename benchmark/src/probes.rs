//! Layer probes: direct, timed calls into one layer's public functions on
//! the workload's own policy and seeded in-range inputs. They run after
//! the timed regions of a traced run and fill the per-layer metrics a
//! wrapper cannot see (the VM inside a host, the stages inside
//! `CompiledPolicy::compile`).

use crate::harness::Outcome;
use crate::stats::{self, Rng};
use policysmith::dsl::{self, Expr, Feature, FeatureEnv, Mode};
use policysmith::ebpf;
use policysmith::kbpf::{
    self, lower, BatchCtx, BatchScratch, CompiledPolicy, CtxLayout, VerifyError, SPILL_SLOTS,
};
use policysmith::obs::{self, ring, MetricsRegistry, TraceKind};
use policysmith::serve::PolicyCell;
use std::hint::black_box;
use std::time::Instant;

/// Feature values by linear scan, like the hosts' own `match`-based
/// environments; unset features read 0.
pub struct SliceEnv(pub Vec<(Feature, i64)>);

impl FeatureEnv for SliceEnv {
    fn feature(&self, f: Feature) -> i64 {
        self.0.iter().find(|(g, _)| *g == f).map(|(_, v)| *v).unwrap_or(0)
    }
}

/// A value inside `f`'s declared range: near the low edge, anywhere, or
/// near the high edge, so small divisors and saturating products both
/// occur.
pub fn in_range_value(f: Feature, rng: &mut Rng) -> i64 {
    let (lo, hi) = f.range();
    match rng.below(3) {
        0 => rng.in_range(lo, hi.min(lo.saturating_add(16))),
        1 => rng.in_range(lo, hi),
        _ => rng.in_range(lo.max(hi.saturating_sub(16)), hi),
    }
}

/// A seeded environment covering exactly the features `features` names.
pub fn seeded_env(features: &[Feature], rng: &mut Rng) -> SliceEnv {
    SliceEnv(features.iter().map(|&f| (f, in_range_value(f, rng))).collect())
}

/// Mean ns per call of `f`: a tenth of `iters` untimed, then the median of
/// five timed batches.
pub fn ns_per_call<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..(iters / 10).max(1) {
        black_box(f());
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&batches)
}

/// `kbpf.run_*` and `kbpf.batch_*`: the scalar VM and the fused batch
/// argmin on `policy`, over seeded contexts.
pub fn kbpf_run(out: &mut Outcome, policy: &CompiledPolicy, rng: &mut Rng) {
    let layout = policy.layout();
    let ctxs: Vec<Vec<i64>> = (0..64)
        .map(|_| {
            let mut buf = Vec::new();
            layout.fill(&seeded_env(layout.features(), rng), &mut buf);
            buf
        })
        .collect();
    let mut map = vec![0i64; SPILL_SLOTS];
    let (mut i, mut faults, mut runs) = (0usize, 0u64, 0u64);
    let run_ns = ns_per_call(200_000, || {
        i = (i + 1) % ctxs.len();
        runs += 1;
        let r = policy.run(&ctxs[i], &mut map);
        faults += r.is_err() as u64;
        r
    });
    out.set("kbpf.run_ns", run_ns);
    out.set_ratio("kbpf.run_ns_per_insn", run_ns, policy.program().insns.len() as f64);
    out.set("kbpf.vm_fault_share", faults as f64 / runs as f64);
    out.set("kbpf.batch_columnar_share", f64::from(policy.batch_plan().vectorizable));

    for (name, rows) in
        [("kbpf.batch_ns_per_row_n16", 16usize), ("kbpf.batch_ns_per_row_n256", 256)]
    {
        let mut batch = BatchCtx::with_rows(layout.len(), rows);
        for (col, &f) in layout.features().iter().enumerate() {
            for cell in batch.column_mut(col) {
                // divisors stay away from the low edge so no row faults
                *cell = in_range_value(f, rng).max(1);
            }
        }
        let mut scratch = BatchScratch::new();
        let iters = (2_000_000 / rows) as u32;
        let ns =
            ns_per_call(iters, || policy.run_batch_argmin(&batch, &mut scratch, &mut map).ok());
        out.set(name, ns / rows as f64);
    }
}

/// `dsl.eval_ns`: the reference interpreter on `expr`.
pub fn dsl_eval(out: &mut Outcome, expr: &Expr, rng: &mut Rng) {
    let env = seeded_env(&expr.features(), rng);
    out.set("dsl.eval_ns", ns_per_call(200_000, || dsl::eval(expr, &env).ok()));
}

/// `dsl.*` and `kbpf.compile_*`: every stage of the compile-once pipeline
/// timed on its own over `sources`, by calling the stage functions
/// `CompiledPolicy::compile` is made of.
pub fn compile_split(out: &mut Outcome, sources: &[(Mode, String)], clock_ns: f64) {
    #[derive(Default)]
    struct Stage {
        ns: f64,
        calls: u64,
    }
    impl Stage {
        fn time<R>(&mut self, clock_ns: f64, f: impl FnOnce() -> R) -> R {
            let t0 = Instant::now();
            let r = f();
            self.ns += (t0.elapsed().as_nanos() as f64 - clock_ns).max(0.0);
            self.calls += 1;
            r
        }
        fn mean(&self) -> f64 {
            self.ns / self.calls.max(1) as f64
        }
    }
    let (mut parse, mut check, mut lower, mut verify, mut whole) =
        (Stage::default(), Stage::default(), Stage::default(), Stage::default(), Stage::default());
    let (mut nodes, mut insns, mut programs, mut verify_rejects) = (0u64, 0u64, 0u64, 0u64);
    for (mode, src) in sources {
        let Ok(expr) = parse.time(clock_ns, || dsl::parse(src)) else { continue };
        nodes += expr.size() as u64;
        black_box(whole.time(clock_ns, || CompiledPolicy::compile(&expr, *mode)).is_ok());
        let (max_size, max_depth) = kbpf::mode_budgets(*mode);
        let report =
            check.time(clock_ns, || dsl::check_with_warnings(&expr, *mode, max_size, max_depth));
        if !report.ok() {
            continue;
        }
        let Ok((layout, program)) = lower.time(clock_ns, || {
            let layout = CtxLayout::for_expr(&expr, *mode);
            lower::compile(&expr, &layout).map(|p| (layout, p))
        }) else {
            continue;
        };
        programs += 1;
        insns += program.insns.len() as u64;
        match verify.time(clock_ns, || kbpf::verify(&program, &layout.verify_env())) {
            Ok(_) => {}
            // userspace templates defer an unprovable division to the host
            Err(VerifyError::DivByZeroPossible { .. }) if *mode != Mode::Kernel => {}
            Err(_) => verify_rejects += 1,
        }
    }
    if parse.calls == 0 {
        return;
    }
    out.set("dsl.parse_ns", parse.mean());
    out.set("dsl.parse_reject_share", (parse.calls - check.calls) as f64 / parse.calls as f64);
    if check.calls > 0 {
        out.set("dsl.check_ns", check.mean());
        out.set("dsl.nodes_per_source", nodes as f64 / check.calls as f64);
        out.set("kbpf.compile_ns", whole.mean());
    }
    if programs > 0 {
        out.set("kbpf.lower_ns", lower.mean());
        out.set("kbpf.verify_ns", verify.mean());
        out.set("kbpf.insns_per_program", insns as f64 / programs as f64);
        out.set("kbpf.verify_reject_share", verify_rejects as f64 / programs as f64);
    }
}

/// What [`ebpf_split`] found wrong.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EbpfFindings {
    pub emitted: u64,
    pub refused: u64,
    /// Emitted programs the model verifier rejected.
    pub check_failures: u64,
    /// Emitted programs whose interpreter result differs from the VM's.
    pub divergences: u64,
}

/// `ebpf.*`: emit → model-check → interpret every verified Kernel policy,
/// holding the emulated result to the kbpf VM's on a seeded context.
pub fn ebpf_split(
    out: Option<&mut Outcome>,
    policies: &[CompiledPolicy],
    rng: &mut Rng,
    clock_ns: f64,
) -> EbpfFindings {
    let mut found = EbpfFindings::default();
    let (mut emit_ns, mut check_ns, mut interp_ns, mut insns) = (0.0, 0.0, 0.0, 0u64);
    let timed =
        |acc: &mut f64, t0: Instant| *acc += (t0.elapsed().as_nanos() as f64 - clock_ns).max(0.0);
    let mut map = vec![0i64; SPILL_SLOTS];
    for policy in policies.iter().filter(|p| p.mode() == Mode::Kernel) {
        let t0 = Instant::now();
        let emitted = ebpf::emit_policy(policy);
        timed(&mut emit_ns, t0);
        let Ok(prog) = emitted else {
            found.refused += 1;
            continue;
        };
        found.emitted += 1;
        insns += prog.len() as u64;
        let t0 = Instant::now();
        let checked = ebpf::model_check(&prog);
        timed(&mut check_ns, t0);
        found.check_failures += checked.is_err() as u64;
        let mut ctx = Vec::new();
        policy.layout().fill(&seeded_env(policy.layout().features(), rng), &mut ctx);
        let t0 = Instant::now();
        let offloaded = ebpf::interp::run(&prog, &ctx);
        timed(&mut interp_ns, t0);
        found.divergences += (offloaded.ok() != policy.run(&ctx, &mut map).ok()) as u64;
    }
    if let Some(out) = out {
        let attempts = (found.emitted + found.refused) as f64;
        out.set_ratio("ebpf.emit_ns", emit_ns, attempts);
        out.set_ratio("ebpf.emit_refuse_share", found.refused as f64, attempts);
        out.set_ratio("ebpf.model_check_ns", check_ns, found.emitted as f64);
        out.set_ratio("ebpf.interp_ns", interp_ns, found.emitted as f64);
        out.set_ratio("ebpf.insns_per_program", insns as f64, found.emitted as f64);
        if attempts > 0.0 {
            out.set("ebpf.divergences", found.divergences as f64);
        }
    }
    found
}

/// `obs.*`: what one instrumentation write, ring hop, lifecycle event and
/// registry snapshot cost.
pub fn obs_costs(out: &mut Outcome) {
    // the workload's own events first: the emit probe below floods the log
    out.set("obs.trace_overwritten", obs::trace::global().dropped() as f64);

    let mut reg = MetricsRegistry::new(2);
    let counter = reg.counter("probe.counter");
    let hist = reg.histogram("probe.hist");
    let shard = reg.shard(0);
    out.set("obs.counter_add_ns", ns_per_call(2_000_000, || shard.add(counter, 1)));
    let mut ns = 100u64;
    out.set(
        "obs.hist_record_ns",
        ns_per_call(2_000_000, || {
            ns = ns.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            shard.record(hist, ns >> 44);
        }),
    );
    out.set("obs.snapshot_us", ns_per_call(2_000, || reg.snapshot()) / 1_000.0);

    let (mut tx, mut rx) = ring::spsc::<u64>(1_024);
    out.set(
        "obs.ring_roundtrip_ns",
        ns_per_call(2_000_000, || {
            let _ = tx.push(7);
            rx.pop()
        }),
    );
    let mut round = 0usize;
    out.set(
        "obs.trace_emit_ns",
        ns_per_call(200_000, || {
            round += 1;
            obs::emit(TraceKind::SearchRoundStart { round });
        }),
    );
}

/// `serve.pin_ns` / `serve.publish_ns`: the hot-swap cell's reader and
/// writer paths with `policy` as the published value.
pub fn serve_cell(out: &mut Outcome, policy: &CompiledPolicy) {
    let cell = PolicyCell::new(policy.clone(), 2);
    let mut reader = cell.register();
    out.set("serve.pin_ns", ns_per_call(1_000_000, || reader.pin().layout().len()));
    // values are built outside the clock: publish takes them by value
    let mut fresh: Vec<CompiledPolicy> = (0..5_000).map(|_| policy.clone()).collect();
    let t0 = Instant::now();
    let n = fresh.len();
    while let Some(p) = fresh.pop() {
        cell.publish(p, "probe");
    }
    out.set("serve.publish_ns", t0.elapsed().as_nanos() as f64 / n as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str, mode: Mode) -> CompiledPolicy {
        CompiledPolicy::compile(&dsl::parse(src).unwrap(), mode).unwrap()
    }

    #[test]
    fn seeded_values_stay_inside_declared_ranges() {
        let mut rng = Rng::new(3);
        for mode in Mode::ALL {
            for f in Feature::catalog(mode) {
                for _ in 0..50 {
                    let (lo, hi) = f.range();
                    let v = in_range_value(f, &mut rng);
                    assert!((lo..=hi).contains(&v), "{f:?}: {v} outside [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn compile_split_counts_rejections_by_stage() {
        let sources = vec![
            (Mode::Lb, "server.queue_len + 1".to_string()),
            (Mode::Lb, "server.queue_len +".to_string()), // parse
            (Mode::Lb, "server.queue_len * 1.5".to_string()), // check
            (Mode::Kernel, "cwnd / inflight".to_string()), // verify (kernel)
            (Mode::Lb, "1000 / server.queue_len".to_string()), // deferred, not a reject
        ];
        let mut out = Outcome::default();
        compile_split(&mut out, &sources, 0.0);
        assert_eq!(out.values["dsl.parse_reject_share"], 0.2);
        assert_eq!(out.values["kbpf.verify_reject_share"], 1.0 / 3.0);
        assert!(out.values["kbpf.insns_per_program"] > 1.0);
        for stage in
            ["dsl.parse_ns", "dsl.check_ns", "kbpf.lower_ns", "kbpf.verify_ns", "kbpf.compile_ns"]
        {
            assert!(out.values[stage] > 0.0, "{stage}");
        }
    }

    #[test]
    fn ebpf_split_agrees_with_the_vm_on_real_policies() {
        let policies = vec![
            compiled(policysmith::cc::synth::EXAMPLE_AIMD, Mode::Kernel),
            compiled("server.queue_len", Mode::Lb), // not a kernel policy: skipped
        ];
        let mut out = Outcome::default();
        let found = ebpf_split(Some(&mut out), &policies, &mut Rng::new(1), 0.0);
        assert_eq!(found, EbpfFindings { emitted: 1, ..EbpfFindings::default() });
        assert_eq!(out.values["ebpf.divergences"], 0.0);
        assert!(out.values["ebpf.insns_per_program"] > 1.0);
    }
}
