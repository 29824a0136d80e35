//! Criterion: DSL interpreter vs compiled kbpf execution for all three
//! template modes (the per-decision cost every host pays), plus verifier
//! and compiler cost (the per-candidate Checker overhead). The workload
//! table is `policysmith_bench::vm_workloads`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use policysmith_bench::{vm_workloads, SliceEnv};
use policysmith_dsl::{eval, parse};
use policysmith_kbpf::{lower, CompiledPolicy, CtxLayout, SPILL_SLOTS};

fn bench_dsl_vm(c: &mut Criterion) {
    for (label, mode, src, values) in vm_workloads() {
        let env = SliceEnv(values);
        let expr = parse(src).unwrap();
        let policy = CompiledPolicy::compile(&expr, mode).unwrap();

        c.bench_function(&format!("dsl/interpret/{label}"), |b| {
            b.iter(|| eval(&expr, &env).unwrap())
        });
        c.bench_function(&format!("kbpf/execute/{label}"), |b| {
            // steady-state host shape: refill the reusable slab, run the VM
            let mut ctx = Vec::with_capacity(policy.layout().len());
            let mut map = vec![0i64; SPILL_SLOTS];
            b.iter(|| policy.run_with_env(&env, &mut ctx, &mut map).unwrap())
        });
    }

    // per-candidate Checker overhead on the cc expression
    let (_, mode, src, _) = vm_workloads()[0];
    let expr = parse(src).unwrap();
    c.bench_function("kbpf/compile+verify", |b| {
        b.iter(|| CompiledPolicy::compile(&expr, mode).unwrap())
    });

    // the lowerer alone over the three workloads; the element count is the
    // instructions it emits, so the line shows its output size (elements =
    // time × rate) as well as its speed
    let sources: Vec<_> = vm_workloads()
        .into_iter()
        .map(|(_, mode, src, _)| {
            let expr = parse(src).unwrap();
            let layout = CtxLayout::for_expr(&expr, mode);
            (expr, layout)
        })
        .collect();
    let lower_all =
        || sources.iter().map(|(e, l)| lower::compile(e, l).unwrap().len()).sum::<usize>();
    let mut g = c.benchmark_group("dsl_vm");
    g.throughput(Throughput::Elements(lower_all() as u64));
    g.bench_function("lowered-insns", |b| b.iter(lower_all));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_dsl_vm
}
criterion_main!(benches);
