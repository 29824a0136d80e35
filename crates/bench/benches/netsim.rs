//! Criterion: emulated-link event throughput in the simulator's three
//! regimes — an ordinary window (a Reno flow on the paper link), a window
//! held at `MAX_CWND` (what a verifier-accepted `cwnd * 2` costs the
//! search), and several bursty flows under a queue-managing bottleneck.

use criterion::{criterion_group, criterion_main, Criterion};
use policysmith_aqmsim::{run_baseline, scenario};
use policysmith_cc::{baselines::Reno, evaluate, CcView, CongestionControl};

/// Holds the window wherever it is told to.
struct FixedCc(u64);
impl CongestionControl for FixedCc {
    fn name(&self) -> &str {
        "fixed"
    }
    fn on_ack(&mut self, _v: &CcView<'_>) -> u64 {
        self.0
    }
    fn on_loss(&mut self, _v: &CcView<'_>) -> u64 {
        self.0
    }
}

fn bench_netsim(c: &mut Criterion) {
    c.bench_function("netsim/reno-5s-paper-link", |b| {
        b.iter(|| evaluate(Box::new(Reno::new()), 5_000_000))
    });
    c.bench_function("netsim/exploder-0.1s", |b| {
        b.iter(|| evaluate(Box::new(FixedCc(1 << 20)), 100_000))
    });
    let bursty = scenario::bursty();
    c.bench_function("netsim/aqm-bursty-10s-droptail", |b| {
        b.iter(|| run_baseline(&bursty, "drop-tail"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_netsim
}
criterion_main!(benches);
