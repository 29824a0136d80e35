//! Differential test: the emulated-eBPF host vs the kbpf VM host,
//! decision for decision, on live netsim traces.
//!
//! Both hosts wrap the *same* [`VerifiedCandidate`], fill the context
//! through the same clamping adapter, and apply the same cwnd clamp and
//! fault latch — so every `cong_control` invocation must produce the
//! same window. [`DiffCc`] runs the two engines side by side inside one
//! simulated sender (the kbpf decision drives the trace, so any
//! divergence would also be caught before it could skew the stimulus)
//! and counts disagreements; the suite demands zero across a library of
//! searched-style policies, bpf_cubic/reno-style baselines, and three
//! different link configurations, then property-tests the same claim
//! over random verified expressions.

use policysmith_cc::{
    check_candidate, evaluate_with, CcView, CongestionControl, EbpfCc, KbpfCc, LinkCfg, SimConfig,
};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Default)]
struct DiffStats {
    decisions: u64,
    divergences: u64,
}

/// One simulated sender, two engines: kbpf VM (authoritative) and
/// emulated eBPF (checked against it on every invocation).
struct DiffCc {
    vm: KbpfCc,
    ebpf: EbpfCc,
    stats: Rc<RefCell<DiffStats>>,
}

impl DiffCc {
    fn from_source(src: &str) -> (Self, Rc<RefCell<DiffStats>>) {
        let candidate = check_candidate(src).expect("library policies verify");
        let vm = KbpfCc::new(candidate.clone());
        let ebpf = EbpfCc::new(candidate).expect("library policies emit + model-check");
        let stats = Rc::new(RefCell::new(DiffStats::default()));
        (DiffCc { vm, ebpf, stats: stats.clone() }, stats)
    }

    fn step(&mut self, view: &CcView<'_>, loss: bool) -> u64 {
        let (a, b) = if loss {
            (self.vm.on_loss(view), self.ebpf.on_loss(view))
        } else {
            (self.vm.on_ack(view), self.ebpf.on_ack(view))
        };
        let mut s = self.stats.borrow_mut();
        s.decisions += 1;
        if a != b {
            s.divergences += 1;
        }
        a
    }
}

impl CongestionControl for DiffCc {
    fn name(&self) -> &str {
        "diff:kbpf-vs-ebpf"
    }

    fn on_ack(&mut self, view: &CcView<'_>) -> u64 {
        self.step(view, false)
    }

    fn on_loss(&mut self, view: &CcView<'_>) -> u64 {
        self.step(view, true)
    }
}

/// Searched-style policies (the shapes the synthesis loop produces) plus
/// hand-written kernel-baseline renditions: reno-style AIMD and a
/// bpf_cubic-style multiplicative backoff (beta = 717/1024).
const POLICY_LIBRARY: &[&str] = &[
    "if(loss, max(cwnd >> 1, 2), cwnd + max(acked / max(mss, 1), 1))",
    "clamp(cwnd * srtt / max(min_rtt, 1), 2, 1024)",
    "if(srtt - min_rtt > 15000, max(cwnd - 1, 4), cwnd + 1)",
    "min(cwnd + acked / max(mss, 1), 4096)",
    "if(loss, max(cwnd >> 1, 2), cwnd + 1)",
    "if(loss, max(cwnd * 717 / 1024, 2), cwnd + max(acked / max(mss, 1), 1))",
];

/// Three link shapes: the paper's evaluation link, a short-fat LAN-ish
/// link with a shallow buffer, and a long-thin link with a deep buffer.
fn link_configs() -> Vec<(&'static str, LinkCfg)> {
    vec![
        ("paper-12mbps-20ms", LinkCfg::paper_link()),
        ("fat-48mbps-5ms", LinkCfg { rate_bps: 48_000_000, delay_us: 5_000, queue_bytes: 30_000 }),
        (
            "thin-4mbps-50ms",
            LinkCfg { rate_bps: 4_000_000, delay_us: 50_000, queue_bytes: 100_000 },
        ),
    ]
}

fn run_diff(src: &str, link: LinkCfg, duration_us: u64) -> (DiffStats, u64, u64) {
    let (cc, stats) = DiffCc::from_source(src);
    let vm_faults_ptr = Rc::new(RefCell::new((0u64, 0u64)));
    // evaluate_with consumes the box; smuggle the fault counters out the
    // same way as the stats
    struct Faults(Rc<RefCell<(u64, u64)>>, DiffCc);
    impl CongestionControl for Faults {
        fn name(&self) -> &str {
            self.1.name()
        }
        fn on_ack(&mut self, view: &CcView<'_>) -> u64 {
            let w = self.1.on_ack(view);
            *self.0.borrow_mut() = (self.1.vm.faults, self.1.ebpf.faults);
            w
        }
        fn on_loss(&mut self, view: &CcView<'_>) -> u64 {
            let w = self.1.on_loss(view);
            *self.0.borrow_mut() = (self.1.vm.faults, self.1.ebpf.faults);
            w
        }
    }
    let mut cfg = SimConfig::paper_scenario();
    cfg.link = link;
    cfg.duration_us = duration_us;
    evaluate_with(cfg, Box::new(Faults(vm_faults_ptr.clone(), cc)));
    let (vm_faults, ebpf_faults) = *vm_faults_ptr.borrow();
    let s = stats.borrow();
    (DiffStats { decisions: s.decisions, divergences: s.divergences }, vm_faults, ebpf_faults)
}

#[test]
fn library_policies_agree_on_every_decision_across_link_configs() {
    for src in POLICY_LIBRARY {
        for (label, link) in link_configs() {
            let (stats, vm_faults, ebpf_faults) = run_diff(src, link, 8_000_000);
            assert!(
                stats.decisions > 100,
                "{src} on {label}: only {} decisions — trace too short to mean anything",
                stats.decisions
            );
            assert_eq!(
                stats.divergences, 0,
                "{src} on {label}: {}/{} decisions diverged",
                stats.divergences, stats.decisions
            );
            assert_eq!(vm_faults, 0, "{src} on {label}: kbpf VM faulted");
            assert_eq!(ebpf_faults, 0, "{src} on {label}: emulated eBPF faulted");
        }
    }
}

mod proptest_differential {
    use super::*;
    use policysmith_dsl::{to_source, BinOp, CmpOp, Expr, Feature, Mode};
    use policysmith_kbpf::CompiledPolicy;
    use proptest::prelude::*;

    fn kernel_features() -> Vec<Feature> {
        vec![
            Feature::Cwnd,
            Feature::PrevCwnd,
            Feature::MinRttUs,
            Feature::SrttUs,
            Feature::LastRttUs,
            Feature::InflightPkts,
            Feature::Mss,
            Feature::LossEvent,
            Feature::AckedBytes,
            Feature::Ssthresh,
            Feature::HistRtt(0),
            Feature::HistLoss(1),
        ]
    }

    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (-1_000i64..1_000).prop_map(Expr::int),
            proptest::sample::select(kernel_features()).prop_map(Expr::feat),
        ];
        leaf.prop_recursive(4, 32, 3, |inner| {
            prop_oneof![
                (
                    prop_oneof![
                        Just(BinOp::Add),
                        Just(BinOp::Sub),
                        Just(BinOp::Mul),
                        Just(BinOp::Div),
                        Just(BinOp::Rem),
                        Just(BinOp::Min),
                        Just(BinOp::Max),
                        Just(BinOp::Shl),
                        Just(BinOp::Shr),
                    ],
                    inner.clone(),
                    inner.clone()
                )
                    .prop_map(|(op, a, b)| Expr::bin(op, a, b)),
                (
                    prop_oneof![
                        Just(CmpOp::Lt),
                        Just(CmpOp::Le),
                        Just(CmpOp::Gt),
                        Just(CmpOp::Ge),
                        Just(CmpOp::Eq),
                        Just(CmpOp::Ne),
                    ],
                    inner.clone(),
                    inner.clone()
                )
                    .prop_map(|(op, a, b)| Expr::cmp(op, a, b)),
                (inner.clone(), inner.clone(), inner.clone())
                    .prop_map(|(a, b, c)| Expr::ite(a, b, c)),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random verified kernel policies, emitted and driven through a
        /// real netsim trace against the kbpf VM — zero divergence, zero
        /// faults (the latched-fault path stays dark for verified
        /// programs; its firing behavior is unit-tested in `ebpf_host`).
        #[test]
        fn random_verified_policies_agree_on_netsim_traces(e in arb_expr()) {
            let src = to_source(&e);
            let Ok(candidate) = check_candidate(&src) else { return Ok(()) };
            // re-verify printing round-trips (to_string is the search
            // loop's interchange format)
            prop_assert_eq!(
                CompiledPolicy::compile(&e, Mode::Kernel).is_ok(),
                true
            );
            let vm = KbpfCc::new(candidate.clone());
            let ebpf = match EbpfCc::new(candidate) {
                Ok(cc) => cc,
                // the saturation gate may legitimately refuse genuinely
                // saturating random policies — nothing to compare
                Err(policysmith_cc::OffloadError::Emit(_)) => return Ok(()),
                Err(err) => return Err(TestCaseError::fail(format!("offload failed: {err}"))),
            };
            let stats = Rc::new(RefCell::new(DiffStats::default()));
            let cc = DiffCc { vm, ebpf, stats: stats.clone() };
            let mut cfg = SimConfig::paper_scenario();
            cfg.duration_us = 1_500_000;
            evaluate_with(cfg, Box::new(cc));
            let s = stats.borrow();
            prop_assert!(s.decisions > 0, "trace produced no decisions for {src}");
            prop_assert_eq!(
                s.divergences, 0,
                "{}/{} decisions diverged for {}", s.divergences, s.decisions, src
            );
        }
    }
}
