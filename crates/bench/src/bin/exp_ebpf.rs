//! KERNEL OFFLOAD: every policy the search produces, carried all the way
//! to an eBPF artifact and held to the kbpf VM's decisions.
//!
//! The paper deploys synthesized congestion control as a `struct_ops`
//! eBPF program; this experiment regenerates that pipeline end to end in
//! userspace and records what it proves:
//!
//! 1. Run a small kernel-mode search (`CcStudy` + `MockLlm`) and collect
//!    the distinct verified policies it scored — the *searched library* —
//!    plus hand-written reno-style and bpf_cubic-style baselines.
//! 2. For each policy: emit raw eBPF (`policysmith_ebpf::emit_policy`),
//!    re-prove the artifact with the model verifier, and record emit
//!    sizes (kbpf vs eBPF instruction counts, image bytes, stack frame)
//!    and verifier statistics (reachable insns, branches, proved r0
//!    bounds).
//! 3. Drive the kbpf VM host and the emulated-eBPF host side by side on
//!    three netsim link configurations and demand decision-for-decision
//!    equality with zero faults.
//! 4. Render the best searched policy as a compilable struct_ops C
//!    translation unit (`results/ebpf_best_policy.c`) — CI build-checks
//!    it with the container's C compiler when one is present.
//!
//! Exit status doubles as the CI guard: 1 if any library policy fails to
//! emit, fails the model verifier, or ever disagrees with the VM.
//!
//! Usage: `exp_ebpf [--fast|--quick] [--seed N]`

use policysmith_bench::{exit_on_violations, write_json, ExpOpts};
use policysmith_cc::{
    check_candidate, evaluate_with, CcView, CongestionControl, EbpfCc, KbpfCc, LinkCfg, SimConfig,
};
use policysmith_core::search::{run_search, SearchConfig};
use policysmith_core::studies::cc::CcStudy;
use policysmith_ebpf::render_struct_ops;
use policysmith_gen::{GenConfig, MockLlm};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Hand-written kernel baselines, in the DSL: reno-style halving and a
/// bpf_cubic-style multiplicative backoff (beta = 717/1024).
const BASELINES: &[(&str, &str)] = &[
    ("reno_style", "if(loss, max(cwnd >> 1, 2), cwnd + max(acked / max(mss, 1), 1))"),
    ("cubic_style", "if(loss, max(cwnd * 717 / 1024, 2), cwnd + max(acked / max(mss, 1), 1))"),
];

/// The three link shapes the decision-equality claim is checked on.
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

/// `(decisions, divergences, faults)` — shared with `main` because
/// `evaluate_with` consumes its controller.
type DiffCounters = Rc<RefCell<(u64, u64, u64)>>;

/// Both hosts on one simulated sender; counts decisions, divergences,
/// and faults into shared counters.
struct DiffCc {
    vm: KbpfCc,
    ebpf: EbpfCc,
    counters: DiffCounters,
}

impl DiffCc {
    fn step(&mut self, view: &CcView<'_>, loss: bool) -> u64 {
        let (a, b) = if loss {
            (self.vm.on_loss(view), self.ebpf.on_loss(view))
        } else {
            (self.vm.on_ack(view), self.ebpf.on_ack(view))
        };
        let mut c = self.counters.borrow_mut();
        c.0 += 1;
        c.1 += (a != b) as u64;
        c.2 = self.vm.faults + self.ebpf.faults;
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

struct Row {
    label: String,
    source: String,
    kbpf_insns: usize,
    ebpf_insns: usize,
    ebpf_bytes: usize,
    stack_bytes: usize,
    check_reachable: usize,
    check_branches: usize,
    r0_lo: i64,
    r0_hi: i64,
    decisions: u64,
    divergences: u64,
    faults: u64,
}

fn main() {
    let opts = ExpOpts::from_args();
    let (rounds, cpr, sim_us) = if opts.fast { (3, 6, 3_000_000) } else { (6, 10, 8_000_000) };

    // 1. The searched library: one small kernel-mode search; every
    //    distinct policy it verified and scored is a deployment candidate.
    let study = CcStudy::with_duration(if opts.fast { 2_000_000 } else { 5_000_000 });
    let mut llm = MockLlm::new(GenConfig::kernel_defaults(opts.seed));
    let cfg = SearchConfig { rounds, candidates_per_round: cpr, ..SearchConfig::quick() };
    let outcome = run_search(&study, &mut llm, &cfg);

    let mut seen = BTreeSet::new();
    let mut library: Vec<(String, String)> = Vec::new();
    for s in &outcome.all {
        if seen.insert(s.source.clone()) {
            library.push((format!("searched_{}", library.len()), s.source.clone()));
        }
    }
    let searched = library.len();
    for (label, src) in BASELINES {
        library.push((label.to_string(), src.to_string()));
    }
    println!(
        "offloading {} policies ({} searched + {} baselines) across {} link configs",
        library.len(),
        searched,
        BASELINES.len(),
        link_configs().len()
    );

    // 2+3. Emit, model-check, and differentially execute every policy.
    let mut rows: Vec<Row> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for (label, src) in &library {
        let candidate = match check_candidate(src) {
            Ok(c) => c,
            Err(e) => {
                // outcome.all only contains checker-approved sources
                violations.push(format!("{label}: searched policy no longer verifies: {e}"));
                continue;
            }
        };
        let kbpf_insns = candidate.program().insns.len();
        let ebpf = match EbpfCc::new(candidate.clone()) {
            Ok(cc) => cc,
            Err(e) => {
                violations.push(format!("{label}: offload refused: {e}  [{src}]"));
                continue;
            }
        };
        let prog = ebpf.program();
        let stats = ebpf.check_stats();
        let (ebpf_insns, ebpf_bytes, stack_bytes) = (prog.len(), prog.byte_len(), prog.stack_bytes);
        drop(ebpf);

        let (mut decisions, mut divergences, mut faults) = (0u64, 0u64, 0u64);
        for (_link_label, link) in link_configs() {
            let mut sim = SimConfig::paper_scenario();
            sim.link = link;
            sim.duration_us = sim_us;
            // fresh hosts and counters per link so fault latches can't
            // carry over between configurations
            let counters: DiffCounters = Rc::new(RefCell::new((0, 0, 0)));
            let diff = DiffCc {
                vm: KbpfCc::new(candidate.clone()),
                ebpf: EbpfCc::new(candidate.clone()).expect("emitted once already"),
                counters: counters.clone(),
            };
            evaluate_with(sim, Box::new(diff));
            let c = counters.borrow();
            decisions += c.0;
            divergences += c.1;
            faults += c.2;
        }
        if divergences > 0 || faults > 0 {
            violations.push(format!(
                "{label}: {divergences}/{decisions} divergences, {faults} faults  [{src}]"
            ));
        }
        rows.push(Row {
            label: label.clone(),
            source: src.clone(),
            kbpf_insns,
            ebpf_insns,
            ebpf_bytes,
            stack_bytes,
            check_reachable: stats.reachable,
            check_branches: stats.branches,
            r0_lo: stats.r0.0,
            r0_hi: stats.r0.1,
            decisions,
            divergences,
            faults,
        });
    }

    println!(
        "{:13} {:>5} {:>5} {:>6} {:>5} {:>8} {:>9} {:>5}",
        "policy", "kbpf", "ebpf", "bytes", "stack", "decisions", "diverged", "fault"
    );
    for r in &rows {
        println!(
            "{:13} {:>5} {:>5} {:>6} {:>5} {:>8} {:>9} {:>5}",
            r.label,
            r.kbpf_insns,
            r.ebpf_insns,
            r.ebpf_bytes,
            r.stack_bytes,
            r.decisions,
            r.divergences,
            r.faults
        );
    }

    // 4. The best searched policy as a struct_ops C translation unit.
    let best = check_candidate(&outcome.best.source).expect("winner verifies");
    let c_src =
        render_struct_ops(best.program(), best.policy.layout().features(), "policysmith_best");
    let c_path = "results/ebpf_best_policy.c";
    std::fs::write(c_path, &c_src).expect("write C artifact");
    println!("[struct_ops C artifact written to {c_path}]");

    write_json(
        "ebpf",
        &serde_json::json!({
            "search": { "rounds": rounds, "candidates_per_round": cpr, "seed": opts.seed },
            "searched_policies": searched,
            "baseline_policies": BASELINES.len(),
            "link_configs": link_configs().iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            "sim_duration_us": sim_us,
            "policies": rows.iter().map(|r| serde_json::json!({
                "label": r.label,
                "source": r.source,
                "kbpf_insns": r.kbpf_insns,
                "ebpf_insns": r.ebpf_insns,
                "ebpf_bytes": r.ebpf_bytes,
                "stack_bytes": r.stack_bytes,
                "model_check": {
                    "reachable": r.check_reachable,
                    "branches": r.check_branches,
                    "r0_bounds": [r.r0_lo, r.r0_hi],
                },
                "decisions": r.decisions,
                "divergences": r.divergences,
                "faults": r.faults,
            })).collect::<Vec<_>>(),
            "best": { "source": outcome.best.source, "score": outcome.best.score },
            "c_artifact": c_path,
            "all_agree": violations.is_empty(),
        }),
    );

    exit_on_violations(&violations);
    println!(
        "\nall {} policies emit, model-check, and agree with the kbpf VM decision-for-decision",
        rows.len()
    );
}
