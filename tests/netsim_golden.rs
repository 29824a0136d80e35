//! Golden outcomes for the network simulator. `netsim` promises runs that
//! are "bit-for-bit reproducible"; this pins the bits. Every row of
//! `tests/golden/netsim_outcomes.txt` was captured at the commit before the
//! sender, link burst path and event loop were rewritten for speed, so a
//! change that moves any `FlowMetrics` field, drop count or queuing-delay
//! figure — on ordinary windows, on window-exploding ones, under every AQM
//! — fails here with the first differing row.
//!
//! To re-capture after an *intended* behaviour change, run the test and copy
//! the file it names in the failure message over the golden.

use policysmith::aqmsim::{self, scenario};
use policysmith::cc::baselines::{BbrLite, Cubic, Reno, Vegas};
use policysmith::cc::{self, EbpfCc, KbpfCc};
use policysmith::netsim::{
    AqmPolicy, CcView, CoDel, CongestionControl, DropTail, Pie, SimConfig, Simulation,
};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/netsim_outcomes.txt");

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

/// Slow start below ssthresh, +1 segment per window above, halve on loss.
#[derive(Default)]
struct Aimd {
    acks: u64,
}
impl CongestionControl for Aimd {
    fn name(&self) -> &str {
        "aimd"
    }
    fn on_ack(&mut self, v: &CcView<'_>) -> u64 {
        if v.cwnd < v.ssthresh {
            return v.cwnd + 1;
        }
        self.acks += 1;
        if self.acks >= v.cwnd {
            self.acks = 0;
            v.cwnd + 1
        } else {
            v.cwnd
        }
    }
    fn on_loss(&mut self, v: &CcView<'_>) -> u64 {
        self.acks = 0;
        v.cwnd / 2
    }
}

/// One row: every per-flow metric, then the link's counters.
fn row(out: &mut String, name: &str, dur_us: u64, ccs: Vec<Box<dyn CongestionControl>>) {
    let mut cfg = SimConfig::paper_scenario();
    cfg.duration_us = dur_us;
    let mut sim = Simulation::new(cfg, ccs);
    let flows = sim.run();
    writeln!(
        out,
        "{name} {flows:?} drops={} aqm_drops={} ecn_marks={} mean_qdelay_us={:?} max_qdelay_us={}",
        sim.drops(),
        sim.aqm_drops(),
        sim.ecn_marks(),
        sim.mean_qdelay_us(),
        sim.max_qdelay_us(),
    )
    .unwrap();
}

fn outcomes() -> String {
    let mut out = String::new();
    for w in [2, 40, 200, 1 << 20] {
        for dur_us in [100_000, 400_000, 5_000_000] {
            row(&mut out, &format!("fixed/{w}/{dur_us}us"), dur_us, vec![Box::new(FixedCc(w))]);
        }
    }
    row(&mut out, "reno/10s", 10_000_000, vec![Box::new(Reno::new())]);
    row(&mut out, "cubic/10s", 10_000_000, vec![Box::new(Cubic::new())]);
    row(&mut out, "bbr-lite/10s", 10_000_000, vec![Box::new(BbrLite::new())]);
    row(&mut out, "vegas/10s", 10_000_000, vec![Box::new(Vegas::new())]);
    row(
        &mut out,
        "aimd-x2/20s",
        20_000_000,
        vec![Box::new(Aimd::default()), Box::new(Aimd::default())],
    );

    type MakeAqm = fn() -> Box<dyn AqmPolicy>;
    let aqms: [(&str, MakeAqm); 4] = [
        ("drop-tail", || Box::new(DropTail)),
        ("codel", || Box::new(CoDel::new())),
        ("pie", || Box::new(Pie::new())),
        ("ecn-codel", || Box::new(CoDel::with_params(5_000, 100_000, true))),
    ];
    for sc in scenario::all_presets() {
        for (name, make) in aqms {
            writeln!(out, "{}/{name} {:?}", sc.name, aqmsim::run(&sc, make())).unwrap();
        }
    }

    // The offload replay on a window-exploding candidate: the eBPF host
    // must make the kbpf host's decisions, and both must make the golden's.
    let exploder = cc::check_candidate("cwnd * 2").expect("`cwnd * 2` verifies");
    let kbpf = cc::evaluate(Box::new(KbpfCc::new(exploder.clone())), 400_000);
    let ebpf = cc::evaluate(Box::new(EbpfCc::new(exploder).expect("`cwnd * 2` emits")), 400_000);
    assert_eq!(kbpf, ebpf, "EbpfCc diverged from KbpfCc on `cwnd * 2`");
    writeln!(out, "kbpf=ebpf/cwnd*2/400000us {kbpf:?}").unwrap();
    out
}

#[test]
fn outcomes_match_the_golden_bit_for_bit() {
    let actual = outcomes();
    if actual == GOLDEN {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("netsim_outcomes.actual.txt");
    std::fs::write(&dump, &actual).expect("write the actual outcomes next to the test binary");
    let (a, g) = actual
        .lines()
        .zip(GOLDEN.lines())
        .find(|(a, g)| a != g)
        .unwrap_or(("<row count differs>", "<row count differs>"));
    panic!(
        "netsim outcomes moved.\n  golden: {g}\n  actual: {a}\nfull actual output: {}",
        dump.display()
    );
}
