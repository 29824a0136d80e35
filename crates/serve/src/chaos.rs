//! Deterministic chaos: seed-driven fault injection for the serving
//! runtime.
//!
//! The misbehaviors that happen inside a serve run are injectable from
//! here, keyed off a single spec seed so a failing run reproduces exactly:
//!
//! * **faulting policies published externally** — an operator pushing a
//!   compiled-but-runtime-faulting policy straight past the guard
//!   ([`ExternalPublish`]), which the worker-side fallback chain must
//!   catch;
//! * **telemetry-window drops / duplicates / reordering** on the
//!   worker → adaptation-thread channel ([`TelemetryInjector`]);
//! * **worker stalls** — periodic decision-path pauses ([`WorkerStall`]).
//!
//! The other two come from outside the run: generator failures are
//! `policysmith_gen::FlakyGen` wrapped around the re-synthesis generator,
//! and poisoned candidates are entries poisoned in the `HeuristicLibrary`
//! before serving starts.
//!
//! The injection points are wired into `runtime::serve` behind
//! `ServeConfig::chaos`; the default spec of all-zero probabilities is
//! *exactly* the plain serve path (`tests/faults.rs` pins that it is
//! decision-identical whatever its seed). The `exp_serve` bench binary's
//! fault-plan section runs lb and cache serving under every mix and
//! enforces the invariants — zero dropped decisions, quality floor vs.
//! the man-made baseline, bounded time-to-recover, monotonic generations —
//! by exit code.

use crate::telemetry::WindowSample;
use policysmith_dsl::Mode;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Telemetry-stream perturbation probabilities (per arriving window).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TelemetryChaos {
    /// Window silently lost in transit.
    pub p_drop: f64,
    /// Window delivered twice.
    pub p_duplicate: f64,
    /// Window held back and delivered after a younger one.
    pub p_reorder: f64,
}

impl TelemetryChaos {
    fn is_off(&self) -> bool {
        self.p_drop <= 0.0 && self.p_duplicate <= 0.0 && self.p_reorder <= 0.0
    }
}

/// Periodic decision-path stalls — a worker descheduled by the OS, hit by
/// a GC pause, or blocked on a slow syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStall {
    /// Stall once every this many decisions.
    pub every_decisions: u64,
    /// How long each stall lasts.
    pub stall_micros: u64,
}

/// An out-of-band publish that bypasses the guard — an operator (or a
/// buggy sidecar) pushing a policy straight into the cell. The fault
/// plans use a compiled-but-runtime-faulting source here, so the only
/// thing standing between it and served traffic is the worker-side
/// fallback chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalPublish {
    /// Publish after this many telemetry windows have arrived.
    pub after_windows: u64,
    /// The source to publish (must compile for the serving mode).
    pub source: String,
}

/// One serve run's worth of injected misbehavior. `ChaosSpec::default()`
/// (zero probabilities, no stalls, no external publish) is
/// decision-identical to running without chaos at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosSpec {
    /// Seed for every probabilistic injection in this spec.
    pub seed: u64,
    pub telemetry: TelemetryChaos,
    pub worker_stall: Option<WorkerStall>,
    pub external_publish: Option<ExternalPublish>,
}

/// What the chaos layer actually did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    pub windows_dropped: u64,
    pub windows_duplicated: u64,
    pub windows_reordered: u64,
    pub external_publishes: u64,
}

/// Stateful telemetry perturber, applied on the adaptation thread as
/// windows arrive. Deterministic per seed and arrival sequence.
#[derive(Debug)]
pub struct TelemetryInjector {
    chaos: TelemetryChaos,
    rng: StdRng,
    /// A reordered window waiting to land after a younger one.
    held: Option<WindowSample>,
    stats: ChaosStats,
}

impl TelemetryInjector {
    pub fn new(chaos: TelemetryChaos, seed: u64) -> TelemetryInjector {
        TelemetryInjector {
            chaos,
            rng: StdRng::seed_from_u64(seed),
            held: None,
            stats: ChaosStats::default(),
        }
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.random_bool(p)
    }

    /// Perturb one arriving window into 0..=3 deliveries appended to
    /// `out`. A held (reordered) window is released after the next
    /// arrival, so it lands behind a younger sample.
    pub fn apply(&mut self, sample: WindowSample, out: &mut Vec<WindowSample>) {
        if self.chaos.is_off() {
            out.push(sample);
            return;
        }
        if self.roll(self.chaos.p_drop) {
            self.stats.windows_dropped += 1;
        } else if self.held.is_none() && self.roll(self.chaos.p_reorder) {
            self.stats.windows_reordered += 1;
            self.held = Some(sample);
            return; // delivered by a later apply/flush, out of order
        } else {
            if self.roll(self.chaos.p_duplicate) {
                self.stats.windows_duplicated += 1;
                out.push(sample.clone());
            }
            out.push(sample);
        }
        if let Some(older) = self.held.take() {
            out.push(older);
        }
    }

    /// Release any still-held window (call when the stream ends).
    pub fn flush(&mut self, out: &mut Vec<WindowSample>) {
        if let Some(older) = self.held.take() {
            out.push(older);
        }
    }

    /// Perturbation counts so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }
}

/// The man-made safety net each serving domain demotes to when the
/// fallback chain bottoms out: JSQ (join-shortest-queue) for load
/// balancing, LRU for caching, a CoDel-style sojourn gate for AQM, AIMD
/// for congestion control. These need no library, no score, and no
/// generator — they are the chain's unconditional terminal link.
pub fn baseline_source(mode: Mode) -> &'static str {
    match mode {
        // JSQ: dispatch to the server with the shortest queue
        Mode::Lb => "server.queue_len",
        // LRU: evict the least-recently-used (priority = last access)
        Mode::Cache => "obj.last_access",
        // CoDel-style: drop once sojourn time exceeds a 5 ms target
        Mode::Aqm => "if(pkt.sojourn > 5000, 2, 0)",
        // AIMD: halve on loss, grow by one otherwise
        Mode::Kernel => "if(loss, max(cwnd >> 1, 2), cwnd + 1)",
    }
}

/// A source that passes the Checker but faults at runtime (division by a
/// feature that is zero early in any run) — the "verified yet deadly"
/// policy the fault latch + quarantine path exists for.
pub fn faulting_source(mode: Mode) -> &'static str {
    match mode {
        // every server starts with an empty queue → ÷0 on the first pick
        Mode::Lb => "1000 / server.queue_len",
        // a just-inserted object has age 0 → ÷0 on the next access
        Mode::Cache => "obj.size / obj.age",
        Mode::Aqm => "q.bytes / q.pkts",
        Mode::Kernel => "cwnd / inflight",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> WindowSample {
        WindowSample {
            worker: 0,
            seq,
            phase: 0,
            decisions: 10,
            signal: 0.5,
            generation: 0,
            at_micros: seq * 1000,
        }
    }

    fn run(chaos: TelemetryChaos, seed: u64, n: u64) -> (Vec<u64>, ChaosStats) {
        let mut inj = TelemetryInjector::new(chaos, seed);
        let mut out = Vec::new();
        for seq in 0..n {
            inj.apply(sample(seq), &mut out);
        }
        inj.flush(&mut out);
        (out.iter().map(|s| s.seq).collect(), inj.stats())
    }

    #[test]
    fn zero_probability_injector_is_transparent() {
        let (seqs, stats) = run(TelemetryChaos::default(), 7, 50);
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
        assert_eq!(stats, ChaosStats::default());
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let chaos = TelemetryChaos { p_drop: 0.2, p_duplicate: 0.2, p_reorder: 0.2 };
        assert_eq!(run(chaos, 3, 200), run(chaos, 3, 200));
        assert_ne!(run(chaos, 3, 200).0, run(chaos, 4, 200).0);
    }

    #[test]
    fn injector_conserves_undropped_windows() {
        let chaos = TelemetryChaos { p_drop: 0.3, p_duplicate: 0.2, p_reorder: 0.2 };
        let (seqs, stats) = run(chaos, 11, 500);
        assert_eq!(seqs.len() as u64, 500 - stats.windows_dropped + stats.windows_duplicated);
        assert!(stats.windows_dropped > 0 && stats.windows_duplicated > 0);
        // every delivered seq is a real one
        assert!(seqs.iter().all(|&s| s < 500));
    }

    #[test]
    fn reordered_windows_land_late_but_land() {
        let chaos = TelemetryChaos { p_drop: 0.0, p_duplicate: 0.0, p_reorder: 0.4 };
        let (seqs, stats) = run(chaos, 5, 300);
        assert!(stats.windows_reordered > 0);
        assert_eq!(seqs.len(), 300, "reordering must not lose windows");
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..300).collect::<Vec<_>>());
        assert_ne!(seqs, sorted, "some window must actually arrive out of order");
    }

    #[test]
    fn baselines_and_faulting_sources_compile_for_their_modes() {
        use policysmith_dsl::{check, parse};
        for mode in [Mode::Lb, Mode::Cache, Mode::Aqm, Mode::Kernel] {
            for src in [baseline_source(mode), faulting_source(mode)] {
                let e = parse(src).unwrap_or_else(|e| panic!("{mode:?} `{src}`: {e}"));
                check(&e, mode).unwrap_or_else(|e| panic!("{mode:?} `{src}`: {e}"));
            }
        }
    }
}
