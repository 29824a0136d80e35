//! The protocol every workload follows: build inputs from the seed (timed,
//! repeated, median reported), warm up, measure a fixed number of cycles
//! over fixed-size units of work (`--seconds` sets the number, not a
//! deadline), verify outside the timed region, print.

use crate::catalog::Catalog;
use crate::stats::{self, FineHist};
use serde::Value;
use serde_json::json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where `trace-<workload>.json` and per-run result files go.
    pub out_dir: Option<PathBuf>,
    /// Self-test: flip one reference decision so the correctness check
    /// must report a failure.
    pub corrupt: bool,
}

impl RunCfg {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> RunCfg {
        RunCfg {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            out_dir: None,
            corrupt: false,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Hard correctness failures; any entry makes the run incorrect and
    /// counts every attempted op as failed.
    pub problems: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Free-text annotations printed after a metric's unit.
    pub notes: BTreeMap<&'static str, String>,
    /// The untraced region's units as timed, for the run file: how far the
    /// repeats of one kind lie apart is how noisy the box was.
    pub units: Vec<UnitTime>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a ratio unless its base is zero (an undefined metric is
    /// left out, never printed as 0).
    pub fn set_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        if den > 0.0 {
            self.set(name, num / den);
        }
    }

    pub fn note(&mut self, name: &'static str, text: String) {
        self.notes.insert(name, text);
    }

    pub fn problem(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn failed_ops(&self) -> u64 {
        if self.problems.is_empty() {
            self.failed.min(self.attempted)
        } else {
            self.attempted
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed_ops() as f64 / self.attempted.max(1) as f64
    }

    /// 0 when every op met its correctness rule, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    /// The end-to-end metrics every workload reports (`peak_rss_mb` is
    /// read when the run is reported).
    pub fn end_to_end(&mut self, setup_s: f64, region: &Region, latency: &UnitLatency) {
        self.units = region.units.clone();
        self.set("setup_s", setup_s);
        self.set("ops_per_s", region.ops_per_s());
        self.note("ops_per_s", format!("cycles={}", region.cycles));
        self.set("ops_per_s_median", 1e9 / region.median_ns_per_op().max(1e-9));
        self.set("cpu_ms_per_kop", region.cpu_ms_per_kop());
        self.latency(latency.p50_ns(), latency.p99_ns(), latency.samples());
    }

    pub fn latency(&mut self, p50_ns: f64, p99_ns: f64, samples: u64) {
        self.set("op_p50_ns", p50_ns);
        self.set("op_p99_ns", p99_ns);
        let supported = stats::highest_supported_percentile(samples)
            .map(|p| format!("p{}", p * 100.0))
            .unwrap_or_else(|| "none".into());
        self.note("op_p99_ns", format!("samples={samples} highest_supported={supported}"));
    }
}

/// Inputs plus the median time it took to build them.
pub struct Setup<T> {
    pub inputs: T,
    pub seconds: f64,
    pub reps: usize,
}

/// Time `build` (input generation + policy compile + warm-up). An
/// untraced run repeats it — 3 to 50 times, aiming at ~2 s in total so
/// that a millisecond-scale set-up is not reported from one noisy moment —
/// and reports the median; every repetition builds the same inputs.
pub fn measure_setup<T>(repeat: bool, mut build: impl FnMut() -> T) -> Setup<T> {
    let t0 = Instant::now();
    let mut inputs = build();
    let first = t0.elapsed().as_secs_f64();
    let mut times = vec![first];
    if repeat {
        let reps = ((2.0 / first.max(1e-6)).ceil() as usize).clamp(3, 50);
        while times.len() < reps {
            drop(inputs); // never hold two copies: peak RSS is a metric too
            let t0 = Instant::now();
            inputs = build();
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    Setup { inputs, seconds: stats::median(&times), reps: times.len() }
}

/// One unit of work, as measured: a few milliseconds to a tenth of a
/// second of it. Units of one `kind` repeat the same work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitTime {
    pub kind: u32,
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// The stopwatch a pass over the inputs laps: each lap is one unit.
pub struct Laps {
    units: Vec<UnitTime>,
    wall0: Instant,
    cpu0: u64,
}

impl Laps {
    fn new() -> Laps {
        Laps { units: Vec::new(), wall0: Instant::now(), cpu0: 0 }
    }

    /// The next lap measures from here.
    pub fn start(&mut self) {
        self.cpu0 = stats::process_cpu_ns();
        self.wall0 = Instant::now();
    }

    /// A unit of `kind` just ended and the next one begins.
    pub fn lap(&mut self, kind: u32, ops: u64) -> UnitTime {
        let (wall, cpu) = (Instant::now(), stats::process_cpu_ns());
        let unit = UnitTime {
            kind,
            ops,
            wall_ns: (wall - self.wall0).as_nanos() as u64,
            cpu_ns: cpu - self.cpu0,
        };
        self.units.push(unit);
        (self.wall0, self.cpu0) = (wall, cpu);
        unit
    }

    /// A unit timed elsewhere (an Evaluator call inside a search).
    pub fn push(&mut self, unit: UnitTime) {
        self.units.push(unit);
    }

    /// Wall and CPU since the last `start` or `lap`, ns.
    pub fn running(&self) -> (u64, u64) {
        (self.wall0.elapsed().as_nanos() as u64, stats::process_cpu_ns() - self.cpu0)
    }
}

/// A timed region: a fixed number of cycles over the inputs, each pass
/// lapped into units.
///
/// The box this runs on slows down by a tenth to a half for seconds at a
/// time, sometimes for a minute (noisy neighbours on a shared core). That
/// noise only ever adds time, and it comes in bursts of milliseconds: over
/// two noisy minutes a spin loop timed in 0.4 ms slices found its fastest
/// slice within 3 % in every 12 s window, its fastest 36 ms stretch within
/// 10 %, its fastest 0.36 s within 18 %, while the window's median slice
/// ranged over 26 %. So a pass is lapped into units of a few milliseconds,
/// every unit is repeated cycle after cycle, and a run reports the pass **put
/// together from the fastest repeat of each of its units**: what the code
/// costs when nothing else runs. A change that makes the code slower moves
/// every repeat of the units it touches, and their fastest with them. Units
/// of *different* work have no such floor (their fastest is the luck of
/// the draw), which is why every workload is built from repeats.
///
/// The fastest of more repeats is lower, so the number of repeats must not
/// follow the speed of the code: a region runs [`cycles_for`] its share of
/// `--seconds`, a number fixed by the workload's `CYCLE_S`, and every
/// commit takes the fastest of the same number of repeats of the same
/// work. The pass put together from the *median* repeat of each unit is
/// reported next to it (`ops_per_s_median`): what the code costs with the
/// box's noise and its own contention left in.
#[derive(Debug, Clone, Default)]
pub struct Region {
    pub units: Vec<UnitTime>,
    /// How often every kind of unit was repeated.
    pub cycles: u64,
}

impl Region {
    pub fn ops(&self) -> u64 {
        self.units.iter().map(|u| u.ops).sum()
    }

    /// Wall ns per op over the whole region, noise and all — what the span
    /// totals of a traced region, which are not per unit, compare against.
    pub fn mean_ns_per_op(&self) -> f64 {
        self.units.iter().map(|u| u.wall_ns).sum::<u64>() as f64 / self.ops().max(1) as f64
    }

    /// The fastest repeat of every kind of unit that `keep` admits:
    /// `kind → (ops, fastest cost)`.
    pub fn fastest(
        &self,
        keep: impl Fn(&UnitTime) -> bool,
        cost: impl Fn(&UnitTime) -> u64,
    ) -> BTreeMap<u32, (u64, u64)> {
        let mut best: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for u in self.units.iter().filter(|u| keep(u)) {
            let e = best.entry(u.kind).or_insert((u.ops, u64::MAX));
            e.1 = e.1.min(cost(u));
        }
        best
    }

    /// Σ over kinds of the fastest repeat's cost ÷ Σ over kinds of ops.
    fn fastest_per_op(&self, cost: impl Fn(&UnitTime) -> u64) -> f64 {
        let best = self.fastest(|_| true, cost);
        let (ops, ns) = best.values().fold((0u64, 0u64), |(o, n), (ops, c)| (o + ops, n + c));
        ns as f64 / ops.max(1) as f64
    }

    /// Wall ns per op of the pass put together from its fastest units.
    pub fn ns_per_op(&self) -> f64 {
        self.fastest_per_op(|u| u.wall_ns)
    }

    /// Wall ns per op of the pass put together from the median repeat of
    /// each kind of unit.
    pub fn median_ns_per_op(&self) -> f64 {
        let mut repeats: BTreeMap<u32, (u64, Vec<f64>)> = BTreeMap::new();
        for u in &self.units {
            repeats.entry(u.kind).or_insert((u.ops, Vec::new())).1.push(u.wall_ns as f64);
        }
        let ops: u64 = repeats.values().map(|(ops, _)| ops).sum();
        repeats.values().map(|(_, walls)| stats::median(walls)).sum::<f64>() / ops.max(1) as f64
    }

    pub fn ops_per_s(&self) -> f64 {
        1e9 / self.ns_per_op().max(1e-9)
    }

    /// Process CPU of that pass, ms per 1000 ops.
    pub fn cpu_ms_per_kop(&self) -> f64 {
        self.fastest_per_op(|u| u.cpu_ns) / 1e6 * 1_000.0
    }
}

/// How many cycles a region given `seconds` runs, when one cycle took
/// `cycle_s` on the 2-vCPU box at the commit of `baseline/BENCH_0.json`: at
/// that commit the region lasts about `seconds`, at a faster one less, and
/// at every commit it is the same work.
pub fn cycles_for(seconds: f64, cycle_s: f64) -> u64 {
    ((seconds / cycle_s).round() as u64).max(1)
}

/// Run `cycles` cycles of `passes` passes: `pass(laps, index)` with `index`
/// counting up from 0, so that pass `index` is of kind `index % passes`.
pub fn run_cycles(cycles: u64, passes: u64, mut pass: impl FnMut(&mut Laps, u64)) -> Region {
    let mut laps = Laps::new();
    for index in 0..cycles * passes {
        laps.start();
        pass(&mut laps, index);
    }
    Region { units: laps.units, cycles }
}

/// Per-op latency percentiles, taken per unit: the fastest repeat of each
/// kind of unit, the kinds averaged.
#[derive(Debug, Clone, Default)]
pub struct UnitLatency {
    /// `kind → (fastest p50, fastest p99)`.
    best: BTreeMap<u32, (f64, f64)>,
    samples: u64,
}

impl UnitLatency {
    pub fn new() -> UnitLatency {
        UnitLatency::default()
    }

    /// One unit's percentiles, in ns.
    pub fn push(&mut self, kind: u32, p50_ns: f64, p99_ns: f64, samples: u64) {
        let e = self.best.entry(kind).or_insert((f64::INFINITY, f64::INFINITY));
        *e = (e.0.min(p50_ns), e.1.min(p99_ns));
        self.samples += samples;
    }

    pub fn push_hist(&mut self, kind: u32, hist: &FineHist) {
        self.push(kind, hist.quantile(0.50), hist.quantile(0.99), hist.count());
    }

    pub fn p50_ns(&self) -> f64 {
        self.best.values().map(|b| b.0).sum::<f64>() / self.best.len() as f64
    }

    pub fn p99_ns(&self) -> f64 {
        self.best.values().map(|b| b.1).sum::<f64>() / self.best.len() as f64
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Per-op latency from one clock read per op boundary.
pub struct OpClock {
    hist: FineHist,
    prev: Instant,
    cost_ns: u64,
}

impl OpClock {
    pub fn new(clock_cost_ns: f64) -> OpClock {
        OpClock { hist: FineHist::new(), prev: Instant::now(), cost_ns: clock_cost_ns as u64 }
    }

    /// Start a pass: the next `tick` measures from here.
    #[inline]
    pub fn start(&mut self) {
        self.prev = Instant::now();
    }

    /// End a pass: its samples, leaving the clock empty for the next.
    pub fn take(&mut self) -> FineHist {
        std::mem::take(&mut self.hist)
    }

    /// An op just finished.
    #[inline]
    pub fn tick(&mut self) {
        let now = Instant::now();
        self.hist.record(((now - self.prev).as_nanos() as u64).saturating_sub(self.cost_ns));
        self.prev = now;
    }
}

/// Render the run: one `workload metric value unit` line per measured
/// metric, then the result object as the last line. Returns the object.
pub fn report(cfg: &RunCfg, catalog: &Catalog, outcome: &Outcome) -> Result<Value, String> {
    let mut values = outcome.values.clone();
    values.insert("failed_share", outcome.failed_share());
    values.insert("peak_rss_mb", stats::peak_rss_mib());
    for (name, v) in &values {
        let def = catalog
            .find(name)
            .ok_or_else(|| format!("metric `{name}` is not declared in BENCHMARK.json"))?;
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not a finite number: {v}"));
        }
        let note = outcome.notes.get(name).map(|n| format!(" {n}")).unwrap_or_default();
        println!("{} {} {} {}{}", cfg.workload, name, v, def.unit, note);
    }
    let wanted = if cfg.trace { &catalog.per_layer } else { &catalog.end_to_end };
    let mut metrics = Vec::with_capacity(wanted.len());
    for def in wanted {
        let value = match values.get(def.name.as_str()) {
            Some(v) => *v,
            // a layer this workload never enters reads 0 in the object the
            // driver parses and is absent from the lines above
            None if cfg.trace => 0.0,
            None => return Err(format!("end-to-end metric `{}` was not measured", def.name)),
        };
        metrics.push((def.name.clone(), json!({ "value": value, "unit": def.unit })));
    }
    for p in &outcome.problems {
        eprintln!("{}: CORRECTNESS: {p}", cfg.workload);
    }
    Ok(json!({
        "correct": outcome.correct(),
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed_ops(),
        "metrics": Value::Object(metrics),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_drive_share_and_exit_code() {
        let mut o = Outcome { attempted: 1_000, ..Outcome::default() };
        assert!(o.correct() && o.exit_code() == 0 && o.failed_share() == 0.0);
        o.failed = 3;
        assert!(!o.correct() && o.exit_code() != 0);
        assert!((o.failed_share() - 0.003).abs() < 1e-12);
        o.failed = 0;
        o.problem("winner did not re-evaluate to the same score");
        assert_eq!(o.failed_ops(), 1_000, "a hard failure fails every op");
        assert_eq!(o.failed_share(), 1.0);
        assert_ne!(o.exit_code(), 0);
    }

    #[test]
    fn regions_run_a_fixed_number_of_cycles() {
        let r = run_cycles(3, 2, |laps, i| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            laps.lap((i % 2) as u32, 17);
        });
        assert_eq!((r.ops(), r.units.len(), r.cycles), (6 * 17, 6, 3));
        let kinds: Vec<u32> = r.units.iter().map(|u| u.kind).collect();
        assert_eq!(kinds, [0, 1, 0, 1, 0, 1], "every kind is repeated once per cycle");
        assert!(r.units.iter().all(|u| u.wall_ns >= 2_000_000), "a lap starts with its pass");
        // `--seconds` sets the number of cycles, whatever the code's speed
        assert_eq!(cycles_for(12.0, 2.4), 5);
        assert_eq!(cycles_for(6.0, 2.4), 3);
        assert_eq!(cycles_for(0.05, 2.4), 1, "never less than one of every kind");
    }

    fn unit(kind: u32, ops: u64, wall_ns: u64, cpu_ns: u64) -> UnitTime {
        UnitTime { kind, ops, wall_ns, cpu_ns }
    }

    #[test]
    fn a_region_reports_the_pass_made_of_its_fastest_units() {
        // two kinds of unit, A cheap and B dear; three passes, the second
        // hit by a burst on A and the third on B
        let r = Region {
            units: vec![
                unit(0, 1_000, 100_000, 90_000),
                unit(1, 1_000, 300_000, 280_000),
                unit(0, 1_000, 250_000, 200_000),
                unit(1, 1_000, 301_000, 281_000),
                unit(0, 1_000, 101_000, 91_000),
                unit(1, 1_000, 420_000, 390_000),
            ],
            cycles: 3,
        };
        assert_eq!(r.ns_per_op(), 200.0, "fastest A + fastest B over the ops of one pass");
        assert!((r.ops_per_s() - 5e6).abs() < 1e-6);
        assert!((r.cpu_ms_per_kop() - 0.185).abs() < 1e-12);
        assert_eq!(r.ops(), 6_000);
        assert!((r.mean_ns_per_op() - 1_472.0 / 6.0).abs() < 1e-9, "the mean carries the bursts");
        assert_eq!(r.median_ns_per_op(), 201.0, "median A + median B: one burst each is shed");
        // a slowdown of the code itself moves every repeat, and the fastest
        let slower = Region {
            units: r
                .units
                .iter()
                .map(|u| unit(u.kind, u.ops, u.wall_ns * 2, u.cpu_ns * 2))
                .collect(),
            cycles: 3,
        };
        assert_eq!(slower.ns_per_op(), 400.0);
        // a unit without ops (an Evaluator call inside a search) adds time only
        let mut search = r.clone();
        search.units.push(unit(2, 0, 200_000, 200_000));
        assert_eq!(search.ns_per_op(), 300.0);
        assert_eq!(search.fastest(|u| u.ops == 0, |u| u.wall_ns).len(), 1);
    }

    #[test]
    fn latencies_take_the_fastest_repeat_of_each_kind() {
        let mut lat = UnitLatency::new();
        for (kind, p50, p99) in [(0, 100.0, 300.0), (0, 500.0, 900.0), (0, 102.0, 290.0)] {
            lat.push(kind, p50, p99, 10);
        }
        assert_eq!((lat.p50_ns(), lat.p99_ns(), lat.samples()), (100.0, 290.0, 30));
        lat.push(1, 300.0, 310.0, 10);
        assert_eq!((lat.p50_ns(), lat.p99_ns()), (200.0, 300.0), "kinds are averaged");
    }

    #[test]
    fn setup_repeats_and_reports_a_median() {
        let mut builds = 0;
        let s = measure_setup(true, || {
            builds += 1;
            builds
        });
        assert_eq!(s.reps, 50, "a sub-millisecond set-up is repeated to the cap");
        assert_eq!(s.inputs, 50, "the last build's inputs are the ones used");
        assert!(s.seconds >= 0.0);
        assert_eq!(measure_setup(false, || ()).reps, 1);
    }

    #[test]
    fn report_refuses_undeclared_names_and_missing_end_to_end() {
        let catalog = Catalog::load();
        let cfg = RunCfg::new("decide-lb", 1, 1.0, false);
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        assert!(report(&cfg, &catalog, &o).unwrap_err().contains("was not measured"));
        o.set("not.a.metric", 1.0);
        assert!(report(&cfg, &catalog, &o).unwrap_err().contains("not declared"));
    }

    #[test]
    fn report_emits_exactly_the_contract_keys() {
        let catalog = Catalog::load();
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        for m in &catalog.end_to_end {
            // names must be 'static in an Outcome; leak the handful here
            o.set(Box::leak(m.name.clone().into_boxed_str()), 1.5);
        }
        let v = report(&RunCfg::new("decide-lb", 1, 1.0, false), &catalog, &o).unwrap();
        let keys: Vec<&str> = crate::json::as_object(&v).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = crate::json::as_object(crate::json::get(&v, "metrics").unwrap())
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = catalog.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, want);

        let traced = report(&RunCfg::new("decide-lb", 1, 1.0, true), &catalog, &o).unwrap();
        let n = crate::json::as_object(crate::json::get(&traced, "metrics").unwrap()).len();
        assert_eq!(n, catalog.per_layer.len(), "a traced run reports every per-layer name");
    }
}
