//! The compile-once policy API — the host boundary for every case study.
//!
//! The paper's central claim is that generated code should run inside real
//! systems at real-system speed: §5 compiles candidates to eBPF so the
//! kernel hosts them natively. This module generalizes that pipeline from
//! the congestion-control study to *all* templates. A [`CompiledPolicy`] is
//! produced once per candidate (parse → mode-check → lower → **verify**)
//! and then executed on the host's hot path with zero allocation — the
//! DSL interpreter survives only as the bit-for-bit reference oracle in
//! the equivalence tests.
//!
//! Two pieces:
//!
//! * [`CtxLayout`] — the per-candidate context ABI. Instead of a fixed,
//!   mode-wide feature map (the old `cong_control`-only `cc_ctx_features`
//!   array), the layout assigns one `LdCtx` slot to each feature the
//!   expression actually reads, in first-use order. The verifier receives
//!   the features' declared intervals per slot, so mode-specific domain
//!   knowledge ("`server.speed` is never zero") reaches the interval
//!   analysis uniformly for cache, kernel, and lb candidates.
//! * [`CompiledPolicy`] — the verified artifact: bytecode + layout +
//!   verification outcome. [`CompiledPolicy::run`] executes the program
//!   against a caller-owned context slab and scratch map; reusing the
//!   buffers makes the steady-state hot path allocation-free.
//!
//! ## Verification strictness per mode
//!
//! Kernel candidates must verify completely — a possible division by zero
//! is a *compile-time rejection*, exactly the §5.0.2 "the eBPF verifier is
//! the Checker" contract. Userspace templates (cache, lb) have a defined
//! runtime fallback instead: the host latches the first fault and the
//! study scores the candidate as a hard failure. For those modes a
//! division the interval analysis cannot prove safe is recorded as
//! [`Verification::MayFault`] and deferred to the VM's runtime guard. The
//! structural pass still covers the whole of such a program — register
//! numbers, ctx and map slots, forward-only in-bounds jumps — so
//! [`CompiledPolicy::run`] stays inside its buffers and ends. The dataflow
//! pass stops at the first division it cannot prove, so past it nothing
//! is proved about initialization or the later divisors: the lowerer
//! emits no read before a write, and `run` checks every divisor.

use crate::batch::{self, BatchCtx, BatchFault, BatchPlan, BatchScratch, Column};
use crate::isa::Program;
use crate::lower::{self, LowerError, SPILL_SLOTS};
use crate::verifier::{verify, Interval, VerifyEnv, VerifyError};
use crate::vm::{execute_verified, VmError};
use policysmith_dsl::check::{CheckReport, DEFAULT_MAX_DEPTH, DEFAULT_MAX_SIZE};
use policysmith_dsl::{
    check_with_warnings, parse, EvalError, Expr, Feature, FeatureEnv, Mode, ParseError,
};
use std::fmt;

/// Node-count budget for kernel candidates (tighter than the userspace
/// templates' [`DEFAULT_MAX_SIZE`]: kernel code must stay small).
pub const KERNEL_MAX_SIZE: usize = 256;
/// Expression-depth budget for kernel candidates (tighter than the
/// userspace templates' [`DEFAULT_MAX_DEPTH`]).
pub const KERNEL_MAX_DEPTH: usize = 24;

/// Node-count and depth budgets applied by [`CompiledPolicy::compile`].
pub fn mode_budgets(mode: Mode) -> (usize, usize) {
    match mode {
        Mode::Kernel => (KERNEL_MAX_SIZE, KERNEL_MAX_DEPTH),
        Mode::Cache | Mode::Lb | Mode::Aqm => (DEFAULT_MAX_SIZE, DEFAULT_MAX_DEPTH),
    }
}

/// The context ABI of one compiled candidate: which feature lives in which
/// `LdCtx` slot. Slots are assigned in first-use order of the expression,
/// so the layout is minimal (hosts fill only what the candidate reads) and
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct CtxLayout {
    mode: Mode,
    features: Vec<Feature>,
}

impl CtxLayout {
    /// Layout covering exactly the features `e` reads, for template `mode`.
    pub fn for_expr(e: &Expr, mode: Mode) -> CtxLayout {
        CtxLayout { mode, features: e.features() }
    }

    /// The template mode this layout was built for.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Features in slot order: `features()[k]` lives in `ctx[k]`.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Number of context slots.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Does the candidate read no features at all?
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Slot of `f`, if the layout contains it.
    pub fn slot(&self, f: Feature) -> Option<u16> {
        self.features.iter().position(|&g| g == f).map(|i| i as u16)
    }

    /// The verification environment implied by this layout: each slot is
    /// bounded by its feature's declared range (how domain knowledge like
    /// "`mss` is never zero" reaches the interval analysis), plus the
    /// spill-sized scratch map.
    pub fn verify_env(&self) -> VerifyEnv {
        VerifyEnv {
            ctx_ranges: self.features.iter().map(|f| f.range()).collect(),
            map_slots: SPILL_SLOTS,
        }
    }

    /// Materialize the context slab from a feature environment, reusing
    /// `buf` (allocation-free once `buf` has reached capacity).
    ///
    /// Values are passed through unclamped; hosts are responsible for
    /// honouring the declared feature ranges (the cc harness clamps in its
    /// `FeatureEnv`). A host that feeds an out-of-range zero divisor gets
    /// the VM's runtime guard, not undefined behaviour.
    pub fn fill(&self, env: &impl FeatureEnv, buf: &mut Vec<i64>) {
        buf.clear();
        buf.extend(self.features.iter().map(|&f| env.feature(f)));
    }
}

/// Outcome of the static verification stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Verification {
    /// The interval analysis proved the program fault-free; `r0` is bounded.
    Verified { r0: Interval },
    /// Userspace modes only: a division the analysis could not prove safe.
    /// The program is structurally sound and terminates, but `run` may
    /// return a div-by-zero fault the host must absorb (latched-error
    /// contract). The diagnostic is the verifier's rejection, kept for the
    /// generator feedback loop.
    MayFault { diagnostic: String },
}

/// Where in the compile-once pipeline a candidate died.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The source text is not a DSL expression ([`CompiledPolicy::from_source`] only).
    Parse(ParseError),
    /// Template rule violations (floats, cross-mode features, budgets).
    Check(CheckReport),
    /// DSL → bytecode lowering failure (float literals).
    Lower(LowerError),
    /// Static verifier rejection (kernel mode: includes unguarded division).
    Verify(VerifyError),
}

impl CompileError {
    /// Stage name for compile-rate accounting (§5.0.3).
    pub fn stage(&self) -> &'static str {
        match self {
            CompileError::Parse(_) => "parse",
            CompileError::Check(_) => "check",
            CompileError::Lower(_) => "lower",
            CompileError::Verify(_) => "verify",
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Check(report) => write!(f, "{}", report.stderr().trim_end()),
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A runtime fault observed while hosting a policy — either from the VM
/// (compiled hot path) or from the reference interpreter (oracle hosts).
/// Hosts latch the first fault and degrade per their documented fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeFault {
    /// A fault raised by the bytecode VM (the compiled hot path).
    Vm(VmError),
    /// A fault raised by the reference interpreter (oracle hosts only).
    Interp(EvalError),
}

impl fmt::Display for RuntimeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeFault::Vm(e) => write!(f, "{e}"),
            RuntimeFault::Interp(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RuntimeFault {}

/// A candidate that survived the compile-once pipeline: checked, lowered,
/// verified, ready for zero-allocation execution.
///
/// A `CompiledPolicy` is immutable owned data (`Send + Sync + Clone`): a
/// serving runtime may publish one through a shared `Arc` and let any
/// number of threads execute it concurrently — [`run`](Self::run) takes
/// `&self` and keeps all mutable state in caller-owned buffers. The
/// assertion below makes that contract a compile-time fact, not a habit.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPolicy {
    expr: Expr,
    layout: CtxLayout,
    program: Program,
    verification: Verification,
    batch_plan: BatchPlan,
}

// The serving-runtime contract: policies cross threads and are shared
// behind swap handles. Breaking it (an Rc, a Cell) must fail to compile.
const _: () = {
    const fn requires_send_sync_clone<T: Send + Sync + Clone>() {}
    requires_send_sync_clone::<CompiledPolicy>()
};

impl CompiledPolicy {
    /// Run the full pipeline on a parsed candidate: template check (with
    /// [`mode_budgets`]) → per-candidate layout → lowering → verification
    /// against the layout's feature intervals.
    pub fn compile(e: &Expr, mode: Mode) -> Result<CompiledPolicy, CompileError> {
        let (max_size, max_depth) = mode_budgets(mode);
        let report = check_with_warnings(e, mode, max_size, max_depth);
        if !report.ok() {
            return Err(CompileError::Check(report));
        }
        let layout = CtxLayout::for_expr(e, mode);
        let program = lower::compile(e, &layout).map_err(CompileError::Lower)?;
        let verification = match verify(&program, &layout.verify_env()) {
            Ok(r0) => Verification::Verified { r0 },
            Err(err @ VerifyError::DivByZeroPossible { .. }) if mode != Mode::Kernel => {
                Verification::MayFault { diagnostic: err.to_string() }
            }
            Err(err) => return Err(CompileError::Verify(err)),
        };
        let batch_plan = BatchPlan::for_program(&program);
        Ok(CompiledPolicy { expr: e.clone(), layout, program, verification, batch_plan })
    }

    /// The front door from generator text to artifact: [`parse`], then
    /// [`compile`](Self::compile).
    pub fn from_source(source: &str, mode: Mode) -> Result<CompiledPolicy, CompileError> {
        CompiledPolicy::compile(&parse(source).map_err(CompileError::Parse)?, mode)
    }

    /// The template mode this policy was compiled for.
    pub fn mode(&self) -> Mode {
        self.layout.mode
    }

    /// The source expression — retained as the differential oracle: hosts
    /// never interpret it on the hot path, but the equivalence tests hold
    /// `dsl::eval` of this tree as the specification of `run`.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The context ABI hosts must fill.
    pub fn layout(&self) -> &CtxLayout {
        &self.layout
    }

    /// The lowered bytecode.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The verification outcome.
    pub fn verification(&self) -> &Verification {
        &self.verification
    }

    /// Provable `r0` bounds, when fully verified.
    pub fn r0_bounds(&self) -> Option<Interval> {
        match self.verification {
            Verification::Verified { r0 } => Some(r0),
            Verification::MayFault { .. } => None,
        }
    }

    /// Can `run` return a fault? `false` for fully verified programs.
    pub fn may_fault(&self) -> bool {
        matches!(self.verification, Verification::MayFault { .. })
    }

    /// Execute against a context slab laid out per [`Self::layout`] and a
    /// scratch map of at least [`SPILL_SLOTS`] slots. Allocation-free:
    /// this is [`execute_verified`], which re-checks nothing the pipeline
    /// proved (no fuel counter, no per-insn validation).
    ///
    /// For fully verified policies `run` cannot fail;
    /// [`Verification::MayFault`] policies may return
    /// `VmError::DivByZero`. Undersized buffers are a caller contract
    /// violation and panic.
    pub fn run(&self, ctx: &[i64], map: &mut [i64]) -> Result<i64, VmError> {
        execute_verified(&self.program, ctx, map)
    }

    /// Fill `ctx_buf` from `env` (per the layout) and [`run`](Self::run).
    /// The host keeps both buffers across calls, making the steady-state
    /// path allocation-free.
    pub fn run_with_env(
        &self,
        env: &impl FeatureEnv,
        ctx_buf: &mut Vec<i64>,
        map: &mut [i64],
    ) -> Result<i64, VmError> {
        self.layout.fill(env, ctx_buf);
        self.run(ctx_buf, map)
    }

    /// One-shot convenience for tests and docs: allocates fresh buffers.
    pub fn eval_once(&self, env: &impl FeatureEnv) -> Result<i64, VmError> {
        let mut ctx = Vec::with_capacity(self.layout.len());
        let mut map = vec![0i64; SPILL_SLOTS];
        self.run_with_env(env, &mut ctx, &mut map)
    }

    /// How this policy executes in batch (classified once at compile time).
    pub fn batch_plan(&self) -> BatchPlan {
        self.batch_plan
    }

    /// Score every row of `batch` in one call, appending one result per
    /// row to `out`. Observably identical to [`run`](Self::run) once per
    /// row in ascending row order sharing `map` — the scalar path is the
    /// executable spec (see [`crate::batch`]); straight-line map-free
    /// programs (everything the lowerer emits spill-free) take the
    /// column-vector engine instead of a per-row loop.
    ///
    /// The batch must have at least [`CtxLayout::len`] columns, all filled.
    pub fn run_batch(
        &self,
        batch: &BatchCtx,
        scratch: &mut BatchScratch,
        map: &mut [i64],
        out: &mut Vec<Result<i64, VmError>>,
    ) {
        batch::run_batch(&self.program, self.batch_plan, batch, scratch, map, out)
    }

    /// Fused "score everything, pick the smallest": returns the row index
    /// of the minimum score without materializing a score vector. Ties
    /// break to the lowest row; a fault aborts with the lowest faulting
    /// row. Panics on an empty batch.
    pub fn run_batch_argmin(
        &self,
        batch: &BatchCtx,
        scratch: &mut BatchScratch,
        map: &mut [i64],
    ) -> Result<usize, BatchFault> {
        batch::run_batch_argmin(&self.program, self.batch_plan, batch, scratch, map)
    }

    /// [`run_batch`](Self::run_batch) over columns the host **lends**
    /// instead of filling: `cols[k]` is ctx slot `k` for all `rows` rows,
    /// either a value per row ([`Column::Rows`], read in place) or one value
    /// every row shares ([`Column::Uniform`], never widened — instructions
    /// that combine only such values run once, not per row). Same engine,
    /// same per-row contract as the [`BatchCtx`] entry.
    ///
    /// `cols` must cover [`CtxLayout::len`] slots and every `Rows` column
    /// must hold at least `rows` values.
    pub fn run_columns(
        &self,
        cols: &[Column<'_>],
        rows: usize,
        scratch: &mut BatchScratch,
        map: &mut [i64],
        out: &mut Vec<Result<i64, VmError>>,
    ) {
        batch::run_columns(&self.program, self.batch_plan, cols, rows, scratch, map, out)
    }

    /// [`run_batch_argmin`](Self::run_batch_argmin) over lent columns (see
    /// [`run_columns`](Self::run_columns)). Panics on `rows == 0`.
    pub fn run_columns_argmin(
        &self,
        cols: &[Column<'_>],
        rows: usize,
        scratch: &mut BatchScratch,
        map: &mut [i64],
    ) -> Result<usize, BatchFault> {
        batch::run_columns_argmin(&self.program, self.batch_plan, cols, rows, scratch, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_dsl::env::MapEnv;
    use policysmith_dsl::eval;

    fn cc_env() -> MapEnv {
        MapEnv::new()
            .with(Feature::Cwnd, 20)
            .with(Feature::SrttUs, 55_000)
            .with(Feature::MinRttUs, 40_000)
            .with(Feature::LossEvent, 0)
            .with(Feature::Mss, 1_448)
            .with(Feature::AckedBytes, 2_900)
    }

    #[test]
    fn kernel_pipeline_is_strict() {
        let ok = "if(loss, max(cwnd >> 1, 2), cwnd + 1)";
        let p = CompiledPolicy::from_source(ok, Mode::Kernel).unwrap();
        assert!(!p.may_fault());
        assert!(p.r0_bounds().is_some());

        // unguarded division: rejected at compile time, stage = verify
        let err = CompiledPolicy::from_source("cwnd / inflight", Mode::Kernel).unwrap_err();
        assert_eq!(err.stage(), "verify");
        assert!(err.to_string().contains("divisor"), "{err}");

        // cross-mode feature: stage = check
        let err = CompiledPolicy::from_source("obj.count", Mode::Kernel).unwrap_err();
        assert_eq!(err.stage(), "check");

        // float: caught by the checker before lowering
        let err = CompiledPolicy::from_source("cwnd * 1.5", Mode::Kernel).unwrap_err();
        assert_eq!(err.stage(), "check");
    }

    #[test]
    fn from_source_is_parse_then_compile() {
        let err = CompiledPolicy::from_source("not a ( policy", Mode::Lb).unwrap_err();
        assert_eq!(err.stage(), "parse");
        assert_eq!(err.to_string(), parse("not a ( policy").unwrap_err().to_string());
        let src = "server.work_left + req.size * 1000 / server.speed";
        assert_eq!(
            CompiledPolicy::from_source(src, Mode::Lb),
            CompiledPolicy::compile(&parse(src).unwrap(), Mode::Lb)
        );
    }

    #[test]
    fn userspace_defers_division_faults_to_the_host() {
        // the queue may be empty
        let p = CompiledPolicy::from_source("1000 / server.queue_len", Mode::Lb).unwrap();
        assert!(p.may_fault());
        assert!(p.r0_bounds().is_none());
        let env = MapEnv::new().with(Feature::ServerQueueLen, 0);
        assert!(matches!(p.eval_once(&env), Err(VmError::DivByZero { .. })));
        let env = MapEnv::new().with(Feature::ServerQueueLen, 4);
        assert_eq!(p.eval_once(&env).unwrap(), 250);
    }

    #[test]
    fn cache_features_lower_through_the_generic_layout() {
        // percentile aggregates and history features — none of which had a
        // slot in the old fixed kernel ABI — compile and execute
        let e = parse("if(obj.size > sizes.p50, 0 - obj.age, obj.count * 3)").unwrap();
        let p = CompiledPolicy::compile(&e, Mode::Cache).unwrap();
        assert!(!p.may_fault());
        let env = MapEnv::new()
            .with(Feature::ObjSize, 100)
            .with(Feature::SizesPct(50), 80)
            .with(Feature::ObjAge, 7);
        assert_eq!(p.eval_once(&env).unwrap(), eval(&e, &env).unwrap());
        assert_eq!(p.eval_once(&env).unwrap(), -7);
    }

    #[test]
    fn layout_is_minimal_and_first_use_ordered() {
        let e = parse("srtt - min_rtt + srtt").unwrap();
        let l = CtxLayout::for_expr(&e, Mode::Kernel);
        assert_eq!(l.features(), &[Feature::SrttUs, Feature::MinRttUs]);
        assert_eq!(l.slot(Feature::SrttUs), Some(0));
        assert_eq!(l.slot(Feature::MinRttUs), Some(1));
        assert_eq!(l.slot(Feature::Cwnd), None);
        let venv = l.verify_env();
        assert_eq!(venv.ctx_ranges.len(), 2);
        assert_eq!(venv.ctx_ranges[0], Feature::SrttUs.range());
    }

    #[test]
    fn run_with_env_matches_the_interpreter() {
        let e = parse("cwnd * min_rtt / max(srtt, 1) + (acked / max(mss, 1))").unwrap();
        let p = CompiledPolicy::compile(&e, Mode::Kernel).unwrap();
        let env = cc_env();
        let mut ctx = Vec::new();
        let mut map = vec![0i64; SPILL_SLOTS];
        let got = p.run_with_env(&env, &mut ctx, &mut map).unwrap();
        assert_eq!(got, eval(&e, &env).unwrap());
        // buffers are reusable: second run, same answer, same capacity
        let cap = ctx.capacity();
        assert_eq!(p.run_with_env(&env, &mut ctx, &mut map).unwrap(), got);
        assert_eq!(ctx.capacity(), cap);
    }

    #[test]
    fn r0_bounds_are_sound() {
        let p = CompiledPolicy::from_source("clamp(cwnd * 2, 2, 1024)", Mode::Kernel).unwrap();
        let r0 = p.r0_bounds().unwrap();
        assert!(r0.lo >= 2 && r0.hi <= 1024, "{r0:?}");
        let got = p.eval_once(&cc_env()).unwrap();
        assert!(r0.lo <= got && got <= r0.hi);
    }

    #[test]
    fn kernel_budgets_are_tighter() {
        // balanced sum of 200 ones: 399 nodes, shallow — inside the cache
        // budget (512) but over the kernel budget (256)
        let mut leaves: Vec<Expr> = (0..200).map(|_| Expr::int(1)).collect();
        while leaves.len() > 1 {
            leaves = leaves
                .chunks(2)
                .map(|c| match c {
                    [a, b] => Expr::bin(policysmith_dsl::BinOp::Add, a.clone(), b.clone()),
                    [a] => a.clone(),
                    _ => unreachable!(),
                })
                .collect();
        }
        let e = leaves.pop().unwrap();
        assert!(CompiledPolicy::compile(&e, Mode::Cache).is_ok());
        let err = CompiledPolicy::compile(&e, Mode::Kernel).unwrap_err();
        assert_eq!(err.stage(), "check");
    }
}
