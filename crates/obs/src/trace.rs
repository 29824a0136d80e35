//! Policy-lifecycle tracing: a bounded ring-buffer event log with spans
//! over the whole §3.1 loop — search rounds with their `CostLedger`
//! deltas, guard verdicts, `PolicyCell` publishes, fault-latch demotions,
//! retry/backoff attempts.
//!
//! Events are control-plane rate (per round / per publish / per window,
//! never per decision), so the log is a mutex-guarded ring: overwrite-
//! oldest on overflow, a monotone sequence number to slice by, and an
//! `enabled` gate whose disabled path is one relaxed atomic load.
//!
//! Emission sites (`core::search`, `core::library`, `serve::guard` via
//! `serve::runtime`, `serve::swap`) write to the process-global log
//! ([`global`]) because `SearchConfig` is `Copy` and threaded through
//! executors — the same shape as the `log` crate's global logger.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What happened, with the numbers that matter for that lifecycle stage.
///
/// Fields are plain numbers/strings so obs depends on no other workspace
/// crate: emitters translate their own types at the call site.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A search round began generating candidates (with lagged exemplars
    /// the search opens round `n+1` before round `n`'s end event).
    SearchRoundStart {
        /// Round index within its search.
        round: usize,
    },
    /// A search round folded its results: the per-round `CostLedger`
    /// deltas plus where the search stands.
    SearchRoundEnd {
        /// Round index within its search.
        round: usize,
        /// Candidates the generator produced this round.
        generated: usize,
        /// Candidates that passed checking (memo hits included).
        accepted: usize,
        /// Candidates actually evaluated (memo misses).
        evaluated: usize,
        /// Candidates answered from the score memo.
        memo_hits: usize,
        /// Generator wall seconds spent on this round.
        gen_seconds: f64,
        /// Best score found in this round (higher is better; -inf if none).
        round_best: f64,
        /// Best score so far across rounds.
        best_so_far: f64,
    },
    /// A search completed; the final `CostLedger` totals.
    SearchDone {
        /// Rounds run.
        rounds: usize,
        /// Total candidates evaluated (memo misses).
        candidates_evaluated: usize,
        /// Total memo hits.
        memo_hits: usize,
        /// LLM input (prompt) tokens consumed.
        tokens_in: u64,
        /// LLM output (completion) tokens consumed.
        tokens_out: u64,
        /// Generator wall seconds.
        gen_seconds: f64,
        /// Evaluation wall seconds.
        eval_seconds: f64,
        /// Evaluation CPU seconds (summed across eval workers).
        eval_cpu_seconds: f64,
        /// Winning score (higher is better).
        best_score: f64,
    },
    /// The publication guard admitted a candidate.
    GuardAdmit {
        /// Drifted context label the candidate was screened in.
        context: String,
        /// Candidate score in that context.
        candidate_score: f64,
        /// Incumbent's shadow score in the same context.
        incumbent_score: f64,
    },
    /// The publication guard rejected a candidate.
    GuardReject {
        /// Drifted context label the candidate was screened in.
        context: String,
        /// Human-readable rejection reason (`RejectReason::describe`).
        reason: String,
        /// Candidate score (NaN when the candidate faulted).
        candidate_score: f64,
        /// Incumbent's shadow score.
        incumbent_score: f64,
    },
    /// A `PolicyCell` publish: the moment a policy generation went live.
    Publish {
        /// Generation number the cell moved to.
        generation: u64,
        /// Provenance string recorded in the swap log.
        provenance: String,
    },
    /// A worker's fault latch tripped: local demotion to the baseline.
    Demotion {
        /// Worker that demoted itself.
        worker: usize,
        /// Generation of the policy that faulted.
        generation: u64,
        /// What the host observed (e.g. "non-finite score").
        fault: String,
    },
    /// One failed attempt inside the retry/backoff loop.
    RetryAttempt {
        /// 1-based attempt index.
        attempt: u32,
        /// The generator/search error for this attempt.
        error: String,
        /// Backoff before the next attempt, milliseconds.
        backoff_ms: u64,
    },
    /// The retry loop gave up.
    RetryGaveUp {
        /// Attempts consumed.
        attempts: u32,
        /// Why ("attempts exhausted" / "deadline exceeded").
        why: String,
    },
}

impl TraceKind {
    /// Stable label for export and filtering.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::SearchRoundStart { .. } => "search_round_start",
            TraceKind::SearchRoundEnd { .. } => "search_round_end",
            TraceKind::SearchDone { .. } => "search_done",
            TraceKind::GuardAdmit { .. } => "guard_admit",
            TraceKind::GuardReject { .. } => "guard_reject",
            TraceKind::Publish { .. } => "publish",
            TraceKind::Demotion { .. } => "demotion",
            TraceKind::RetryAttempt { .. } => "retry_attempt",
            TraceKind::RetryGaveUp { .. } => "retry_gave_up",
        }
    }
}

/// One event in the lifecycle log.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotone per-log sequence number (never reused, survives
    /// overwrites — `seq` gaps reveal dropped history).
    pub seq: u64,
    /// Microseconds since the log was created.
    pub at_micros: u64,
    /// What happened.
    pub kind: TraceKind,
}

struct LogInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded ring-buffer trace log (overwrite-oldest).
pub struct TraceLog {
    inner: Mutex<LogInner>,
    capacity: usize,
    enabled: AtomicBool,
    next_seq: AtomicU64,
    start: Instant,
}

impl TraceLog {
    /// A log holding at most `capacity` events.
    pub fn new(capacity: usize) -> TraceLog {
        TraceLog {
            inner: Mutex::new(LogInner { events: VecDeque::new(), dropped: 0 }),
            capacity: capacity.max(1),
            enabled: AtomicBool::new(true),
            next_seq: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Gate emission. Disabled emit is one relaxed load.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Is emission enabled?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Append an event (dropped silently while disabled).
    pub fn emit(&self, kind: TraceKind) {
        if !self.enabled() {
            return;
        }
        let at_micros = self.start.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock().unwrap();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(TraceEvent { seq, at_micros, kind });
    }

    /// The sequence number the *next* event will get. Record it before a
    /// phase, then [`events_since`](Self::events_since) to slice that
    /// phase's events out of the shared log.
    pub fn seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Events with `seq >= since` still in the ring, in order.
    pub fn events_since(&self, since: u64) -> Vec<TraceEvent> {
        let inner = self.inner.lock().unwrap();
        inner.events.iter().filter(|e| e.seq >= since).cloned().collect()
    }

    /// Everything still in the ring, in order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events_since(0)
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten by the bounded ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }
}

/// The process-global lifecycle log (capacity 65 536 events).
pub fn global() -> &'static TraceLog {
    static GLOBAL: OnceLock<TraceLog> = OnceLock::new();
    GLOBAL.get_or_init(|| TraceLog::new(65_536))
}

/// Emit to the global log. The one-liner every instrumentation site uses.
#[inline]
pub fn emit(kind: TraceKind) {
    global().emit(kind);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_seq_monotone() {
        let log = TraceLog::new(3);
        for round in 0..5 {
            log.emit(TraceKind::SearchRoundStart { round });
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(log.dropped(), 2);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest two overwritten, seq preserved");
    }

    #[test]
    fn events_since_slices_a_phase() {
        let log = TraceLog::new(16);
        log.emit(TraceKind::SearchRoundStart { round: 0 });
        let mark = log.seq();
        log.emit(TraceKind::Publish { generation: 1, provenance: "p".into() });
        log.emit(TraceKind::RetryGaveUp { attempts: 4, why: "attempts exhausted".into() });
        let slice = log.events_since(mark);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice[0].kind.label(), "publish");
        assert_eq!(slice[1].kind.label(), "retry_gave_up");
    }

    #[test]
    fn disabled_log_drops_events_cheaply() {
        let log = TraceLog::new(4);
        log.set_enabled(false);
        log.emit(TraceKind::SearchRoundStart { round: 0 });
        assert!(log.is_empty());
        log.set_enabled(true);
        log.emit(TraceKind::SearchRoundStart { round: 1 });
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn global_log_accepts_marked_events() {
        // other tests share the global log (tests run in parallel), so
        // only assert on events this test emitted, found by marker.
        let mark = global().seq();
        emit(TraceKind::Demotion { worker: 123_456, generation: 9, fault: "marker".into() });
        let mine: Vec<_> = global()
            .events_since(mark)
            .into_iter()
            .filter(|e| matches!(&e.kind, TraceKind::Demotion { worker, .. } if *worker == 123_456))
            .collect();
        assert_eq!(mine.len(), 1);
    }
}
