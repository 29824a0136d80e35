//! Serving telemetry: the per-window quality samples workers stream to
//! the background controller.

/// One serving window's telemetry, streamed from a worker to the
/// background controller (and kept for the report timeline).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Worker that served the window.
    pub worker: usize,
    /// Worker-local window sequence number.
    pub seq: u64,
    /// Load phase the window's arrivals belong to (drift injection = a
    /// phase boundary).
    pub phase: usize,
    /// Decisions served in the window.
    pub decisions: u64,
    /// The window's quality signal, lower = better (lb: resolved mean
    /// slowdown; cache: window miss ratio). This is what flows into
    /// [`ContextMonitor`](policysmith_core::library::ContextMonitor).
    pub signal: f64,
    /// Policy generation that served the window's *last* decision.
    pub generation: u64,
    /// Microseconds from the run's start to the window's close.
    pub at_micros: u64,
}
