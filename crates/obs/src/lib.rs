//! Observability substrate for the speculative query processor.
//!
//! Everything the rest of the workspace needs to answer "what did the
//! system do, and were its predictions any good?" lives here:
//!
//! * [`MetricsRegistry`] — named counters, gauges and histograms with
//!   cheap atomic updates and a zero-overhead disabled mode (a disabled
//!   counter is a `None` branch, not an atomic).
//! * [`Tracer`] — dual-clock spans over the whole pipeline. The
//!   speculation lifecycle rides on them: each build is a `speculate`
//!   span, and its cancellation, completion, use, waste and garbage
//!   collection are [`SpanKind::Speculation`] instants keyed to that
//!   span's id.
//! * [`CalibrationTracker`] — pairs the speculator's *predicted* build
//!   times and think-time deltas with the *realized* virtual times, and
//!   summarizes relative error.
//! * [`Observer`] — a cheaply clonable bundle of the three, carrying a
//!   shared virtual-time "now" so spans are stamped in experiment time
//!   rather than wall time.
//!
//! This crate sits below the storage layer on purpose: it knows nothing
//! about pages, queries or speculation policy, and represents time as
//! plain microsecond integers so any clock can drive it.

#![warn(missing_docs)]

pub mod calibration;
pub mod metrics;
pub mod span;

pub use calibration::{CalibrationReport, CalibrationTracker};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use span::{AttrValue, OperatorProfile, SpanHandle, SpanKind, SpanRecord, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cheaply clonable bundle of metrics, calibration tracker, span
/// tracer, and the current virtual time.
///
/// Subsystems hold a clone and never care whether observability is on:
/// [`Observer::disabled`] makes every operation a near-free no-op.
#[derive(Clone)]
pub struct Observer {
    metrics: MetricsRegistry,
    calibration: Arc<CalibrationTracker>,
    now_micros: Arc<AtomicU64>,
    tracer: Tracer,
}

impl Observer {
    /// An observer that records metrics and calibration.
    ///
    /// Span tracing follows the environment: set `SPECDB_TRACE=1` to
    /// record spans (see [`Tracer::from_env`]).
    pub fn enabled() -> Self {
        Observer {
            metrics: MetricsRegistry::new(),
            calibration: Arc::new(CalibrationTracker::new()),
            now_micros: Arc::new(AtomicU64::new(0)),
            tracer: Tracer::from_env(),
        }
    }

    /// An observer for which every operation is a no-op.
    pub fn disabled() -> Self {
        Observer {
            metrics: MetricsRegistry::disabled(),
            calibration: Arc::new(CalibrationTracker::new()),
            now_micros: Arc::new(AtomicU64::new(0)),
            tracer: Tracer::disabled(),
        }
    }

    /// Replace the span tracer, keeping everything else.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The span tracer backing this observer (cheap to clone; disabled
    /// unless explicitly enabled or `SPECDB_TRACE` is set).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry backing this observer.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The calibration tracker backing this observer.
    pub fn calibration(&self) -> &CalibrationTracker {
        &self.calibration
    }

    /// Advance the shared virtual clock used to stamp spans.
    ///
    /// The clock is monotone: attempts to move it backwards are ignored,
    /// so concurrent writers can race harmlessly.
    pub fn set_now_micros(&self, micros: u64) {
        self.now_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// The current virtual time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.now_micros.load(Ordering::Relaxed)
    }
}

impl Default for Observer {
    fn default() -> Self {
        Observer::disabled()
    }
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("metrics_enabled", &self.metrics.is_enabled())
            .field("now_micros", &self.now_micros())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        let c = obs.metrics().counter("x");
        c.incr();
        assert!(obs.metrics().snapshot().counters.is_empty());
        obs.tracer().instant(SpanKind::Speculation, "gc", 0, |_| panic!("must not run"));
        assert!(obs.tracer().spans().is_empty());
    }

    #[test]
    fn tracer_rides_along_and_defaults_off() {
        let obs = Observer::disabled();
        assert!(!obs.tracer().is_enabled());
        let traced = Observer::enabled().with_tracer(Tracer::enabled());
        let span = traced.tracer().begin(SpanKind::Session, "s", 0);
        span.finish(1);
        assert_eq!(traced.tracer().spans().len(), 1);
        // Clones share the tracer.
        assert_eq!(traced.clone().tracer().spans().len(), 1);
    }

    #[test]
    fn clock_is_monotone_and_shared() {
        let obs = Observer::enabled();
        let clone = obs.clone();
        obs.set_now_micros(500);
        clone.set_now_micros(300);
        assert_eq!(obs.now_micros(), 500);
        clone.set_now_micros(900);
        assert_eq!(obs.now_micros(), 900);
    }
}
