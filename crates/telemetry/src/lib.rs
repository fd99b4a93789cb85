//! `dpm-telemetry` — self-telemetry for the distributed programs
//! monitor.
//!
//! The monitor watches user programs; this crate watches the monitor.
//! It is dependency-free and exposes three primitives plus a process
//! global of each:
//!
//! - a [`Registry`] of lock-free [`Counter`]s, [`Gauge`]s, and
//!   log2-bucketed [`Histogram`]s, keyed `(component, name, label)`,
//!   snapshottable and renderable as Prometheus-style text, line
//!   JSON, or the controller's `stats` readout;
//! - a [`FlightRecorder`] ring of recent internal events, dumped as a
//!   causal timeline on invariant failure or panic;
//! - a shared time base: [`epoch`]/[`now_us`] give every component
//!   the same real-time origin, so timestamps stamped in one stage
//!   (e.g. a `LogStore` append) can be subtracted in another (the
//!   live engine) to build end-to-end staleness histograms.
//!
//! ## Clock domains
//!
//! The simulation has two time domains. *Virtual* time is the
//! discrete-event clock, viewed through deliberately skewed
//! per-machine clocks — meter records carry a virtual `cpu_time`
//! stamped by the emitting machine, so emit→ingest staleness is
//! computed against the *ingesting* machine's clock and is only as
//! honest as the skew between the two (the paper's own caveat).
//! *Real* time is [`now_us`]: wall-clock microseconds since a
//! process-wide [`epoch`]. Store append timestamps use real time, so
//! append→seal, append→apply, and append→window staleness are exact.
//! The two domains are never mixed in a single histogram.
//!
//! ## Cost and the kill switch
//!
//! Recording is a few relaxed atomic ops; registration (which takes a
//! lock) happens once per call site, with the handle cached. The
//! runtime kill switch ([`set_enabled`]) turns every recording call
//! into one relaxed load and a branch — the overhead benchmark
//! compares enabled vs disabled on the ingest path. The `noop` cargo
//! feature compiles recording bodies out entirely for a
//! belt-and-braces floor.

#![forbid(unsafe_code)]

mod flight;
mod metrics;
mod registry;

pub use flight::{FlightEvent, FlightRecorder, FLIGHT_CAPACITY};
pub use metrics::{bucket_bounds, Counter, Gauge, HistSnapshot, Histogram, HIST_BUCKETS};
pub use registry::{MetricSnapshot, MetricValue, Registry, TelemetrySnapshot};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry recording is live. Checked (relaxed) inside
/// every recording call.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "noop")]
    {
        false
    }
    #[cfg(not(feature = "noop"))]
    {
        ENABLED.load(Ordering::Relaxed)
    }
}

/// Turns all telemetry recording on or off at runtime. Readouts keep
/// working either way; while off they simply stop moving.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide real-time origin. First caller pins it; every
/// component measures against the same instant, which is what makes
/// cross-stage timestamp arithmetic meaningful.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds of real time since [`epoch`].
#[inline]
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// The process-global metric registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// The process-global flight recorder.
pub fn flight() -> &'static FlightRecorder {
    static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();
    FLIGHT.get_or_init(FlightRecorder::default)
}

/// Notes an event on the global flight recorder.
pub fn note(component: &str, label: &str, what: impl Into<String>) {
    flight().note(component, label, what);
}

static LAST_DUMP: Mutex<Option<String>> = Mutex::new(None);

/// Dumps the global flight recorder to stderr with `reason` as the
/// headline, remembers the rendered text for [`last_dump`], and
/// returns it. Called by the chaos invariant checkers on failure and
/// by the installed panic hook.
pub fn dump_failure(reason: &str) -> String {
    let txt = flight().render(reason);
    eprintln!("{txt}");
    *LAST_DUMP.lock().unwrap() = Some(txt.clone());
    txt
}

/// The most recent [`dump_failure`] output, if any. Lets tests assert
/// on the dump without scraping stderr.
pub fn last_dump() -> Option<String> {
    LAST_DUMP.lock().unwrap().clone()
}

/// Installs a panic hook (once, chaining the previous hook) that
/// dumps the flight recorder when any thread panics — a component
/// dying mid-pipeline leaves a timeline behind.
pub fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let what = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            let loc = info
                .location()
                .map(|l| format!(" at {}:{}", l.file(), l.line()))
                .unwrap_or_default();
            // Tests exercise panics on purpose (should_panic, chaos
            // probes); only dump when the recorder saw real traffic.
            if !flight().is_empty() {
                dump_failure(&format!("panic: {what}{loc}"));
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_failure_is_retained_for_inspection() {
        note("test", "bsd1->bsd2", "link dropped");
        let txt = dump_failure("unit test reason");
        assert!(txt.contains("unit test reason"));
        assert_eq!(last_dump().as_deref(), Some(txt.as_str()));
    }

    #[test]
    fn now_us_is_monotonic_from_a_shared_epoch() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
