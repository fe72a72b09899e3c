//! A pass of a real-CPU workload: the closed-loop driver runs the
//! clients on OS threads and every time is wall-clock.

use crate::audit::{check_durability, AuditedBank, Recovered};
use crate::counters::Counters;
use crate::latency::{LatencyRecorder, Samples, Window};
use crate::spec::{set_up, Workload, RAMP};
use crate::tracer::SpanTracer;
use sicost_driver::{run, AttemptObserver, RunConfig, RunMetrics};
use sicost_engine::HistoryObserver;
use sicost_mvsg::{CertStats, SamplingCertifier};
use sicost_smallbank::{SmallBank, SmallBankWorkload};
use std::sync::Arc;
use std::time::Duration;

/// Everything one measured pass produced.
pub struct Pass {
    /// Driver counts for the measured window.
    pub run: RunMetrics,
    /// Latency of committed operations in the window (untraced passes).
    pub latency: Samples,
    /// Counters at the start and end of the window.
    pub counters: (Counters, Counters),
    /// The tracer, for traced passes.
    pub tracer: Option<Arc<SpanTracer>>,
    /// Certification verdict, for traced passes of SSI workloads.
    pub cert: Option<CertStats>,
    /// What the durability check measured.
    pub recovered: Recovered,
    /// The bank after the run, for isolated timings.
    pub bank: Arc<SmallBank>,
}

/// Sets the workload up `setups` times (keeping the last copy), runs it
/// for a ramp plus `measure`, then runs the money audit and the
/// durability check. Returns the pass and every set-up time.
pub fn pass(
    workload: Workload,
    seed: u64,
    measure: Duration,
    traced: bool,
    setups: usize,
) -> Result<(Pass, Vec<Duration>), String> {
    let certifier = (traced && workload.is_ssi()).then(SamplingCertifier::with_defaults);
    let tracer = traced.then(|| SpanTracer::new(certifier.clone()));
    let mut setup_times = Vec::new();
    for _ in 1..setups.max(1) {
        setup_times.push(set_up(workload, seed, None).1);
    }
    let observer = tracer.clone().map(|t| t as Arc<dyn HistoryObserver>);
    let (bank, t) = set_up(workload, seed, observer);
    setup_times.push(t);

    let initial = bank.total_balance();
    let audited = AuditedBank::new(Arc::clone(&bank), SmallBankWorkload::new(workload.params()));
    let window = Window::starting_now(RAMP, measure);
    let recorder = Arc::new(LatencyRecorder::new(window));
    let hook: Arc<dyn AttemptObserver> = match &tracer {
        Some(t) => {
            t.set_window(window);
            Arc::clone(t) as Arc<dyn AttemptObserver>
        }
        None => Arc::clone(&recorder) as Arc<dyn AttemptObserver>,
    };
    let config = RunConfig::new(workload.clients())
        .with_ramp_up(window.ramp)
        .with_measure(measure)
        .with_seed(seed)
        .with_observer(hook);
    let db = bank.db();
    let (run, counters) = std::thread::scope(|s| {
        let edges = s.spawn(|| {
            std::thread::sleep(window.ramp);
            let before = Counters::read(db);
            std::thread::sleep(window.measure);
            (before, Counters::read(db))
        });
        let run = run(&audited, &config);
        (run, edges.join().expect("counter reader"))
    });

    audited.audit(initial)?;
    let recovered = check_durability(db, workload.engine())?;
    let cert = certifier.map(|c| {
        c.finish();
        c.stats()
    });
    Ok((
        Pass {
            run,
            latency: recorder.samples(),
            counters,
            tracer,
            cert,
            recovered,
            bank,
        },
        setup_times,
    ))
}
