//! A pass of the modelled workload: the whole run — set-up, clients, WAL
//! daemon, checks — executes under the deterministic simulator, and every
//! reported time except `wall` is virtual.
//!
//! The simulator has no public clock, so the root task keeps one: it
//! sleeps [`TICK`] of virtual time at a time and counts the ticks. It
//! also marks the measured window. A client reads the tick count around
//! each attempt, which gives the attempt's virtual latency to within one
//! tick.

use crate::audit::{check_durability, AuditedBank, Recovered};
use crate::counters::Counters;
use crate::isolated::{storage_read_ns, Keys};
use crate::latency::Samples;
use crate::spec::{set_up, Workload, RAMP};
use crate::tracer::SpanTracer;
use sicost_common::sync::{sim_sleep, sim_spawn};
use sicost_common::{TableId, Xoshiro256};
use sicost_driver::{AttemptObserver, Outcome, RunMetrics, Workload as _};
use sicost_engine::HistoryObserver;
use sicost_mvsg::{CertStats, SamplingCertifier};
use sicost_sim::{Sim, SimReport};
use sicost_smallbank::SmallBankWorkload;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resolution of the virtual clock.
pub const TICK: Duration = Duration::from_micros(50);

const WARMING: u8 = 0;
const MEASURING: u8 = 1;
const DONE: u8 = 2;

/// Everything one simulated pass produced.
pub struct ModelPass {
    /// Client counts for the measured window (`measured` is virtual).
    pub run: RunMetrics,
    /// Virtual latency of committed operations in the window.
    pub latency: Samples,
    /// Counters at the start and end of the window.
    pub counters: (Counters, Counters),
    /// The tracer, for traced passes.
    pub tracer: Option<Arc<SpanTracer>>,
    /// Certification verdict, for traced passes.
    pub cert: Option<CertStats>,
    /// What the durability check measured.
    pub recovered: Recovered,
    /// `TableStore::read_at` cost on the post-run tables (traced passes).
    pub storage_read_ns: Option<f64>,
    /// The `Checking` table's id.
    pub checking: TableId,
    /// The simulator's fingerprint of the run.
    pub report: SimReport,
    /// Wall-clock time the simulation took.
    pub wall: Duration,
}

fn ticks(d: Duration) -> u64 {
    (d.as_nanos() / TICK.as_nanos()) as u64
}

/// Sets the workload up alone under the simulator, returning the wall
/// time set-up took and the run's fingerprint.
pub fn set_up_only(workload: Workload, seed: u64) -> (Duration, SimReport) {
    Sim::new(seed).run(|| set_up(workload, seed, None).1)
}

/// Runs one simulated pass: set-up, a virtual ramp, a virtual window of
/// `measure`, then the money audit and the durability check.
pub fn pass(
    workload: Workload,
    seed: u64,
    measure: Duration,
    traced: bool,
) -> Result<ModelPass, String> {
    let certifier = traced.then(SamplingCertifier::with_defaults);
    let tracer = traced.then(|| SpanTracer::new(certifier.clone()));
    let observer = tracer.clone().map(|t| t as Arc<dyn HistoryObserver>);
    let sim_tracer = tracer.clone();
    let t0 = Instant::now();
    let (result, report) = Sim::new(seed).run(move || -> Result<_, String> {
        let (bank, _) = set_up(workload, seed, observer);
        let initial = bank.total_balance();
        let audited = Arc::new(AuditedBank::new(
            Arc::clone(&bank),
            SmallBankWorkload::new(workload.params()),
        ));
        let phase = Arc::new(AtomicU8::new(WARMING));
        let clock = Arc::new(AtomicU64::new(0));
        let base = Xoshiro256::seed_from_u64(seed);
        let ramp = ticks(RAMP);
        let clients: Vec<_> = (0..workload.clients())
            .map(|i| {
                let (audited, phase, clock) =
                    (Arc::clone(&audited), Arc::clone(&phase), Arc::clone(&clock));
                let tracer = sim_tracer.clone();
                let mut rng = base.stream(i as u64);
                sim_spawn(&format!("client-{i}"), move || {
                    let kinds = audited.kinds();
                    let mut run = RunMetrics::new(kinds.clone(), 0);
                    let mut latency = Vec::new();
                    while phase.load(Ordering::Acquire) != DONE {
                        let in_window = phase.load(Ordering::Acquire) == MEASURING;
                        let (kind, request) = audited.sample(&mut rng);
                        if let Some(t) = &tracer {
                            t.attempt_begin(kind, kinds[kind], 1);
                        }
                        let (v0, w0) = (clock.load(Ordering::Acquire), Instant::now());
                        let outcome = audited.execute(&request, 1);
                        let virtual_ns =
                            (clock.load(Ordering::Acquire) - v0) * TICK.as_nanos() as u64;
                        let measured = in_window && phase.load(Ordering::Acquire) == MEASURING;
                        if let Some(t) = &tracer {
                            t.end_attempt(outcome, w0.elapsed(), virtual_ns, measured);
                        }
                        if measured {
                            run.per_kind[kind].record(outcome, Duration::ZERO);
                            if outcome == Outcome::Committed {
                                latency.push(virtual_ns);
                            }
                        }
                    }
                    (run, latency)
                })
            })
            .collect();

        let db = bank.db();
        let mut before = Counters::default();
        for tick in 0..ramp + ticks(measure) {
            if tick == ramp {
                before = Counters::read(db);
                phase.store(MEASURING, Ordering::Release);
            }
            sim_sleep(TICK);
            clock.fetch_add(1, Ordering::AcqRel);
        }
        phase.store(DONE, Ordering::Release);
        let after = Counters::read(db);

        let mut run = RunMetrics::new(audited.kinds(), workload.clients());
        let mut latency = Vec::new();
        for client in clients {
            let (part, lat) = client.join().expect("client task");
            for (agg, k) in run.per_kind.iter_mut().zip(&part.per_kind) {
                agg.merge(k);
            }
            latency.extend(lat);
        }
        run.measured = measure;

        audited.audit(initial)?;
        let recovered = check_durability(db, workload.engine())?;
        let storage_read_ns = traced.then(|| {
            let mut keys = Keys::new(&workload.params(), seed);
            storage_read_ns(db, bank.tables().checking, &mut keys)
        });
        let checking = bank.tables().checking;
        Ok((
            run,
            latency,
            (before, after),
            recovered,
            storage_read_ns,
            checking,
        ))
    });
    let wall = t0.elapsed();
    let (run, latency, counters, recovered, storage_read_ns, checking) = result?;
    let cert = certifier.map(|c| {
        c.finish();
        c.stats()
    });
    Ok(ModelPass {
        run,
        latency: Samples::new(latency, TICK.as_nanos() as u64),
        counters,
        tracer,
        cert,
        recovered,
        storage_read_ns,
        checking,
        report,
        wall,
    })
}
