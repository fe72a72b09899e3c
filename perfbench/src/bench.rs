//! One benchmark run: a workload, a seed, a window length, and whether
//! to trace. Untraced runs give the end-to-end metrics; traced runs give
//! the per-layer metrics, next to an untraced pass they are compared with.

use crate::isolated::{self, Keys};
use crate::latency::{median, Samples};
use crate::model::{self, ModelPass};
use crate::real::{self, Pass};
use crate::spec::Workload;
use crate::tracer::{write_csv, Span};
use crate::{ratio, Report};
use sicost_common::TableId;
use sicost_driver::{KindMetrics, RunMetrics};
use sicost_mvsg::CertStats;
use sicost_smallbank::TxnKind;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Set-ups per untraced run; the median is reported as `setup_s`.
pub const SETUPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seeds the population and every client's request stream.
    pub seed: u64,
    /// Length of the measured window (virtual on the modelled workload).
    pub seconds: u64,
    /// Per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
}

/// Where traced runs write their spans: `out/` beside this crate's
/// manifest, one file per workload, replaced by the next traced run.
pub fn spans_path(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.csv", workload.name()))
}

/// Runs the benchmark; any failed check is an `Err`.
pub fn run(args: &Args) -> Result<Report, String> {
    let measure = Duration::from_secs(args.seconds);
    match (args.workload.is_model(), args.trace) {
        (false, false) => real_end_to_end(args, measure),
        (false, true) => real_layers(args, measure),
        (true, false) => model_end_to_end(args, measure),
        (true, true) => model_layers(args, measure),
    }
}

/// Attempts that failed to commit for a reason other than an
/// application rollback.
fn failed_attempts(k: &KindMetrics) -> u64 {
    k.serialization_failures + k.deadlocks + k.transient_faults + k.indeterminates
}

fn counts(report: &mut Report, run: &RunMetrics) {
    report.attempted = run.attempts();
    report.failed = run.transient_faults() + run.indeterminates();
}

fn end_to_end(report: &mut Report, run: &RunMetrics, latency: &Samples, setups: Vec<Duration>) {
    counts(report, run);
    let failed: u64 = run.per_kind.iter().map(failed_attempts).sum();
    report.sampled("commit_tps", run.tps(), "1/s", run.commits() as usize);
    report.sampled(
        "latency_p50_us",
        latency.quantile_us(0.50),
        "us",
        latency.len(),
    );
    report.sampled(
        "latency_p99_us",
        latency.quantile_us(0.99),
        "us",
        latency.len(),
    );
    report.sampled(
        "failed_ratio",
        ratio(failed as f64, run.attempts() as f64),
        "ratio",
        run.attempts() as usize,
    );
    let n = setups.len();
    report.sampled(
        "setup_s",
        median(setups.iter().map(Duration::as_secs_f64).collect()),
        "s",
        n,
    );
}

fn real_end_to_end(args: &Args, measure: Duration) -> Result<Report, String> {
    let (pass, setups) = real::pass(args.workload, args.seed, measure, false, SETUPS)?;
    let mut report = Report::default();
    end_to_end(&mut report, &pass.run, &pass.latency, setups);
    Ok(report)
}

fn model_end_to_end(args: &Args, measure: Duration) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut first_hash = None;
    for _ in 0..SETUPS {
        let (t, sim) = model::set_up_only(args.workload, args.seed);
        if *first_hash.get_or_insert(sim.trace_hash) != sim.trace_hash {
            return Err("determinism: the same seed set up with different schedules".into());
        }
        setups.push(t);
    }
    let pass = model::pass(args.workload, args.seed, measure, false)?;
    let mut report = Report::default();
    report.notes.push(format!(
        "{SETUPS} same-seed set-ups took the same schedule; run trace_hash {:#018x}",
        pass.report.trace_hash
    ));
    end_to_end(&mut report, &pass.run, &pass.latency, setups);
    Ok(report)
}

fn certified(report: &mut Report, cert: Option<CertStats>) -> Result<(), String> {
    let Some(c) = cert else {
        return Ok(());
    };
    if c.anomalies() > 0 {
        return Err(format!(
            "certification: {} non-serializable cycles in {} certified transactions: {:?}",
            c.anomalies(),
            c.transactions_certified,
            c.witnesses
        ));
    }
    report.notes.push(format!(
        "certified serializable: {} transactions in {} windows, 0 anomalies",
        c.transactions_certified, c.windows_certified
    ));
    Ok(())
}

/// The metrics every traced run reports from its spans and run counts.
/// `virtual_time`: per-kind attempt latency from the virtual clock.
fn span_metrics(report: &mut Report, spans: &[Span], run: &RunMetrics, virtual_time: bool) {
    let measured: Vec<&Span> = spans.iter().filter(|s| s.measured).collect();
    report.layer("driver.attempts", measured.len() as f64, "count");
    for (i, kind) in TxnKind::ALL.iter().enumerate() {
        let (durations, width) = if virtual_time {
            let d = measured
                .iter()
                .filter(|s| s.kind == i)
                .map(|s| s.virtual_ns);
            (d.collect(), model::TICK.as_nanos() as u64)
        } else {
            let d = measured.iter().filter(|s| s.kind == i).map(|s| s.dur_ns);
            (d.collect(), 1)
        };
        let samples = Samples::new(durations, width);
        let name = kind.name();
        report.sampled(
            &format!("smallbank.{name}.attempt_p50_us"),
            samples.quantile_us(0.5),
            "us",
            samples.len(),
        );
        let k = &run.per_kind[i];
        report.sampled(
            &format!("smallbank.{name}.failed_ratio"),
            ratio(failed_attempts(k) as f64, k.attempts() as f64),
            "ratio",
            k.attempts() as usize,
        );
    }
    let n = measured.len() as f64;
    let mean_us =
        |f: fn(&Span) -> u64| ratio(measured.iter().map(|s| f(s) as f64).sum::<f64>() / 1e3, n);
    report.sampled(
        "engine.self_us_per_attempt",
        mean_us(Span::self_ns),
        "us",
        measured.len(),
    );
    report.sampled(
        "engine.lock_wait_us_per_attempt",
        mean_us(|s| s.lock_wait_ns),
        "us",
        measured.len(),
    );
    report.sampled(
        "engine.wal_sync_us_per_attempt",
        mean_us(|s| s.wal_sync_ns),
        "us",
        measured.len(),
    );
}

/// The isolated per-layer costs, keyed like `table`'s rows.
fn isolated_metrics(
    report: &mut Report,
    workload: Workload,
    seed: u64,
    table: TableId,
    storage_read_ns: f64,
) {
    let mut keys = Keys::new(&workload.params(), seed);
    report.layer(
        "engine.ssi.txn_cycle_ns",
        isolated::ssi_cycle_ns(table, &mut keys),
        "ns",
    );
    report.layer(
        "engine.locks.acquire_release_ns",
        isolated::lock_cycle_ns(table, &mut keys),
        "ns",
    );
    report.layer("storage.read_ns", storage_read_ns, "ns");
    report.layer(
        "wal.commit_ns",
        isolated::wal_commit_ns(table, &mut keys),
        "ns",
    );
}

fn write_spans(workload: Workload, spans: &[Span]) -> Result<(), String> {
    let path = spans_path(workload);
    write_csv(&path, spans).map_err(|e| format!("writing spans to {}: {e}", path.display()))
}

fn real_layers(args: &Args, measure: Duration) -> Result<Report, String> {
    let (untraced, _) = real::pass(args.workload, args.seed, measure, false, 1)?;
    let (pass, _): (Pass, _) = real::pass(args.workload, args.seed, measure, true, 1)?;
    let mut report = Report::default();
    certified(&mut report, pass.cert.clone())?;
    let spans = pass.tracer.as_ref().map(|t| t.spans()).unwrap_or_default();
    write_spans(args.workload, &spans)?;

    counts(&mut report, &pass.run);
    span_metrics(&mut report, &spans, &pass.run, false);
    let (before, after) = &pass.counters;
    crate::counters::layer_metrics(before, after, pass.run.measured.as_secs_f64(), &mut report);
    let checking = pass.bank.tables().checking;
    let mut keys = Keys::new(&args.workload.params(), args.seed);
    let read_ns = isolated::storage_read_ns(pass.bank.db(), checking, &mut keys);
    isolated_metrics(&mut report, args.workload, args.seed, checking, read_ns);
    recovery_metrics(&mut report, &pass.recovered);
    report.layer("sim.decisions_per_commit", 0.0, "count");
    report.layer("sim.wall_s", 0.0, "s");
    report.layer("process.peak_rss_mb", peak_rss_mb(), "MB");
    report.layer(
        "trace.overhead_ratio",
        1.0 - ratio(pass.run.tps(), untraced.run.tps()),
        "ratio",
    );
    Ok(report)
}

fn recovery_metrics(report: &mut Report, recovered: &crate::audit::Recovered) {
    report.layer(
        "wal.recover_ms",
        recovered.elapsed.as_secs_f64() * 1e3,
        "ms",
    );
    report.layer("wal.replayed_bytes", recovered.replayed_bytes as f64, "B");
}

/// Two same-seed passes must take the same schedule and count the same.
fn same_schedule(a: &ModelPass, b: &ModelPass) -> Result<(), String> {
    let tally = |p: &ModelPass| -> Vec<(u64, u64)> {
        p.run
            .per_kind
            .iter()
            .map(|k| (k.commits, failed_attempts(k)))
            .collect()
    };
    if a.report != b.report || tally(a) != tally(b) {
        return Err(format!(
            "determinism: same seed diverged: {:?} vs {:?}, counts {:?} vs {:?}",
            a.report,
            b.report,
            tally(a),
            tally(b)
        ));
    }
    Ok(())
}

fn model_layers(args: &Args, measure: Duration) -> Result<Report, String> {
    let untraced = model::pass(args.workload, args.seed, measure, false)?;
    let pass = model::pass(args.workload, args.seed, measure, true)?;
    same_schedule(&untraced, &pass)?;
    let mut report = Report::default();
    report.notes.push(format!(
        "untraced and traced passes took the same schedule: trace_hash {:#018x}, {} decisions",
        pass.report.trace_hash, pass.report.decisions
    ));
    certified(&mut report, pass.cert.clone())?;
    let spans = pass.tracer.as_ref().map(|t| t.spans()).unwrap_or_default();
    write_spans(args.workload, &spans)?;

    counts(&mut report, &pass.run);
    span_metrics(&mut report, &spans, &pass.run, true);
    let (before, after) = &pass.counters;
    crate::counters::layer_metrics(before, after, measure.as_secs_f64(), &mut report);
    isolated_metrics(
        &mut report,
        args.workload,
        args.seed,
        pass.checking,
        pass.storage_read_ns.unwrap_or_default(),
    );
    recovery_metrics(&mut report, &pass.recovered);
    report.layer(
        "sim.decisions_per_commit",
        ratio(pass.report.decisions as f64, after.engine.commits as f64),
        "count",
    );
    report.layer("sim.wall_s", untraced.wall.as_secs_f64(), "s");
    report.layer("process.peak_rss_mb", peak_rss_mb(), "MB");
    report.layer(
        "trace.overhead_ratio",
        ratio(pass.wall.as_secs_f64(), untraced.wall.as_secs_f64()) - 1.0,
        "ratio",
    );
    Ok(report)
}

/// Peak resident set size of this process, from `getrusage`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` matches the layout of `struct rusage` on 64-bit
    // Linux, and RUSAGE_SELF (0) only fills the struct passed in.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    if rc != 0 {
        return 0.0;
    }
    // SAFETY: getrusage succeeded, so the struct is initialised.
    unsafe { usage.assume_init() }.maxrss_kb as f64 / 1024.0
}

/// Peak resident set size is only read on 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mb() -> f64 {
    0.0
}
