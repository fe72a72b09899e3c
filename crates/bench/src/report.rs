//! Versioned, machine-readable benchmark reports.
//!
//! Every bench harness fills one [`BenchReport`] and calls
//! [`BenchReport::emit`], which prints [`BenchReport::render`] (the one
//! place a report becomes text) and writes the report to
//! `bench_results/<name>.json` at the repo root (override the directory
//! with `SICOST_BENCH_RESULTS`). The `bench_summary` binary validates
//! the set and folds it into `BENCH_smallbank.json`.
//!
//! The schema is hand-rolled JSON over [`sicost_common::Json`] — the
//! build is offline, so there is no serde. [`BenchReport::from_json`]
//! round-trips everything [`BenchReport::to_json`] emits; derived
//! quantities (`si_anomalies`, `anomalies_per_1k`) are re-computed on
//! parse rather than trusted.

use crate::mode::BenchMode;
use sicost_common::{Json, Summary};
use sicost_mvsg::CertStats;
use sicost_trace::KindSummary;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Version stamped into every report as `schema_version`. Bump when a
/// field changes meaning; consumers must reject newer versions.
pub const SCHEMA_VERSION: u64 = 1;

/// One `(x, mean ± ci95)` measurement of a series.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportPoint {
    /// X coordinate (MPL, delay, …).
    pub x: f64,
    /// Mean across repeats.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval.
    pub ci95: f64,
    /// Number of repeats behind the mean.
    pub n: u64,
}

/// A named line of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSeries {
    /// Legend label.
    pub label: String,
    /// Points in ascending x.
    pub points: Vec<ReportPoint>,
}

impl ReportSeries {
    /// An empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends the point `(x, y)`; x must exceed every earlier x.
    pub fn push(&mut self, x: f64, y: Summary) {
        self.points.push(ReportPoint {
            x,
            mean: y.mean,
            ci95: y.ci95,
            n: y.n,
        });
    }

    /// Peak mean across points (0.0 for an empty series).
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.mean).fold(0.0, f64::max)
    }

    /// Mean at the given x, if present.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.mean)
    }
}

/// `series` as a percentage of `base` at each x where `base` is positive.
fn relative_to(series: &ReportSeries, base: &ReportSeries) -> ReportSeries {
    let mut r = ReportSeries::new(series.label.clone());
    for p in &series.points {
        if let Some(b) = base.at(p.x).filter(|b| *b > 0.0) {
            r.points.push(ReportPoint {
                x: p.x,
                mean: 100.0 * p.mean / b,
                ci95: 100.0 * p.ci95 / b,
                n: p.n,
            });
        }
    }
    r
}

/// Series as a table: one row per x, one column per series, cells
/// `mean ±ci95` (`-` where a series has no point at that x).
fn series_table(title: String, x_label: &str, series: &[ReportSeries]) -> ReportTable {
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    let mut columns = vec![x_label.to_string()];
    columns.extend(series.iter().map(|s| s.label.clone()));
    let rows = xs
        .iter()
        .map(|&x| {
            let mut row = vec![format!("{x}")];
            row.extend(series.iter().map(
                |s| match s.points.iter().find(|p| (p.x - x).abs() < 1e-9) {
                    Some(p) => format!("{:.1} ±{:.1}", p.mean, p.ci95),
                    None => "-".into(),
                },
            ));
            row
        })
        .collect();
    ReportTable {
        title,
        columns,
        rows,
    }
}

/// Renders series as CSV: `x,label,mean,ci95,n` rows.
fn csv_table(x_label: &str, series: &[ReportSeries]) -> String {
    let mut out = format!("{x_label},series,mean,ci95,n\n");
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{}\n",
                p.x, s.label, p.mean, p.ci95, p.n
            ));
        }
    }
    out
}

/// A rough terminal line chart (height rows, one glyph per series),
/// enough to eyeball the figure shapes in CI logs.
fn ascii_chart(series: &[ReportSeries], height: usize) -> String {
    let glyphs = ['*', 'o', '+', 'x', '#', '@', '%', '&', '~'];
    let all_points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| (p.x, p.mean)))
        .collect();
    if all_points.is_empty() || height < 2 {
        return String::from("(no data)\n");
    }
    let x_min = all_points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_max = all_points.iter().map(|p| p.0).fold(0.0, f64::max);
    let y_max = all_points.iter().map(|p| p.1).fold(0.0, f64::max).max(1e-9);
    let width = 64usize;
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let g = glyphs[si % glyphs.len()];
        for p in &s.points {
            let xf = if (x_max - x_min).abs() < 1e-9 {
                0.0
            } else {
                (p.x - x_min) / (x_max - x_min)
            };
            let col = ((width - 1) as f64 * xf).round() as usize;
            let row = ((height - 1) as f64 * (1.0 - p.mean / y_max)).round() as usize;
            grid[row.min(height - 1)][col] = g;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{y_max:>10.0} ┤\n"));
    for row in grid {
        out.push_str("           │");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("           └");
    out.push_str(&"─".repeat(width));
    out.push('\n');
    out.push_str(&format!("            {x_min:<10.0}{:>54.0}\n", x_max));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "            {} {}\n",
            glyphs[si % glyphs.len()],
            s.label
        ));
    }
    out
}

/// A free-form table for harnesses whose output is not an x/y sweep
/// (Table I, the Figure 6 abort matrix, micro-benchmarks).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportTable {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows, one cell per column, pre-rendered.
    pub rows: Vec<Vec<String>>,
}

impl ReportTable {
    /// The table as column-aligned text: caption, header, rule, then one
    /// line per row. Each column is as wide as its widest cell, and a cell
    /// holding several lines spans as many text lines.
    fn render(&self) -> String {
        let width = |cell: &str| cell.lines().map(|l| l.chars().count()).max().unwrap_or(0);
        let mut widths: Vec<usize> = self.columns.iter().map(|c| width(c)).collect();
        for row in &self.rows {
            if row.len() > widths.len() {
                widths.resize(row.len(), 0);
            }
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(width(cell));
            }
        }
        let rule = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
        let mut out = format!("{}\n", self.title);
        aligned_row(&mut out, &widths, &self.columns);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            aligned_row(&mut out, &widths, row);
        }
        out
    }
}

/// Appends one table row, padded to `widths`, as one text line per line
/// of its tallest cell.
fn aligned_row(out: &mut String, widths: &[usize], cells: &[String]) {
    let lines: Vec<Vec<&str>> = cells.iter().map(|c| c.lines().collect()).collect();
    let height = lines.iter().map(Vec::len).max().unwrap_or(0).max(1);
    for i in 0..height {
        let text: Vec<String> = widths
            .iter()
            .enumerate()
            .map(|(c, w)| {
                let cell = lines.get(c).and_then(|l| l.get(i)).copied().unwrap_or("");
                // The last column needs no padding.
                let w = if c + 1 < widths.len() { *w } else { 0 };
                format!("{cell:<w$}")
            })
            .collect();
        out.push_str(&text.join(" | "));
        out.push('\n');
    }
}

/// Anomaly-certification results for one strategy line (a
/// [`CertStats`] snapshot tagged with its legend label).
#[derive(Debug, Clone, PartialEq)]
pub struct CertRecord {
    /// Legend label of the certified line.
    pub label: String,
    /// Windows certified (including the trailing partial window).
    pub windows_certified: u64,
    /// Committed transactions across certified windows.
    pub txns_certified: u64,
    /// Two-transaction all-rw witness cycles.
    pub write_skew: u64,
    /// Longer consecutive-rw witness cycles.
    pub dangerous_structure: u64,
    /// Any other witness cycle.
    pub other_cycles: u64,
    /// Human-readable witness cycles (capped by the sampler).
    pub witnesses: Vec<String>,
}

impl CertRecord {
    /// Tags a [`CertStats`] snapshot with its line label.
    pub fn from_stats(label: impl Into<String>, stats: &CertStats) -> Self {
        Self {
            label: label.into(),
            windows_certified: stats.windows_certified,
            txns_certified: stats.transactions_certified,
            write_skew: stats.write_skew,
            dangerous_structure: stats.dangerous_structure,
            other_cycles: stats.other_cycles,
            witnesses: stats.witnesses.clone(),
        }
    }

    /// Write skew plus dangerous structures — the SI hazard family the
    /// paper's strategies eliminate.
    pub fn si_anomalies(&self) -> u64 {
        self.write_skew + self.dangerous_structure
    }

    /// All witness cycles.
    pub fn anomalies(&self) -> u64 {
        self.si_anomalies() + self.other_cycles
    }

    /// Witness cycles per thousand certified transactions (0.0 when
    /// nothing was certified).
    pub fn anomalies_per_1k(&self) -> f64 {
        if self.txns_certified == 0 {
            0.0
        } else {
            self.anomalies() as f64 * 1000.0 / self.txns_certified as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::str(self.label.clone())),
            ("windows_certified", Json::int(self.windows_certified)),
            ("txns_certified", Json::int(self.txns_certified)),
            ("write_skew", Json::int(self.write_skew)),
            ("dangerous_structure", Json::int(self.dangerous_structure)),
            ("other_cycles", Json::int(self.other_cycles)),
            ("si_anomalies", Json::int(self.si_anomalies())),
            ("anomalies_per_1k", Json::Num(self.anomalies_per_1k())),
            (
                "witnesses",
                Json::Arr(self.witnesses.iter().map(Json::str).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            label: req_str(v, "label")?,
            windows_certified: req_u64(v, "windows_certified")?,
            txns_certified: req_u64(v, "txns_certified")?,
            write_skew: req_u64(v, "write_skew")?,
            dangerous_structure: req_u64(v, "dangerous_structure")?,
            other_cycles: req_u64(v, "other_cycles")?,
            witnesses: str_array(v, "witnesses")?,
        })
    }
}

/// Per-program latency aggregation from the trace sink (durations in
/// microseconds, bucket-accurate percentiles).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRecord {
    /// Transaction kind, optionally prefixed `line/kind` when several
    /// lines contribute to one report.
    pub kind: String,
    /// Spans recorded (attempts, all outcomes).
    pub spans: u64,
    /// Committed attempts among them.
    pub committed: u64,
    /// Median attempt latency.
    pub p50_us: f64,
    /// 90th-percentile attempt latency.
    pub p90_us: f64,
    /// 99th-percentile attempt latency.
    pub p99_us: f64,
    /// Slowest attempt.
    pub max_us: f64,
    /// Mean time blocked in WAL group commit.
    pub wal_sync_mean_us: f64,
    /// Mean time blocked acquiring locks.
    pub lock_wait_mean_us: f64,
}

impl LatencyRecord {
    /// Converts a trace-sink [`KindSummary`], optionally prefixing the
    /// kind with the strategy line's label.
    pub fn from_summary(line: Option<&str>, s: &KindSummary) -> Self {
        let micros = |d: std::time::Duration| d.as_secs_f64() * 1e6;
        Self {
            kind: match line {
                Some(l) => format!("{l}/{}", s.kind),
                None => s.kind.clone(),
            },
            spans: s.spans,
            committed: s.committed,
            p50_us: micros(s.latency.quantile(0.50)),
            p90_us: micros(s.latency.quantile(0.90)),
            p99_us: micros(s.latency.quantile(0.99)),
            max_us: micros(s.latency.max()),
            wal_sync_mean_us: micros(s.wal_sync.mean()),
            lock_wait_mean_us: micros(s.lock_wait.mean()),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str(self.kind.clone())),
            ("spans", Json::int(self.spans)),
            ("committed", Json::int(self.committed)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p90_us", Json::Num(self.p90_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("max_us", Json::Num(self.max_us)),
            ("wal_sync_mean_us", Json::Num(self.wal_sync_mean_us)),
            ("lock_wait_mean_us", Json::Num(self.lock_wait_mean_us)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            kind: req_str(v, "kind")?,
            spans: req_u64(v, "spans")?,
            committed: req_u64(v, "committed")?,
            p50_us: req_f64(v, "p50_us")?,
            p90_us: req_f64(v, "p90_us")?,
            p99_us: req_f64(v, "p99_us")?,
            max_us: req_f64(v, "max_us")?,
            wal_sync_mean_us: req_f64(v, "wal_sync_mean_us")?,
            lock_wait_mean_us: req_f64(v, "lock_wait_mean_us")?,
        })
    }
}

/// A harness's complete machine-readable output.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// File stem and unique harness name (`fig7`, `ablation_certify`).
    pub name: String,
    /// Human title.
    pub title: String,
    /// Fidelity mode the run used (`smoke` / `quick` / `full`).
    pub mode: String,
    /// Label of the x axis for `series` (empty when there are none).
    pub x_label: String,
    /// The figure's lines.
    pub series: Vec<ReportSeries>,
    /// Free-form tables.
    pub tables: Vec<ReportTable>,
    /// Online anomaly-certification results, one per certified line.
    pub certification: Vec<CertRecord>,
    /// Per-program latency aggregation from the trace sink.
    pub latency: Vec<LatencyRecord>,
    /// The paper expectation the text output states.
    pub expectation: String,
    /// Anything else worth recording (parameters, caveats).
    pub notes: Vec<String>,
}

impl BenchReport {
    /// An empty report for the given harness.
    pub fn new(name: impl Into<String>, title: impl Into<String>, mode: BenchMode) -> Self {
        Self {
            name: name.into(),
            title: title.into(),
            mode: mode.name().into(),
            x_label: String::new(),
            series: Vec::new(),
            tables: Vec::new(),
            certification: Vec::new(),
            latency: Vec::new(),
            expectation: String::new(),
            notes: Vec::new(),
        }
    }

    /// Adds the figure's swept series under the x-axis label they share.
    ///
    /// Panics if the report already holds series under a different x
    /// label, or if a series' x values do not strictly ascend: one
    /// report has one x axis.
    pub fn push_series(&mut self, x_label: &str, series: impl IntoIterator<Item = ReportSeries>) {
        assert!(
            self.series.is_empty() || self.x_label == x_label,
            "report `{}`: series under x label {x_label:?} conflict with {:?}",
            self.name,
            self.x_label
        );
        self.x_label = x_label.to_string();
        for s in series {
            assert!(
                s.points.windows(2).all(|w| w[0].x < w[1].x),
                "report `{}`: series `{}` x values must strictly ascend",
                self.name,
                s.label
            );
            self.series.push(s);
        }
    }

    /// Adds a free-form table.
    pub fn push_table(
        &mut self,
        title: impl Into<String>,
        columns: Vec<String>,
        rows: Vec<Vec<String>>,
    ) {
        self.tables.push(ReportTable {
            title: title.into(),
            columns,
            rows,
        });
    }

    /// The report as text: the title; the series as a table, a
    /// relative-to-first-line table (the paper's "(b)" panels), a chart
    /// and CSV; every table; the certification panel with its witnesses;
    /// then the expectation and the notes.
    pub fn render(&self) -> String {
        let rule = "=".repeat(66);
        let mut out = format!("\n{rule}\n{}\n{rule}\n", self.title);
        if let [base, rest @ ..] = self.series.as_slice() {
            let table = series_table("mean ±ci95:".into(), &self.x_label, &self.series);
            let _ = writeln!(out, "{}", table.render());
            if !rest.is_empty() {
                let rel: Vec<ReportSeries> = rest.iter().map(|s| relative_to(s, base)).collect();
                let title = format!("Relative to {} (the paper's (b) panel), %:", base.label);
                let _ = writeln!(out, "{}", series_table(title, &self.x_label, &rel).render());
            }
            let _ = writeln!(out, "{}", ascii_chart(&self.series, 16));
            let _ = writeln!(
                out,
                "--- CSV ---\n{}",
                csv_table(&self.x_label, &self.series)
            );
        }
        for t in &self.tables {
            let _ = writeln!(out, "{}", t.render());
        }
        if !self.certification.is_empty() {
            let panel = ReportTable {
                title: "Online MVSG certification (sampled windows):".into(),
                columns: [
                    "line",
                    "windows",
                    "txns",
                    "write-skew",
                    "dangerous",
                    "other",
                    "per-1k",
                ]
                .map(String::from)
                .to_vec(),
                rows: self
                    .certification
                    .iter()
                    .map(|c| {
                        vec![
                            c.label.clone(),
                            c.windows_certified.to_string(),
                            c.txns_certified.to_string(),
                            c.write_skew.to_string(),
                            c.dangerous_structure.to_string(),
                            c.other_cycles.to_string(),
                            format!("{:.3}", c.anomalies_per_1k()),
                        ]
                    })
                    .collect(),
            };
            out.push_str(&panel.render());
            for c in &self.certification {
                for w in &c.witnesses {
                    let _ = writeln!(out, "  witness [{}]: {w}", c.label);
                }
            }
            out.push('\n');
        }
        if !self.expectation.is_empty() {
            let _ = writeln!(out, "Expectation: {}", self.expectation);
        }
        for note in &self.notes {
            let _ = writeln!(out, "Note: {note}");
        }
        out
    }

    /// Prints [`render`](Self::render), writes the report (see
    /// [`write`](Self::write)) and prints the path written.
    pub fn emit(&self) -> PathBuf {
        println!("{}", self.render());
        let path = self.write();
        println!("report: {}", path.display());
        path
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::int(SCHEMA_VERSION)),
            ("name", Json::str(self.name.clone())),
            ("title", Json::str(self.title.clone())),
            ("mode", Json::str(self.mode.clone())),
            ("x_label", Json::str(self.x_label.clone())),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("label", Json::str(s.label.clone())),
                                (
                                    "points",
                                    Json::Arr(
                                        s.points
                                            .iter()
                                            .map(|p| {
                                                Json::obj(vec![
                                                    ("x", Json::Num(p.x)),
                                                    ("mean", Json::Num(p.mean)),
                                                    ("ci95", Json::Num(p.ci95)),
                                                    ("n", Json::int(p.n)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "tables",
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|t| {
                            Json::obj(vec![
                                ("title", Json::str(t.title.clone())),
                                (
                                    "columns",
                                    Json::Arr(t.columns.iter().map(Json::str).collect()),
                                ),
                                (
                                    "rows",
                                    Json::Arr(
                                        t.rows
                                            .iter()
                                            .map(|r| Json::Arr(r.iter().map(Json::str).collect()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "certification",
                Json::Arr(self.certification.iter().map(CertRecord::to_json).collect()),
            ),
            (
                "latency",
                Json::Arr(self.latency.iter().map(LatencyRecord::to_json).collect()),
            ),
            ("expectation", Json::str(self.expectation.clone())),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Parses a report back from its JSON value, rejecting unknown
    /// schema versions.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let version = req_u64(v, "schema_version")?;
        if version > SCHEMA_VERSION {
            return Err(format!(
                "report schema version {version} is newer than supported {SCHEMA_VERSION}"
            ));
        }
        let mut report = Self {
            name: req_str(v, "name")?,
            title: req_str(v, "title")?,
            mode: req_str(v, "mode")?,
            x_label: req_str(v, "x_label")?,
            series: Vec::new(),
            tables: Vec::new(),
            certification: Vec::new(),
            latency: Vec::new(),
            expectation: req_str(v, "expectation")?,
            notes: str_array(v, "notes")?,
        };
        for s in req_arr(v, "series")? {
            let mut points = Vec::new();
            for p in req_arr(s, "points")? {
                points.push(ReportPoint {
                    x: req_f64(p, "x")?,
                    mean: req_f64(p, "mean")?,
                    ci95: req_f64(p, "ci95")?,
                    n: req_u64(p, "n")?,
                });
            }
            report.series.push(ReportSeries {
                label: req_str(s, "label")?,
                points,
            });
        }
        for t in req_arr(v, "tables")? {
            let mut rows = Vec::new();
            for row in req_arr(t, "rows")? {
                let cells = row
                    .as_array()
                    .ok_or("table row is not an array")?
                    .iter()
                    .map(|c| c.as_str().map(str::to_string).ok_or("cell is not a string"))
                    .collect::<Result<Vec<_>, _>>()?;
                rows.push(cells);
            }
            report.tables.push(ReportTable {
                title: req_str(t, "title")?,
                columns: str_array(t, "columns")?,
                rows,
            });
        }
        for c in req_arr(v, "certification")? {
            report.certification.push(CertRecord::from_json(c)?);
        }
        for l in req_arr(v, "latency")? {
            report.latency.push(LatencyRecord::from_json(l)?);
        }
        Ok(report)
    }

    /// Parses a report from JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }

    /// Writes the report to `<results dir>/<name>.json` (pretty-printed)
    /// and returns the path. Panics on I/O failure — a harness that
    /// cannot record its results should fail loudly, not silently.
    pub fn write(&self) -> PathBuf {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        let path = dir.join(format!("{}.json", self.name));
        let mut text = self.to_json().pretty();
        text.push('\n');
        std::fs::write(&path, text)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        path
    }
}

/// The directory reports are written to: `SICOST_BENCH_RESULTS` when
/// set, otherwise `bench_results/` at the repository root (located
/// relative to this crate, so it is independent of the invocation cwd).
pub fn results_dir() -> PathBuf {
    match std::env::var_os("SICOST_BENCH_RESULTS") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results"),
    }
}

/// The names of every harness that must emit a report, in display order.
///
/// Data-driven: the canonical list lives in `src/harnesses.txt` (kept in
/// sync with `benches/*.rs` by a test), so adding a harness means adding
/// one line there instead of editing `bench_summary`. The
/// `SICOST_BENCH_EXPECTED` environment variable (comma-separated names)
/// overrides the list, e.g. to validate a partial local run.
pub fn expected_harnesses() -> Vec<String> {
    if let Ok(names) = std::env::var("SICOST_BENCH_EXPECTED") {
        return names
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
    }
    include_str!("harnesses.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    req(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not a non-negative integer"))
}

fn req_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    req(v, key)?
        .as_array()
        .ok_or_else(|| format!("field `{key}` is not an array"))
}

fn str_array(v: &Json, key: &str) -> Result<Vec<String>, String> {
    req_arr(v, key)?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("element of `{key}` is not a string"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summarize;

    fn separators(line: &str) -> Vec<usize> {
        line.match_indices(" | ").map(|(i, _)| i).collect()
    }

    fn demo_series() -> Vec<ReportSeries> {
        let mut a = ReportSeries::new("SI");
        a.push(1.0, summarize(&[150.0, 160.0]));
        a.push(10.0, summarize(&[800.0, 820.0]));
        a.push(30.0, summarize(&[1150.0, 1140.0]));
        let mut b = ReportSeries::new("MaterializeALL");
        b.push(1.0, summarize(&[120.0]));
        b.push(10.0, summarize(&[600.0]));
        b.push(30.0, summarize(&[850.0]));
        vec![a, b]
    }

    #[test]
    fn table_contains_all_points() {
        let t = series_table("t".into(), "MPL", &demo_series()).render();
        assert!(t.contains("SI"));
        assert!(t.contains("MaterializeALL"));
        assert!(t.contains("1145.0"));
        assert!(t.lines().count() >= 5);
    }

    #[test]
    fn csv_is_machine_readable() {
        let c = csv_table("mpl", &demo_series());
        assert!(c.starts_with("mpl,series,mean,ci95,n\n"));
        assert_eq!(c.lines().count(), 1 + 6);
        assert!(c.contains("30,SI,1145.000"));
    }

    #[test]
    fn chart_renders_glyphs() {
        let chart = ascii_chart(&demo_series(), 10);
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("SI"));
    }

    #[test]
    fn chart_handles_empty() {
        assert_eq!(ascii_chart(&[], 10), "(no data)\n");
    }

    #[test]
    fn series_helpers() {
        let s = &demo_series()[0];
        assert_eq!(s.at(10.0), Some(810.0));
        assert_eq!(s.at(99.0), None);
        assert!((s.peak() - 1145.0).abs() < 1e-9);
    }

    #[test]
    fn relative_panel_is_a_percentage_of_the_first_line() {
        let series = demo_series();
        let rel = relative_to(&series[1], &series[0]);
        assert_eq!(rel.points.len(), 3);
        assert!((rel.at(1.0).unwrap() - 120.0 / 155.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn series_under_the_same_x_label_accumulate() {
        let mut report = BenchReport::new("r", "r", BenchMode::Smoke);
        let [a, b]: [ReportSeries; 2] = demo_series().try_into().unwrap();
        report.push_series("MPL", [a]);
        report.push_series("MPL", [b]);
        assert_eq!(report.x_label, "MPL");
        assert_eq!(report.series.len(), 2);
    }

    #[test]
    #[should_panic(expected = "conflict")]
    fn a_second_x_label_panics() {
        let mut report = BenchReport::new("r", "r", BenchMode::Smoke);
        let [a, b]: [ReportSeries; 2] = demo_series().try_into().unwrap();
        report.push_series("window", [a]);
        report.push_series("workers", [b]);
    }

    #[test]
    #[should_panic(expected = "strictly ascend")]
    fn descending_x_values_panic() {
        let mut s = ReportSeries::new("replayed bytes");
        s.push(0.0, summarize(&[3.0]));
        s.push(37.0, summarize(&[2.0]));
        s.push(9.0, summarize(&[1.0]));
        BenchReport::new("r", "r", BenchMode::Smoke).push_series("interval", [s]);
    }

    #[test]
    fn render_shows_every_series_cell_and_witness_with_aligned_columns() {
        let point = |x, mean| ReportPoint {
            x,
            mean,
            ci95: 1.5,
            n: 2,
        };
        let mut report = BenchReport::new("render", "render test", BenchMode::Smoke);
        report.x_label = "MPL".into();
        report.series = vec![
            ReportSeries {
                label: "SI".into(),
                points: vec![point(1.0, 100.0), point(10.0, 800.0)],
            },
            ReportSeries {
                label: "PromoteWT-upd".into(),
                points: vec![point(1.0, 90.0), point(10.0, 780.0)],
            },
        ];
        let rows = vec![
            vec!["a-cell-much-wider-than-its-header".into(), "12".into()],
            vec!["SI".into(), "4567".into()],
        ];
        report.push_table("sweep", vec!["line".into(), "tps".into()], rows.clone());
        report.certification.push(CertRecord {
            label: "SI".into(),
            windows_certified: 3,
            txns_certified: 1500,
            write_skew: 1,
            dangerous_structure: 2,
            other_cycles: 0,
            witnesses: vec!["T7 -rw-> T9 -rw-> T7".into(), "T3 -rw-> T4".into()],
        });
        report.expectation = "SI leads".into();
        report.notes.push("one note".into());

        let text = report.render();
        for needle in ["render test", "SI", "PromoteWT-upd", "SI leads", "one note"] {
            assert!(text.contains(needle), "render lacks {needle:?}:\n{text}");
        }
        for cell in rows.iter().flatten() {
            assert!(text.contains(cell.as_str()), "render lacks cell {cell:?}");
        }
        for w in &report.certification[0].witnesses {
            assert!(text.contains(&format!("witness [SI]: {w}")), "missing {w}");
        }

        let table = report.tables[0].render();
        let lines: Vec<&str> = table
            .lines()
            .skip(1)
            .filter(|l| !l.starts_with('-'))
            .collect();
        assert_eq!(lines.len(), 3, "header plus two rows:\n{table}");
        for line in &lines {
            assert_eq!(
                separators(line),
                separators(lines[0]),
                "misaligned:\n{table}"
            );
        }
    }

    #[test]
    fn a_multi_line_cell_spans_lines_without_shifting_columns() {
        let table = ReportTable {
            title: "t".into(),
            columns: vec!["figure".into(), "edges".into(), "ok".into()],
            rows: vec![vec![
                "F1".into(),
                "A -> B\nB --v--> C".into(),
                "true".into(),
            ]],
        };
        let text = table.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            5,
            "caption, header, rule, two cell lines:\n{text}"
        );
        assert_eq!(separators(lines[3]), separators(lines[1]));
        assert_eq!(separators(lines[4]), separators(lines[1]));
        assert!(lines[4].contains("B --v--> C"));
    }
}
