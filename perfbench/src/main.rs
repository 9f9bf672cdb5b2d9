//! One benchmark for `leakc`: time to verdict on a large cold check,
//! serve and fleet request latency, warm re-checks through the summary
//! cache, and a traced run that times every layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload large-cold --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     spread results.txt
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones. See `perfbench/DESIGN.md`.

mod large_cold;
mod layers;
mod oracle;
mod serve;
mod stats;
mod trace;
mod warm_edit;

use stats::Tally;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Span, Tracer};

/// Times each workload repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// The workloads, by the names the command line takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One ~100k-statement subject compiled and checked cold.
    LargeCold,
    /// Small programs through one in-process `leakc serve`.
    ServeDirect,
    /// The same requests through `leakc route` and two shards.
    FleetRouted,
    /// Single-method edits re-checked through `leakc check --cache`.
    WarmEdit,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "large-cold" => Some(Workload::LargeCold),
            "serve-direct" => Some(Workload::ServeDirect),
            "fleet-routed" => Some(Workload::FleetRouted),
            "warm-edit" => Some(Workload::WarmEdit),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LargeCold => "large-cold",
            Workload::ServeDirect => "serve-direct",
            Workload::FleetRouted => "fleet-routed",
            Workload::WarmEdit => "warm-edit",
        }
    }
}

/// One benchmark invocation.
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Machine width: the client count and the parallel job count.
    pub nproc: usize,
    /// Scratch directory for stores, subjects and span files.
    pub dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Why operations failed, deduplicated; empty on a clean run.
    pub problems: Vec<String>,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the table but not on the result line: on a
    /// shared host they swing too far between runs to be bounded.
    pub info: Vec<Metric>,
    /// Extra lines for the human-readable table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one operation; a failure keeps its first reason.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.tally.record(verdict.is_ok());
        if let Err(why) = verdict {
            self.problem(why);
        }
    }

    /// Notes a failure reason once.
    pub fn problem(&mut self, why: String) {
        if self.problems.len() < 8 && !self.problems.contains(&why) {
            self.problems.push(why);
        }
    }

    /// Merges another outcome's tally and problems.
    pub fn absorb(&mut self, other: Outcome) {
        self.tally.merge(other.tally);
        for p in other.problems {
            self.problem(p);
        }
        self.notes.extend(other.notes);
    }
}

/// Latency samples of one untraced measurement.
pub struct Measured {
    /// Per-operation time to verdict, ms, on the workload's main path,
    /// in completion order.
    pub latency_ms: Vec<f64>,
    /// Per-operation time to verdict with analysis at jobs=1, ms.
    pub seq_latency_ms: Vec<f64>,
    /// Highest percentile the tail metric may report.
    pub tail_ceiling: f64,
    /// Correct verdicts per second.
    pub rps: f64,
    /// Operations behind `rps`.
    pub rps_samples: usize,
}

/// The end-to-end metrics of an untraced run: the ones the result line
/// carries, and the tail and throughput, which only the table prints
/// (host steal moved them by up to half between runs; see DESIGN.md).
pub fn end_to_end(setup_secs: &[f64], m: &Measured) -> (Vec<Metric>, Vec<Metric>) {
    let lat = &m.latency_ms;
    let tail = stats::tail_percentile(lat.len(), m.tail_ceiling);
    let bounded = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: stats::median(setup_secs),
            samples: setup_secs.len(),
        },
        Metric {
            name: "latency_p50_ms",
            unit: "ms",
            value: stats::windowed(lat, 0.5),
            samples: lat.len(),
        },
        Metric {
            name: "latency_seq_p50_ms",
            unit: "ms",
            value: stats::windowed(&m.seq_latency_ms, 0.5),
            samples: m.seq_latency_ms.len(),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: peak_rss_mb(),
            samples: 1,
        },
    ];
    let info = vec![
        Metric {
            name: "latency_tail_ms",
            unit: "ms",
            value: stats::windowed(lat, tail),
            samples: lat.len(),
        },
        Metric {
            name: "rps",
            unit: "1/s",
            value: m.rps,
            samples: m.rps_samples,
        },
    ];
    (bounded, info)
}

/// The tail percentile label the table prints next to `latency_tail_ms`.
pub fn tail_label(n: usize, ceiling: f64) -> String {
    format!("p{}", stats::tail_percentile(n, ceiling) * 100.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times, tearing down every instance
/// but the last; returns the last and every set-up's seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for round in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let start = Instant::now();
        last = Some(setup(round)?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up round"), secs))
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median span duration of `name`, scaled.
fn span_time(spans: &[Span], name: &str, scale: f64) -> (f64, usize) {
    let d = trace::durations(spans, name);
    (stats::median(&d) * scale, d.len())
}

/// Median of a counter.
fn counter_median(spans: &[Span], name: &str, key: &str) -> (f64, usize) {
    let c = trace::counters(spans, name, key);
    (stats::median(&c), c.len())
}

/// Sum of a counter.
fn counter_sum(spans: &[Span], name: &str, key: &str) -> (f64, usize) {
    let c = trace::counters(spans, name, key);
    (c.iter().sum(), c.len())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run, from its spans.
/// `overhead_ms` is the traced minus the untraced median latency.
pub fn per_layer(spans: &[Span], overhead_ms: (f64, usize)) -> Vec<Metric> {
    let timed: [(&'static str, &str, &'static str, f64); 17] = [
        ("frontend.parse_s", "frontend.parse", "s", 1.0),
        ("frontend.lower_s", "frontend.lower", "s", 1.0),
        ("target.resolve_s", "target.resolve", "s", 1.0),
        ("callgraph.build_s", "callgraph.build", "s", 1.0),
        ("effects.analyze_s", "effects.analyze", "s", 1.0),
        ("flows.build_s", "flows.build", "s", 1.0),
        ("contexts.enumerate_s", "contexts.enumerate", "s", 1.0),
        ("pointsto.pag_build_s", "pointsto.pag_build", "s", 1.0),
        ("refine.candidates_s", "refine.candidates", "s", 1.0),
        ("detect.check_s", "detect.check", "s", 1.0),
        ("report.render_s", "report.render", "s", 1.0),
        ("cache.open_s", "cache.open", "s", 1.0),
        ("cache.compute_keys_s", "cache.compute_keys", "s", 1.0),
        ("cache.lookup_s", "cache.lookup", "s", 1.0),
        ("cache.record_s", "cache.record", "s", 1.0),
        (
            "protocol.parse_request_us",
            "protocol.parse_request",
            "us",
            1e6,
        ),
        (
            "protocol.render_check_us",
            "protocol.render_check",
            "us",
            1e6,
        ),
    ];
    let medians: [(&'static str, &str, &str, &'static str); 12] = [
        ("frontend.stmts", "frontend.lower", "stmts", "count"),
        ("callgraph.methods", "callgraph.build", "methods", "count"),
        ("effects.rounds", "effects.analyze", "rounds", "count"),
        ("effects.regions", "effects.analyze", "regions", "count"),
        ("flows.edges", "flows.build", "edges", "count"),
        ("contexts.pairs", "contexts.enumerate", "pairs", "count"),
        (
            "refine.candidates",
            "refine.candidates",
            "candidates",
            "count",
        ),
        ("refine.refuted", "refine.candidates", "refuted", "count"),
        (
            "refine.query_batches",
            "refine.candidates",
            "query_batches",
            "count",
        ),
        ("detect.unattributed_s", "replay", "unattributed_s", "s"),
        ("serve.overhead_ms", "serve.overhead", "ms", "ms"),
        ("router.hop_ms", "router.hop", "ms", "ms"),
    ];
    let sums: [(&'static str, &str, &str); 8] = [
        ("cache.hits", "cache.lookup", "hit"),
        ("cache.misses", "cache.lookup", "miss"),
        ("cache.invalidated", "cache.record", "invalidated"),
        ("serve.admitted", "serve.stats", "admitted"),
        ("serve.coalesced", "serve.stats", "coalesced"),
        ("serve.shed", "serve.stats", "shed"),
        ("router.retries", "router.stats", "retries"),
        ("router.hedges", "router.stats", "hedges"),
    ];
    let mut out = Vec::new();
    for (metric, span, unit, scale) in timed {
        let (value, samples) = span_time(spans, span, scale);
        out.push(Metric {
            name: metric,
            unit,
            value,
            samples,
        });
    }
    for (metric, span, key, unit) in medians {
        let (value, samples) = counter_median(spans, span, key);
        out.push(Metric {
            name: metric,
            unit,
            value,
            samples,
        });
    }
    for (metric, span, key) in sums {
        let (value, samples) = counter_sum(spans, span, key);
        out.push(Metric {
            name: metric,
            unit: "count",
            value,
            samples,
        });
    }
    let (refuted, n) = counter_sum(spans, "refine.candidates", "refuted");
    let (candidates, _) = counter_sum(spans, "refine.candidates", "candidates");
    out.push(Metric {
        name: "refine.refuted_ratio",
        unit: "ratio",
        value: ratio(refuted, candidates),
        samples: n,
    });
    let (hits, n) = counter_sum(spans, "cache.lookup", "hit");
    out.push(Metric {
        name: "cache.hit_ratio",
        unit: "ratio",
        value: ratio(hits, n as f64),
        samples: n,
    });
    out.push(Metric {
        name: "trace.overhead_ms",
        unit: "ms",
        value: overhead_ms.0,
        samples: overhead_ms.1,
    });
    out.push(Metric {
        name: "trace.spans",
        unit: "count",
        value: spans.len() as f64,
        samples: 1,
    });
    out
}

/// Reads the commit id from `.git` without running git; "unknown"
/// outside a git checkout.
fn git_head() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload large-cold|serve-direct|fleet-routed|warm-edit \
         --seed N --seconds N --trace 0|1\n\
         \x20      perfbench spread FILE...   (run-to-run spread of saved result lines)"
    );
    std::process::exit(2);
}

fn parse_run(argv: &[String]) -> Run {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = PathBuf::from(".perfbench").join(format!(
        "{}-{seed}-{}",
        workload.name(),
        std::process::id()
    ));
    Run {
        workload,
        seed,
        seconds,
        trace,
        nproc,
        dir,
    }
}

/// Formats a number for JSON; a non-finite value would make the line
/// unparseable, so it is reported as a problem and printed as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Steal and total CPU time so far, in clock ticks, from `/proc/stat`:
/// the share of time the hypervisor ran someone else on this machine's
/// CPUs, recorded so a slow run on a shared host can be told apart.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn print_result(run: &Run, outcome: &mut Outcome, started: Instant, ticks: (u64, u64)) {
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            let why = format!("metric {} has no value (no samples)", m.name);
            outcome.problems.push(why);
        }
    }
    let correct = outcome.tally.failed == 0 && outcome.problems.is_empty();
    let (steal, total) = cpu_ticks();
    let steal_share = (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} git={} wall={:.1}s \
         cpu_steal={steal_share:.3}",
        run.workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.nproc,
        git_head(),
        started.elapsed().as_secs_f64()
    );
    let _ = writeln!(
        table,
        "# {:<28} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &outcome.metrics {
        let _ = writeln!(
            table,
            "# {:<28} {:>16.6} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &outcome.info {
        let _ = writeln!(
            table,
            "# {:<28} {:>16.6} {:<6} {:>8}  (table only)",
            m.name, m.value, m.unit, m.samples
        );
    }
    let _ = writeln!(
        table,
        "# {:<28} {:>16.6} {:<6} {:>8}  (table only)",
        "fail_rate",
        outcome.tally.fail_rate(),
        "ratio",
        outcome.tally.attempted
    );
    for note in &outcome.notes {
        let _ = writeln!(table, "# {note}");
    }
    for p in &outcome.problems {
        let _ = writeln!(table, "# FAIL: {p}");
    }
    print!("{table}");
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(", ")
    );
}

/// Writes the traced run's spans and prints each span name's self time.
pub fn write_spans(run: &Run, spans: &[Span], outcome: &mut Outcome) {
    let path = PathBuf::from(".perfbench").join(format!(
        "spans-{}-seed{}.jsonl",
        run.workload.name(),
        run.seed
    ));
    match std::fs::write(&path, trace::to_jsonl(spans)) {
        Ok(()) => outcome.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => outcome.problem(format!("cannot write {}: {e}", path.display())),
    }
    outcome.notes.push(format!(
        "{:<26} {:>7} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    ));
    for (name, (count, total, own)) in trace::self_times(spans) {
        outcome
            .notes
            .push(format!("{name:<26} {count:>7} {total:>12.6} {own:>12.6}"));
    }
}

/// Extracts `name -> value` pairs from one result line this program
/// printed (the flat shape written by [`print_result`]).
fn parse_result_line(line: &str) -> Vec<(String, f64)> {
    let Some(body) = line.split_once("\"metrics\": {").map(|(_, b)| b) else {
        return Vec::new();
    };
    body.split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry
                .trim_start_matches('{')
                .split_once("\": {\"value\": ")?;
            let value = rest.split(',').next()?.trim().parse::<f64>().ok()?;
            Some((name.trim_start_matches('"').to_string(), value))
        })
        .collect()
}

/// `perfbench spread FILE...`: per metric, the median, quartiles and
/// spread (interquartile distance over median) of every result line in
/// the files, the rule the acceptance runs apply.
fn spread_command(files: &[String]) {
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("cannot read {file}: {e}");
            std::process::exit(2);
        });
        for line in text.lines().filter(|l| l.starts_with("{\"correct\"")) {
            for (name, v) in parse_result_line(line) {
                match values.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, vs)) => vs.push(v),
                    None => values.push((name, vec![v])),
                }
            }
        }
    }
    println!(
        "{:<28} {:>4} {:>14} {:>14} {:>14} {:>8}",
        "metric", "n", "q1", "median", "q3", "spread"
    );
    for (name, vs) in values {
        let [q1, _, q3] = stats::quartiles(&vs).unwrap_or([f64::NAN; 3]);
        let spread = stats::spread(&vs).unwrap_or(f64::NAN);
        println!(
            "{name:<28} {:>4} {q1:>14.6} {:>14.6} {q3:>14.6} {spread:>8.4}",
            vs.len(),
            stats::median(&vs)
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        spread_command(&argv[1..]);
        return;
    }
    let run = parse_run(&argv);
    let started = Instant::now();
    let ticks = cpu_ticks();
    if let Err(e) = std::fs::create_dir_all(&run.dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.dir.display());
        std::process::exit(1);
    }
    let tracer = Tracer::default();
    let result = match run.workload {
        Workload::LargeCold => large_cold::run(&run, &tracer),
        Workload::ServeDirect => serve::run(&run, &tracer, false),
        Workload::FleetRouted => serve::run(&run, &tracer, true),
        Workload::WarmEdit => warm_edit::run(&run, &tracer),
    };
    // Stores and subject files are scratch; spans stay for inspection.
    let _ = std::fs::remove_dir_all(&run.dir);
    let _ = std::fs::remove_dir(".perfbench");
    match result {
        Ok(mut outcome) => print_result(&run, &mut outcome, started, ticks),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip_through_the_spread_parser() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                    \"rps\": {\"value\": 120.5, \"unit\": \"1/s\"}}}";
        assert_eq!(
            parse_result_line(line),
            vec![("setup_s".to_string(), 0.25), ("rps".to_string(), 120.5)]
        );
    }

    #[test]
    fn a_wrong_verdict_counts_toward_fail_rate() {
        let mut outcome = Outcome::default();
        outcome.record(Ok(()));
        outcome.record(oracle::same_bytes("expected frame", "expected frame"));
        outcome.record(oracle::same_bytes("expected frame", "a wrong verdict"));
        assert_eq!(
            outcome.tally,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert!((outcome.tally.fail_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(outcome.problems.len(), 1);
    }

    #[test]
    fn end_to_end_names_every_metric_once() {
        let m = Measured {
            latency_ms: (1..=100).map(f64::from).collect(),
            seq_latency_ms: vec![5.0],
            tail_ceiling: 0.99,
            rps: 10.0,
            rps_samples: 100,
        };
        let (bounded, info) = end_to_end(&[0.5, 0.4, 0.6], &m);
        let names: Vec<&str> = bounded.iter().chain(&info).map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "latency_p50_ms",
                "latency_seq_p50_ms",
                "peak_rss_mb",
                "latency_tail_ms",
                "rps"
            ]
        );
        assert_eq!(bounded[0].value, 0.5);
        assert_eq!(info[0].value, 90.0, "p90 is the highest with ten beyond");
    }
}
