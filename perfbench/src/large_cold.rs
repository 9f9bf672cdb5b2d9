//! `large-cold`: a seeded stream of ~30k-statement generated subjects,
//! each compiled and checked with no cache at jobs = nproc and then at
//! jobs = 1.
//!
//! Effects does most of the work here, so an effects-fixpoint change
//! shows on this workload first. A new subject per pair keeps one
//! subject's shape from setting a run's median. The traced run checks
//! at jobs=1 only, so each layer's time is its sequential cost.

use crate::layers;
use crate::oracle::{labels_covered, same_bytes};
use crate::trace::{Tracer, PROBE};
use crate::{end_to_end, per_layer, repeat_setup, stats, Measured, Outcome, Run};
use leakchecker::{check, render_all, AnalysisResult, CheckTarget, DetectorConfig};
use leakchecker_benchsuite::{generate_large, LargeConfig, SplitMix64};
use leakchecker_ir::SiteLabel;
use std::time::{Duration, Instant};

/// Statements each subject is generated for. At ~100k a jobs=1 check
/// takes 4-5 s on two cores, leaving three samples per width in a run;
/// see DESIGN.md.
pub const STATEMENTS: usize = 30_000;

/// Subjects generated at set-up; pairs cycle through them.
const SUBJECTS: u64 = 48;

/// Generates the subjects. Their reference answers are the generator's
/// `@leak` labels, which every verdict is scored against.
fn setup(seed: u64) -> Result<Vec<String>, String> {
    let mut rng = SplitMix64::new(seed ^ 0x1A26E);
    let subjects: Vec<String> = (0..SUBJECTS)
        .map(|_| {
            generate_large(LargeConfig {
                target_statements: STATEMENTS,
                seed: rng.next_u64(),
                ..LargeConfig::default()
            })
            .source
        })
        .collect();
    let unit = leakchecker_frontend::compile(&subjects[0]).map_err(|e| e.to_string())?;
    let labelled = unit
        .program
        .allocs()
        .iter()
        .filter(|a| a.label == SiteLabel::Leak)
        .count();
    if labelled == 0 || unit.checked_loops.is_empty() {
        return Err("large subject has no @check loop or no @leak label".to_string());
    }
    Ok(subjects)
}

/// One operation: source text to verdict at `jobs`; returns its
/// seconds, result and render. Traced, the compile and check layers get
/// spans and the layers are replayed afterwards.
fn operation(
    source: &str,
    jobs: usize,
    op: u64,
    tracer: Option<&Tracer>,
) -> Result<(f64, AnalysisResult, String), String> {
    let config = DetectorConfig {
        jobs,
        ..DetectorConfig::default()
    };
    let Some(tracer) = tracer else {
        let start = Instant::now();
        let unit = leakchecker_frontend::compile(source).map_err(|e| e.to_string())?;
        let target = CheckTarget::Loop(unit.checked_loops[0]);
        let result = check(&unit.program, target, config).map_err(|e| e.to_string())?;
        let text = render_all(&result.program, &result.reports);
        return Ok((start.elapsed().as_secs_f64(), result, text));
    };
    let open = tracer.open("op", op, None);
    let unit = layers::compile(tracer, &open, source)?;
    let target = CheckTarget::Loop(unit.checked_loops[0]);
    let verdict = layers::check_and_render(tracer, &open, &unit, target, config)?;
    let secs = tracer.close(open, &[("jobs", jobs as f64)]);
    layers::replay_verified(tracer, op, &unit, target, config, &verdict)?;
    Ok((secs, verdict.result, verdict.text))
}

/// Runs rounds of one check per width in `widths`, each round on the
/// next subject, until `seconds` have passed; returns latencies in ms
/// at the first width and at the others.
fn measure(
    widths: &[usize],
    subjects: &[String],
    seconds: f64,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    let (mut par, mut seq) = (Vec::new(), Vec::new());
    let mut reference: Option<String> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut op = 0;
    while op == 0 || op % widths.len() != 0 || Instant::now() < deadline {
        let first = op % widths.len() == 0;
        if first {
            reference = None;
        }
        let jobs = widths[op % widths.len()];
        let source = &subjects[(op / widths.len()) % subjects.len()];
        let verdict =
            operation(source, jobs, op as u64, tracer).and_then(|(secs, result, text)| {
                labels_covered(&result)?;
                // Within a round every width must render the same bytes.
                match &reference {
                    None => reference = Some(text),
                    Some(r) => same_bytes(r, &text)
                        .map_err(|e| format!("jobs={jobs} render differs: {e}"))?,
                }
                Ok(secs * 1e3)
            });
        match verdict {
            Ok(ms) => {
                let bucket = if first { &mut par } else { &mut seq };
                bucket.push(ms);
                outcome.record(Ok(()));
            }
            Err(e) => outcome.record(Err(e)),
        }
        op += 1;
    }
    (par, seq)
}

/// Runs the workload.
pub fn run(run: &Run, tracer: &Tracer) -> Result<Outcome, String> {
    let (subjects, setup_secs) = repeat_setup(|_| setup(run.seed), drop)?;
    let mut outcome = Outcome::default();
    if !run.trace {
        let widths = [run.nproc, 1];
        let (par, seq) = measure(&widths, &subjects, run.seconds, None, &mut outcome);
        let busy: f64 = par.iter().chain(&seq).sum::<f64>() / 1e3;
        let ms = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        outcome.notes.push(format!(
            "large-cold samples (ms): jobs={} [{}], jobs=1 [{}]",
            run.nproc,
            ms(&par),
            ms(&seq)
        ));
        let done = par.len() + seq.len();
        outcome.notes.push(format!(
            "large-cold: {done} checks of ~{STATEMENTS}-statement subjects; latency_* at jobs={} \
             ({} samples), latency_seq_p50_ms at jobs=1 ({} samples); tail {}",
            run.nproc,
            par.len(),
            seq.len(),
            crate::tail_label(par.len(), 1.0)
        ));
        (outcome.metrics, outcome.info) = end_to_end(
            &setup_secs,
            &Measured {
                latency_ms: par,
                seq_latency_ms: seq,
                tail_ceiling: 1.0,
                rps: done as f64 / busy,
                rps_samples: done,
            },
        );
        return Ok(outcome);
    }
    let half = run.seconds / 2.0;
    let (untraced, _) = measure(&[1], &subjects, half, None, &mut outcome);
    let (traced, _) = measure(&[1], &subjects, half, Some(tracer), &mut outcome);
    let overhead = stats::median(&traced) - stats::median(&untraced);

    // Layers off this workload's path: the cache on this subject and
    // the request path on the serve pool.
    let probe = tracer.open(PROBE, u64::MAX, None);
    let cache = crate::warm_edit::cache_probe(run, tracer, &probe, &subjects[0]);
    outcome.record(cache);
    outcome.absorb(crate::serve::probe(run, tracer, &probe));
    tracer.close(probe, &[]);

    let spans = tracer.spans();
    outcome.metrics = per_layer(&crate::trace::layer_spans(&spans), (overhead, traced.len()));
    crate::write_spans(run, &spans, &mut outcome);
    Ok(outcome)
}
