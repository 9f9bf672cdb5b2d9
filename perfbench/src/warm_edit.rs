//! `warm-edit`: a seeded sequence of single-method edits to a generated
//! subject, each re-checked through the `leakc check --cache DIR` path.
//!
//! In every block of four edits, three bump an integer constant (the
//! cache's semantic projection ignores literals, so these are hits) and
//! one appends a statement to a stage method (a visible edit: a miss, a
//! cold check, then fsync'd journal writes). Hits exercise the frontend
//! and the cache and bypass effects; misses put writes beside reads.

use crate::layers;
use crate::oracle::{labels_covered, same_bytes};
use crate::trace::{Open, Tracer, PROBE};
use crate::{end_to_end, per_layer, repeat_setup, stats, Measured, Outcome, Run};
use leakchecker::{
    check, compute_keys, render_all, AnalysisResult, CheckTarget, DetectorConfig, SummaryCache,
};
use leakchecker_benchsuite::{generate_large, LargeConfig, SplitMix64};
use leakchecker_cli::{cached_target_of, execute, json_fragment_of, parse_args, CheckOptions};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Statements the subject is generated for. At ~100k a miss costs
/// ~4 s, so the 100 edits a p90 with ten samples beyond it needs
/// would not fit in a run; see DESIGN.md.
pub const STATEMENTS: usize = 20_000;

/// Edits per block; one of them is visible.
const BLOCK: u64 = 4;

/// Fewest edits a run measures: p90 then has ten samples beyond it.
const MIN_EDITS: usize = 100;

/// Longest a measurement may run when it still lacks samples.
const HARD_CAP: Duration = Duration::from_secs(120);

/// Hits re-checked cold after the timed loop, byte-compared.
const SPOT_CHECKS: usize = 4;

/// Where every stage method's first statement starts.
const STAGE: &str = "(Msg m, int x) {\n    int acc = x * ";

/// The settings `leakc check` runs with by default (jobs=1).
fn cli_config() -> DetectorConfig {
    CheckOptions::default().to_config()
}

/// Applies seeded single-method edits to the subject source.
struct Editor {
    source: String,
    rng: SplitMix64,
    stages: u64,
    visible_at: u64,
}

impl Editor {
    fn new(source: String, seed: u64) -> Result<Editor, String> {
        let stages = source.matches(STAGE).count() as u64;
        if stages == 0 {
            return Err("subject has no stage methods to edit".to_string());
        }
        Ok(Editor {
            source,
            rng: SplitMix64::new(seed ^ 0xED17),
            stages,
            visible_at: 0,
        })
    }

    /// Byte offset of the constant in stage method `k`.
    fn constant_at(&self, k: u64) -> usize {
        let (at, _) = self
            .source
            .match_indices(STAGE)
            .nth(k as usize)
            .expect("stage index below the stage count");
        at + STAGE.len()
    }

    /// Applies edit `i`; returns whether it is visible to the analysis.
    fn edit(&mut self, i: u64) -> bool {
        if i.is_multiple_of(BLOCK) {
            self.visible_at = self.rng.gen_range(0, BLOCK);
        }
        let k = self.rng.gen_range(0, self.stages);
        let at = self.constant_at(k);
        let digits = self.source[at..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        if i % BLOCK == self.visible_at {
            // A statement more in one method: its semantic key changes.
            let semi = at + self.source[at..].find(';').expect("statement ends");
            self.source.insert_str(semi + 1, " acc = acc + 1;");
            true
        } else {
            let old: u64 = self.source[at..at + digits].parse().expect("constant");
            let mut new = self.rng.gen_range(1, 100);
            if new == old {
                new += 1;
            }
            self.source.replace_range(at..at + digits, &new.to_string());
            false
        }
    }
}

/// One set-up: the subject, its reference report, a fresh store seeded
/// by one cold `leakc check --cache`.
struct State {
    editor: Editor,
    file: PathBuf,
    store: PathBuf,
    reference: String,
}

fn setup(run: &Run, round: usize) -> Result<State, String> {
    let generated = generate_large(LargeConfig {
        target_statements: STATEMENTS,
        seed: run.seed,
        ..LargeConfig::default()
    });
    let unit = leakchecker_frontend::compile(&generated.source).map_err(|e| e.to_string())?;
    let target = CheckTarget::Loop(unit.checked_loops[0]);
    let cold = check(&unit.program, target, cli_config()).map_err(|e| e.to_string())?;
    labels_covered(&cold)?;
    let reference = render_all(&cold.program, &cold.reports);

    let dir = run.dir.join(format!("warm-{round}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let state = State {
        editor: Editor::new(generated.source, run.seed)?,
        file: dir.join("subject.jml"),
        store: dir.join("store"),
        reference,
    };
    std::fs::write(&state.file, &state.editor.source).map_err(|e| e.to_string())?;
    let (hit, report) = cli_check(&state)?;
    if hit {
        return Err("a fresh store answered from cache".to_string());
    }
    same_bytes(&state.reference, &report)?;
    Ok(state)
}

/// `leakc check FILE --cache DIR`; returns whether it hit and the
/// report section of its output.
fn cli_check(state: &State) -> Result<(bool, String), String> {
    let argv = [
        "check".to_string(),
        state.file.display().to_string(),
        "--cache".to_string(),
        state.store.display().to_string(),
    ];
    let command = parse_args(&argv)?;
    let out = execute(command).map_err(|e| e.to_string())?;
    let report = report_of(&out.text).ok_or("output has no report section")?;
    Ok((out.text.contains("(cached)"), report.to_string()))
}

/// The report between the governance line and the trailing cache line.
fn report_of(text: &str) -> Option<&str> {
    let gov = text.find("  governance: ")?;
    let start = gov + text[gov..].find('\n')? + 1;
    let end = text.rfind("\ncache: ")?;
    text.get(start..end)
}

/// The `--cache` path taken apart into its public calls, each in a
/// span: the same work `execute` does for one target.
fn traced_check(state: &State, tracer: &Tracer, op: u64) -> Result<(bool, String, f64), String> {
    let open = tracer.open("edit", op, None);
    let source = std::fs::read_to_string(&state.file).map_err(|e| e.to_string())?;
    let unit = layers::compile(tracer, &open, &source)?;
    let config = cli_config();
    let target = CheckTarget::Loop(unit.checked_loops[0]);
    let mut store = tracer
        .time("cache.open", &open, || SummaryCache::open(&state.store))
        .map_err(|e| e.to_string())?;
    let resolved = tracer
        .time("target.resolve", &open, || {
            leakchecker::target::resolve(&unit.program, target)
        })
        .map_err(|e| e.to_string())?;
    let keys = tracer.time("cache.compute_keys", &open, || {
        compute_keys(&resolved.program, resolved.root, config.callgraph)
    });
    let key = keys.result_key(target, &config);
    let lookup = tracer.child("cache.lookup", &open);
    let hit = store.lookup(key);
    let hit_n = f64::from(u8::from(hit.is_some()));
    tracer.close(lookup, &[("hit", hit_n), ("miss", 1.0 - hit_n)]);
    let (report, verdict) = match hit {
        Some(hit) => (hit.report, None),
        None => {
            let verdict = layers::check_and_render(tracer, &open, &unit, target, config)?;
            record(
                tracer,
                &open,
                &mut store,
                &keys,
                key,
                target,
                &verdict.result,
            )?;
            (verdict.text.clone(), Some(verdict))
        }
    };
    let secs = tracer.close(open, &[]);
    if let Some(verdict) = &verdict {
        layers::replay_verified(tracer, op, &unit, target, config, verdict)?;
    }
    Ok((verdict.is_none(), report, secs))
}

/// `record` + `sync_methods` in a `cache.record` span.
fn record(
    tracer: &Tracer,
    parent: &Open,
    store: &mut SummaryCache,
    keys: &leakchecker::ProgramKeys,
    key: u64,
    target: CheckTarget,
    result: &AnalysisResult,
) -> Result<(), String> {
    let open = tracer.child("cache.record", parent);
    let before = store.stats.invalidated;
    let entry = cached_target_of(result, json_fragment_of(target, result));
    store
        .record(key, &entry)
        .and_then(|()| store.sync_methods(keys))
        .map_err(|e| format!("cannot write cache record: {e}"))?;
    let invalidated = (store.stats.invalidated - before) as f64;
    tracer.close(open, &[("invalidated", invalidated)]);
    Ok(())
}

/// Edits measured, split by hit and miss.
#[derive(Default)]
struct Edits {
    latency_ms: Vec<f64>,
    hits: usize,
    misses: usize,
    spot: Vec<(String, String)>,
}

/// Edits and re-checks until `seconds` have passed and at least
/// [`MIN_EDITS`] edits ran, ending on a whole block.
fn measure(
    state: &mut State,
    first_op: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
) -> Edits {
    let mut edits = Edits::default();
    let start = Instant::now();
    let mut op = first_op;
    loop {
        let elapsed = start.elapsed();
        let enough = elapsed.as_secs_f64() >= seconds && edits.latency_ms.len() >= MIN_EDITS;
        if op.is_multiple_of(BLOCK) && (enough || elapsed >= HARD_CAP) {
            break;
        }
        let visible = state.editor.edit(op);
        let verdict = std::fs::write(&state.file, &state.editor.source)
            .map_err(|e| e.to_string())
            .and_then(|()| match tracer {
                None => {
                    let t = Instant::now();
                    let (hit, report) = cli_check(state)?;
                    Ok((hit, report, t.elapsed().as_secs_f64()))
                }
                Some(tracer) => traced_check(state, tracer, op),
            })
            .and_then(|(hit, report, secs)| {
                same_bytes(&state.reference, &report)?;
                if hit && visible {
                    return Err("a visible edit was answered from cache".to_string());
                }
                Ok((hit, report, secs))
            });
        match verdict {
            Ok((hit, report, secs)) => {
                edits.latency_ms.push(secs * 1e3);
                if hit {
                    edits.hits += 1;
                    if edits.spot.len() < SPOT_CHECKS {
                        edits.spot.push((state.editor.source.clone(), report));
                    }
                } else {
                    edits.misses += 1;
                }
                outcome.record(Ok(()));
            }
            Err(e) => outcome.record(Err(e)),
        }
        op += 1;
    }
    edits
}

/// A warm hit's report must equal the cold report of the same edit.
fn spot_check(edits: &Edits, nproc: usize, outcome: &mut Outcome) {
    for (source, warm) in &edits.spot {
        let cold = leakchecker_frontend::compile(source)
            .map_err(|e| e.to_string())
            .and_then(|unit| {
                let config = DetectorConfig {
                    jobs: nproc,
                    ..cli_config()
                };
                check(
                    &unit.program,
                    CheckTarget::Loop(unit.checked_loops[0]),
                    config,
                )
                .map_err(|e| e.to_string())
            })
            .map(|r| render_all(&r.program, &r.reports));
        if let Err(e) = cold.and_then(|cold| same_bytes(&cold, warm)) {
            outcome.problem(format!(
                "warm hit differs from a cold check of the same edit: {e}"
            ));
        }
    }
}

/// Runs the workload.
pub fn run(run: &Run, tracer: &Tracer) -> Result<Outcome, String> {
    let (mut state, setup_secs) = repeat_setup(
        |round| setup(run, round),
        |old: State| {
            if let Some(dir) = old.file.parent() {
                let _ = std::fs::remove_dir_all(dir);
            }
        },
    )?;
    let mut outcome = Outcome::default();
    if !run.trace {
        let edits = measure(&mut state, 0, run.seconds, None, &mut outcome);
        spot_check(&edits, run.nproc, &mut outcome);
        let n = edits.latency_ms.len();
        let busy: f64 = edits.latency_ms.iter().sum::<f64>() / 1e3;
        outcome.notes.push(format!(
            "warm-edit: {n} edits of a ~{STATEMENTS}-statement subject, {} hits, {} misses \
             (hit share {:.3}); tail {}; latency_seq_p50_ms = latency_p50_ms (leakc check \
             runs at jobs=1)",
            edits.hits,
            edits.misses,
            edits.hits as f64 / n.max(1) as f64,
            crate::tail_label(n, 0.9)
        ));
        (outcome.metrics, outcome.info) = end_to_end(
            &setup_secs,
            &Measured {
                seq_latency_ms: edits.latency_ms.clone(),
                latency_ms: edits.latency_ms,
                tail_ceiling: 0.9,
                rps: n as f64 / busy,
                rps_samples: n,
            },
        );
        return Ok(outcome);
    }
    let untraced = measure(&mut state, 0, run.seconds / 2.0, None, &mut outcome);
    let first = untraced.latency_ms.len() as u64;
    let traced = measure(
        &mut state,
        first,
        run.seconds / 2.0,
        Some(tracer),
        &mut outcome,
    );
    spot_check(&traced, run.nproc, &mut outcome);
    let overhead = stats::median(&traced.latency_ms) - stats::median(&untraced.latency_ms);

    let probe = tracer.open(PROBE, u64::MAX, None);
    outcome.absorb(crate::serve::probe(run, tracer, &probe));
    tracer.close(probe, &[]);

    let spans = tracer.spans();
    outcome.metrics = per_layer(
        &crate::trace::layer_spans(&spans),
        (overhead, traced.latency_ms.len()),
    );
    crate::write_spans(run, &spans, &mut outcome);
    Ok(outcome)
}

/// Cache layer probe for workloads whose path has no cache: a cold
/// record of `source` into a fresh store between a miss and a hit, each
/// call in a span under `parent`.
pub fn cache_probe(run: &Run, tracer: &Tracer, parent: &Open, source: &str) -> Result<(), String> {
    let unit = leakchecker_frontend::compile(source).map_err(|e| e.to_string())?;
    let target = crate::oracle::targets(&unit)
        .first()
        .copied()
        .ok_or("probe program has no target")?;
    let config = DetectorConfig {
        jobs: run.nproc,
        ..cli_config()
    };
    let result = check(&unit.program, target, config).map_err(|e| e.to_string())?;
    let text = render_all(&result.program, &result.reports);
    let dir: &Path = &run.dir.join("cache-probe");
    let _ = std::fs::remove_dir_all(dir);
    let mut store = tracer
        .time("cache.open", parent, || SummaryCache::open(dir))
        .map_err(|e| e.to_string())?;
    let resolved =
        leakchecker::target::resolve(&unit.program, target).map_err(|e| e.to_string())?;
    let keys = tracer.time("cache.compute_keys", parent, || {
        compute_keys(&resolved.program, resolved.root, config.callgraph)
    });
    let key = keys.result_key(target, &config);
    for expect_hit in [false, true] {
        if expect_hit {
            record(tracer, parent, &mut store, &keys, key, target, &result)?;
        }
        let open = tracer.child("cache.lookup", parent);
        let hit = store.lookup(key);
        let n = f64::from(u8::from(hit.is_some()));
        tracer.close(open, &[("hit", n), ("miss", 1.0 - n)]);
        match (hit, expect_hit) {
            (None, false) => {}
            (Some(hit), true) => same_bytes(&text, &hit.report)?,
            (_, expected) => {
                return Err(format!(
                    "cache probe: expected hit={expected}, got the opposite"
                ))
            }
        }
    }
    Ok(())
}
