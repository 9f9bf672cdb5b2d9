//! Traced calls into each layer of a check.
//!
//! `check` has no spans inside it yet, so the traced run times each
//! layer by calling its public entry point in the order `check` does:
//! `target::resolve` → `CallGraph::build_from` → `analyze_from` →
//! `flows::build` → `enumerate_jobs` → `Pag::build` →
//! `refine_candidates`. Candidate selection, pivot filtering and report
//! building have no public entry; their cost is what remains of the
//! timed `check` after the replayed layers (`detect.unattributed_s`).
//! The replay's counts must equal the `RunStats` of the real `check`,
//! which shows both did the same work.

use crate::trace::{Open, Tracer};
use leakchecker::detect::RunStats;
use leakchecker::flows::{build as build_flows, FlowConfig};
use leakchecker::{
    check, contexts::enumerate_jobs, refine::refine_candidates, render_all, AnalysisResult,
    CheckTarget, DetectorConfig, Governor,
};
use leakchecker_callgraph::CallGraph;
use leakchecker_effects::{analyze_from, EffectConfig, Era};
use leakchecker_frontend::{parser, resolve, CompiledUnit};
use leakchecker_pointsto::Pag;
use std::collections::BTreeSet;

/// Compiles `source` with one span per frontend phase.
pub fn compile(tracer: &Tracer, parent: &Open, source: &str) -> Result<CompiledUnit, String> {
    let ast = tracer
        .time("frontend.parse", parent, || parser::parse(source))
        .map_err(|e| e.to_string())?;
    let open = tracer.child("frontend.lower", parent);
    let unit = resolve::lower(&ast).map_err(|e| e.to_string())?;
    tracer.close(open, &[("stmts", unit.program.statement_count() as f64)]);
    Ok(unit)
}

/// One target's verdict as `check` and `render_all` produced it.
pub struct Verdict {
    /// The analysis result.
    pub result: AnalysisResult,
    /// `render_all` of its reports.
    pub text: String,
    /// Seconds inside `check`.
    pub check_secs: f64,
    /// Seconds inside `render_all`.
    pub render_secs: f64,
}

/// Runs `check` inside a `detect.check` span and renders the reports
/// inside a `report.render` span.
pub fn check_and_render(
    tracer: &Tracer,
    parent: &Open,
    unit: &CompiledUnit,
    target: CheckTarget,
    config: DetectorConfig,
) -> Result<Verdict, String> {
    let open = tracer.child("detect.check", parent);
    let result = check(&unit.program, target, config).map_err(|e| e.to_string())?;
    let check_secs = tracer.close(open, &[]);
    let open = tracer.child("report.render", parent);
    let text = render_all(&result.program, &result.reports);
    let render_secs = tracer.close(open, &[]);
    Ok(Verdict {
        result,
        text,
        check_secs,
        render_secs,
    })
}

/// Counts the replay observed, to compare with the real run's
/// `RunStats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Reachable methods (`RunStats::methods`).
    pub methods: usize,
    /// Effects fixpoint rounds (`RunStats::effects_rounds`).
    pub rounds: usize,
    /// Flows-out edges (`RunStats::flow_edges`).
    pub edges: usize,
    /// Context-sensitive allocation sites (`RunStats::loop_objects`).
    pub pairs: usize,
    /// Candidates before refinement (`RunStats::candidate_sites`).
    pub candidates: usize,
    /// Candidates refinement refuted (`RunStats::refuted_candidates`).
    pub refuted: usize,
}

impl ReplayCounts {
    /// The same counts as the real run reported them.
    pub fn of(stats: &RunStats) -> ReplayCounts {
        ReplayCounts {
            methods: stats.methods,
            rounds: stats.effects_rounds,
            edges: stats.flow_edges,
            pairs: stats.loop_objects,
            candidates: stats.candidate_sites,
            refuted: stats.refuted_candidates,
        }
    }
}

/// Replays the layers of `check` one public call at a time, each in its
/// own span under `parent`, and returns the counts plus the seconds the
/// replayed layers took in total.
pub fn replay(
    tracer: &Tracer,
    parent: &Open,
    unit: &CompiledUnit,
    target: CheckTarget,
    config: DetectorConfig,
) -> Result<(ReplayCounts, f64), String> {
    let mut layer_secs = 0.0;
    let open = tracer.child("target.resolve", parent);
    let resolved =
        leakchecker::target::resolve(&unit.program, target).map_err(|e| e.to_string())?;
    layer_secs += tracer.close(open, &[]);
    let program = &resolved.program;

    let open = tracer.child("callgraph.build", parent);
    let callgraph = CallGraph::build_from(program, &[resolved.root], config.callgraph);
    let methods = callgraph.reachable_count();
    layer_secs += tracer.close(open, &[("methods", methods as f64)]);

    let open = tracer.child("effects.analyze", parent);
    let effect_config = EffectConfig {
        model_threads: config.model_threads,
        jobs: config.jobs,
        ..config.effects
    };
    let summary = analyze_from(
        program,
        &callgraph,
        resolved.root,
        resolved.designated,
        effect_config,
    );
    layer_secs += tracer.close(
        open,
        &[
            ("rounds", summary.rounds as f64),
            ("regions", summary.regions as f64),
        ],
    );

    let open = tracer.child("flows.build", parent);
    let flow_config = FlowConfig {
        library_modeling: config.library_modeling,
        model_threads: config.model_threads,
    };
    let flows = build_flows(program, &summary, flow_config, config.jobs);
    let edges: usize = flows.flows_out.values().map(BTreeSet::len).sum();
    layer_secs += tracer.close(open, &[("edges", edges as f64)]);

    let open = tracer.child("contexts.enumerate", parent);
    let contexts = enumerate_jobs(
        program,
        &callgraph,
        resolved.designated,
        config.contexts,
        config.jobs,
    );
    let pairs = contexts.pair_count();
    layer_secs += tracer.close(open, &[("pairs", pairs as f64)]);

    // Candidate selection as `check` does it: an escaping inside site
    // whose ERA is ⊤ or that escapes through an unmatched edge.
    let candidates: BTreeSet<_> = summary
        .inside_sites
        .iter()
        .copied()
        .filter(|&site| {
            flows.escapes(site)
                && (summary.era(site) == Era::Top || flows.unmatched_edges(site).next().is_some())
        })
        .collect();

    let open = tracer.child("pointsto.pag_build", parent);
    let pag = Pag::build(program, &callgraph);
    layer_secs += tracer.close(open, &[]);

    let open = tracer.child("refine.candidates", parent);
    let governor = Governor::new(config.governor);
    let refinement = refine_candidates(
        program,
        &summary,
        &flows,
        &pag,
        &candidates,
        &governor,
        config.jobs,
        false,
    );
    let refuted = candidates.len() - refinement.kept().len();
    layer_secs += tracer.close(
        open,
        &[
            ("candidates", candidates.len() as f64),
            ("refuted", refuted as f64),
            ("query_batches", refinement.query_batches as f64),
        ],
    );

    let counts = ReplayCounts {
        methods,
        rounds: summary.rounds,
        edges,
        pairs,
        candidates: candidates.len(),
        refuted,
    };
    Ok((counts, layer_secs))
}

/// Replays the layers of a verdict already reached by `check`, in a
/// root `replay` span of operation `op` (after the operation's own
/// clock stopped), records `unattributed_s` = check minus the replayed
/// layers, and fails when the replay's counts differ from the real
/// run's `RunStats`.
pub fn replay_verified(
    tracer: &Tracer,
    op: u64,
    unit: &CompiledUnit,
    target: CheckTarget,
    config: DetectorConfig,
    verdict: &Verdict,
) -> Result<(), String> {
    let open = tracer.open("replay", op, None);
    let (counts, layer_secs) = replay(tracer, &open, unit, target, config)?;
    tracer.close(open, &[("unattributed_s", verdict.check_secs - layer_secs)]);
    let real = ReplayCounts::of(&verdict.result.stats);
    if counts != real {
        return Err(format!(
            "replayed layers disagree with the real check: replay {counts:?}, check {real:?}"
        ));
    }
    Ok(())
}
