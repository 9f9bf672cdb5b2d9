//! Reference answers that do not come from the verdict under test.
//!
//! Every verdict is checked two ways. Against ground truth: no
//! `@leak`-labelled site may be missed (`benchsuite::evaluate::score`),
//! and for generated fuzz programs no site the concrete interpreter
//! observed leaking may be missed (`interp::site_facts` through
//! `leakchecker::oracle_compare`). And across paths: the bytes a path
//! returns must equal those of an independent in-process run.

use leakchecker::{check, oracle_compare, render_all, AnalysisResult, CheckTarget, DetectorConfig};
use leakchecker_benchsuite::score;
use leakchecker_cli::protocol::render_check_ok;
use leakchecker_cli::{EXIT_CLEAN, EXIT_DEGRADED, EXIT_LEAKS};
use leakchecker_frontend::CompiledUnit;
use leakchecker_interp::{run as interp_run, site_facts, Config as InterpConfig, NonDetPolicy};
use leakchecker_ir::AllocSite;
use std::collections::BTreeSet;

/// Tracked-loop iterations the interpreter grants each handler, as the
/// fuzz campaign's oracle does.
const ITERATIONS_PER_HANDLER: u64 = 8;

/// `Ok` when `got` is byte-equal to `expected`.
pub fn same_bytes(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    let excerpt = |s: &str| {
        s.get(at.saturating_sub(20)..(at + 40).min(s.len()))
            .unwrap_or("")
            .to_string()
    };
    Err(format!(
        "response differs from the reference at byte {at}: expected `{}`, got `{}`",
        excerpt(expected),
        excerpt(got)
    ))
}

/// `Ok` unless the result misses an `@leak`-labelled site.
pub fn labels_covered(result: &AnalysisResult) -> Result<(), String> {
    match score(&result.program, result).missed_leaks {
        0 => Ok(()),
        n => Err(format!("{n} @leak-labelled site(s) missed")),
    }
}

/// Sites a concrete run of the `@check` loop observes leaking: escaped
/// at least twice and never used afterwards.
pub fn must_leak(unit: &CompiledUnit, handlers: usize) -> Result<BTreeSet<AllocSite>, String> {
    let tracked = *unit
        .checked_loops
        .first()
        .ok_or("program has no @check loop")?;
    let exec = interp_run(
        &unit.program,
        InterpConfig {
            tracked_loop: Some(tracked),
            nondet: NonDetPolicy::Always(true),
            max_tracked_iterations: Some(handlers.max(1) as u64 * ITERATIONS_PER_HANDLER),
            ..InterpConfig::default()
        },
    )
    .map_err(|e| format!("interpreter failed: {e}"))?;
    Ok(site_facts(&exec.heap, &exec.effects)
        .values()
        .filter(|f| f.must_leak())
        .map(|f| f.site)
        .collect())
}

/// `Ok` unless the result misses a site in `must_leak`.
pub fn must_leaks_covered(
    result: &AnalysisResult,
    must_leak: &BTreeSet<AllocSite>,
) -> Result<(), String> {
    match oracle_compare(result, must_leak).missed.len() {
        0 => Ok(()),
        n => Err(format!("{n} interpreter-confirmed leak(s) missed")),
    }
}

/// Every target a `check` request analyzes: `@check` loops, then
/// `@region` methods.
pub fn targets(unit: &CompiledUnit) -> Vec<CheckTarget> {
    unit.checked_loops
        .iter()
        .map(|&l| CheckTarget::Loop(l))
        .chain(unit.region_methods.iter().map(|&m| CheckTarget::Region(m)))
        .collect()
}

/// The daemon's analysis settings: defaults, analysis pinned to jobs=1.
pub fn serve_config() -> DetectorConfig {
    DetectorConfig::default()
}

/// The id-less `check` response frame the daemon must return for a
/// program, computed in-process, plus each target's result.
pub fn check_frame(unit: &CompiledUnit) -> Result<(String, Vec<AnalysisResult>), String> {
    let mut output = String::new();
    let mut reports = 0u64;
    let mut degraded = false;
    let mut results = Vec::new();
    for target in targets(unit) {
        let result = check(&unit.program, target, serve_config()).map_err(|e| e.to_string())?;
        output.push_str(&render_all(&result.program, &result.reports));
        reports += result.reports.len() as u64;
        degraded |= result.stats.is_degraded();
        results.push(result);
    }
    Ok((frame(reports, degraded, &output), results))
}

/// Renders the id-less `ok` frame for a check's totals.
pub fn frame(reports: u64, degraded: bool, output: &str) -> String {
    let exit_code = if reports > 0 {
        EXIT_LEAKS
    } else if degraded {
        EXIT_DEGRADED
    } else {
        EXIT_CLEAN
    };
    render_check_ok(&None, exit_code, reports, degraded, output)
}
