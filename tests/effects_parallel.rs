//! Determinism battery for the parallel (Jacobi) effects fixpoint.
//!
//! The claim under test is strong: the parallel rounds reproduce the
//! sequential abstract interpretation *exactly* — the same
//! `EffectSummary` field for field (eras, effect sets, truncation, even
//! the iteration count), not merely the same reports downstream. The
//! battery compares `analyze` directly at jobs ∈ {1, 2, 8} across the
//! committed corpus exemplars, several large generated subjects, and a
//! 200-seed fuzz-grammar sweep, then pins the two deliberate sequential
//! fallbacks (witnesses on, faults injected) end to end through `check`.
//!
//! `analyze` is exercised directly (not through the fuzz oracle or the
//! detector) because both of those force witnesses on some paths, which
//! would silently pin the sequential fallback and turn the whole battery
//! into a no-op.

use leakchecker::governor::{parse_fault_plan, GovernorConfig};
use leakchecker::{check, render_all, CheckTarget, DetectorConfig};
use leakchecker_benchsuite::{generate_fuzz, generate_large, LargeConfig};
use leakchecker_callgraph::{Algorithm, CallGraph};
use leakchecker_effects::{analyze, EffectConfig, EffectSummary};
use leakchecker_fuzz::parse_entry;

/// Everything observable about a summary except `regions`, which is
/// jobs-dependent telemetry by design. `eras` is a `HashMap`, so it is
/// rendered in sorted order.
fn fingerprint(summary: &EffectSummary) -> String {
    let EffectSummary {
        eras,
        stores,
        loads,
        inside_sites,
        returned_from_library,
        started_threads,
        truncated,
        rounds,
        regions: _,
    } = summary;
    let mut sorted_eras: Vec<_> = eras.iter().collect();
    sorted_eras.sort();
    format!(
        "eras={sorted_eras:?}\nstores={stores:?}\nloads={loads:?}\n\
         inside={inside_sites:?}\nlib={returned_from_library:?}\n\
         threads={started_threads:?}\ntruncated={truncated}\nrounds={rounds}"
    )
}

/// Analyzes `source` at the given width and returns the summary.
fn analyze_at(source: &str, jobs: usize) -> EffectSummary {
    let unit = leakchecker_frontend::compile(source).expect("subject compiles");
    let cg = CallGraph::build(&unit.program, Algorithm::Rta);
    assert!(
        !unit.checked_loops.is_empty(),
        "battery subject has no @check loop"
    );
    analyze(
        &unit.program,
        &cg,
        unit.checked_loops[0],
        EffectConfig {
            jobs,
            ..EffectConfig::default()
        },
    )
}

/// Asserts jobs ∈ {2, 8} reproduce the sequential summary exactly.
/// Returns the widest summary so callers can inspect its telemetry.
fn assert_equivalent(label: &str, source: &str) -> EffectSummary {
    let sequential = analyze_at(source, 1);
    assert_eq!(
        sequential.regions, 0,
        "{label}: the sequential path must not partition"
    );
    let expected = fingerprint(&sequential);
    let mut widest = sequential;
    for jobs in [2, 8] {
        let parallel = analyze_at(source, jobs);
        assert_eq!(
            expected,
            fingerprint(&parallel),
            "{label}: jobs={jobs} diverged from sequential"
        );
        if jobs == 8 {
            widest = parallel;
        }
    }
    widest
}

/// The corpus exemplar files, sorted.
fn corpus_paths() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jml"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn corpus_exemplars_are_width_independent() {
    let paths = corpus_paths();
    assert!(!paths.is_empty(), "tests/corpus holds no .jml entries");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("corpus entry reads");
        let entry = parse_entry(&text).expect("corpus entry parses");
        assert_equivalent(&path.display().to_string(), &entry.source);
    }
}

#[test]
fn large_subjects_are_width_independent_and_actually_partition() {
    for seed in [0x1A26E, 0xB0B0, 0x5EED5] {
        let generated = generate_large(LargeConfig {
            target_statements: 9_000,
            seed,
            ..LargeConfig::default()
        });
        let widest =
            assert_equivalent(&format!("generate_large seed {seed:#x}"), &generated.source);
        // The ≥2× acceptance criterion is impossible if the partitioner
        // degenerates to one region, so lock the width here: the
        // generated event loop must split into several independent
        // handler/bucket regions.
        assert!(
            widest.regions >= 2,
            "generate_large seed {seed:#x}: expected a real partition, got {} regions",
            widest.regions
        );
        assert!(widest.rounds > 0, "no abstract iterations ran");
    }
}

#[test]
fn fuzz_grammar_sweep_is_width_independent() {
    let mut partitioned = 0usize;
    for seed in 0..200u64 {
        let generated = generate_fuzz(seed);
        let widest = assert_equivalent(&format!("generate_fuzz seed {seed}"), &generated.source);
        if widest.regions >= 2 {
            partitioned += 1;
        }
    }
    // Not every tiny fuzz program has independent handlers, but a sweep
    // where none partitions means the parallel path never ran and the
    // battery proved nothing.
    assert!(
        partitioned > 0,
        "no fuzz subject exercised the parallel path"
    );
}

/// The two deliberate sequential fallbacks, pinned end to end: a run
/// with witnesses on or faults injected must take the sequential
/// effects path (`effects_regions == 0`) at any job count, and its
/// reports must be byte-identical to the fully sequential run's.
#[test]
fn witnesses_and_faults_pin_the_sequential_fallback() {
    let generated = generate_large(LargeConfig {
        target_statements: 4_000,
        ..LargeConfig::default()
    });
    let unit = leakchecker_frontend::compile(&generated.source).expect("subject compiles");
    let target = CheckTarget::Loop(unit.checked_loops[0]);
    let run = |jobs: usize, witnesses: bool, inject: Option<&str>| {
        let faults = inject
            .map(|spec| parse_fault_plan(spec).expect("fault plan parses"))
            .unwrap_or_default();
        let config = DetectorConfig {
            jobs,
            witnesses,
            governor: GovernorConfig {
                faults,
                ..GovernorConfig::default()
            },
            ..DetectorConfig::default()
        };
        check(&unit.program, target, config).expect("subject analyzes")
    };

    // Baseline: the plain parallel run does partition.
    let plain = run(8, false, None);
    assert!(
        plain.stats.effects_regions >= 2,
        "baseline must exercise the parallel effects path"
    );

    // Witness recording pins the fallback…
    let with_witnesses = run(8, true, None);
    assert_eq!(with_witnesses.stats.effects_regions, 0);
    let seq_witnesses = run(1, true, None);
    assert_eq!(
        render_all(&seq_witnesses.program, &seq_witnesses.reports),
        render_all(&with_witnesses.program, &with_witnesses.reports),
        "witness run diverged across widths"
    );

    // …and so does active fault injection, with byte-identical reports
    // and identical governance counters across widths.
    let inject = Some("exhaust@2,panic@4");
    let seq = run(1, false, inject);
    let par = run(8, false, inject);
    assert_eq!(par.stats.effects_regions, 0);
    assert_eq!(seq.stats.effects_regions, 0);
    assert_eq!(
        render_all(&seq.program, &seq.reports),
        render_all(&par.program, &par.reports),
        "fault-injected run diverged across widths"
    );
    assert_eq!(seq.stats.effects_rounds, par.stats.effects_rounds);
    assert_eq!(seq.stats.quarantined, par.stats.quarantined);

    // The plain parallel run still matches the plain sequential run —
    // the fallback is an extra safety net, not the only reason the
    // reports agree.
    let seq_plain = run(1, false, None);
    assert_eq!(
        render_all(&seq_plain.program, &seq_plain.reports),
        render_all(&plain.program, &plain.reports)
    );
    assert_eq!(seq_plain.stats.effects_rounds, plain.stats.effects_rounds);
}

/// The golden oracle: one line per input — label, `rounds`,
/// `truncated` and a 64-bit FNV-1a hash of the full [`fingerprint`] —
/// recorded from the sequential engine before the journaled
/// plain-loop convergence replaced whole-heap snapshots. Any engine
/// change that alters a summary anywhere in the sweep shows up as a
/// line diff here, at every width.
const GOLDEN: &str = include_str!("golden/effects_fingerprints.txt");

/// The oracle's inputs: every corpus exemplar, three large subjects
/// (one at the ~30k-statement size the cold-check benchmark uses) and
/// 500 fuzz-grammar programs.
fn golden_inputs() -> Vec<(String, String)> {
    let mut inputs = Vec::new();
    for path in corpus_paths() {
        let text = std::fs::read_to_string(&path).expect("corpus entry reads");
        let entry = parse_entry(&text).expect("corpus entry parses");
        let name = path
            .file_name()
            .expect("entry has a name")
            .to_string_lossy();
        inputs.push((format!("corpus/{name}"), entry.source));
    }
    for (seed, stmts) in [(0x1A26E, 9_000), (0xB0B0, 9_000), (0x5EED5, 30_000)] {
        let generated = generate_large(LargeConfig {
            target_statements: stmts,
            seed,
            ..LargeConfig::default()
        });
        inputs.push((format!("large/{seed:#x}/{stmts}"), generated.source));
    }
    for seed in 0..500u64 {
        inputs.push((format!("fuzz/{seed}"), generate_fuzz(seed).source));
    }
    inputs
}

fn golden_line(label: &str, summary: &EffectSummary) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in fingerprint(summary).bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!(
        "{label} rounds={} truncated={} fnv={hash:016x}",
        summary.rounds, summary.truncated
    )
}

#[test]
fn summaries_match_the_golden_oracle() {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let inputs = golden_inputs();
    assert_eq!(
        expected.len(),
        inputs.len(),
        "golden file and input sweep disagree on size"
    );
    for ((label, source), want) in inputs.iter().zip(expected) {
        // Widths 3 and 8 give odd and oversubscribed batch packings.
        for jobs in [1, 2, 3, 8] {
            let got = golden_line(label, &analyze_at(source, jobs));
            assert_eq!(
                want, got,
                "{label}: jobs={jobs} diverged from the golden oracle"
            );
        }
    }
}

/// Prints the oracle in the golden file's format. Regenerate only from
/// an engine whose summaries are known good:
/// `cargo test --release --test effects_parallel -- --ignored --nocapture print_golden_oracle`
#[test]
#[ignore = "prints the golden oracle for regeneration"]
fn print_golden_oracle() {
    for (label, source) in golden_inputs() {
        println!("{}", golden_line(&label, &analyze_at(&source, 1)));
    }
}
