//! Golden oracle for the frontend: lexer, parser and lowering together.
//!
//! Every input compiles to a fingerprint of everything the rest of the
//! pipeline reads from a `CompiledUnit` — the pretty-printed IR, every
//! method's raw locals (names and types, temporaries included), every
//! allocation site's description and ground-truth label, the entry
//! method, the `@check` loops and the `@region` methods. Byte mutants of
//! the corpus sources record the exact `CompileError` (phase, span and
//! message) instead, so the error paths are pinned as tightly as the
//! successful ones. The golden file was recorded before the frontend's
//! ownership model changed and must never be regenerated to make a
//! frontend change pass.

use leakchecker_benchsuite::{
    all_subjects, generate_fuzz, generate_large, jdk::with_jdk, LargeConfig, SplitMix64,
};
use leakchecker_frontend::{compile, CompiledUnit};
use leakchecker_fuzz::parse_entry;
use leakchecker_ir::pretty::print_program;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/frontend_fingerprints.txt");

/// Byte mutants of the corpus sources in the oracle.
const MUTANTS: u64 = 2_000;

fn fnv(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything downstream layers observe about a compiled unit.
fn fingerprint(unit: &CompiledUnit) -> String {
    let program = &unit.program;
    let mut text = print_program(program);
    for method in program.methods() {
        let _ = writeln!(text, "locals {}.{}", method.owner.index(), method.name);
        for local in &method.locals {
            let _ = writeln!(text, "  {} {:?}", local.name, local.ty);
        }
    }
    for alloc in program.allocs() {
        let _ = writeln!(text, "alloc {:?} {:?}", alloc.describe, alloc.label);
    }
    let _ = writeln!(
        text,
        "entry={:?} checked={:?} regions={:?}",
        program.entry(),
        unit.checked_loops,
        unit.region_methods
    );
    text
}

/// One oracle line: the label plus either the unit's statement count and
/// fingerprint hash or the compile error's display text and span end.
fn golden_line(label: &str, source: &str) -> String {
    match compile(source) {
        Ok(unit) => format!(
            "{label} ok stmts={} fnv={:016x}",
            unit.program.statement_count(),
            fnv(&fingerprint(&unit))
        ),
        Err(e) => format!("{label} err {:?} end={}", e.to_string(), e.span.end),
    }
}

/// The corpus exemplar sources, sorted by file name.
fn corpus_sources() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jml"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("corpus entry reads");
            let entry = parse_entry(&text).expect("corpus entry parses");
            let name = path
                .file_name()
                .expect("entry has a name")
                .to_string_lossy();
            (format!("corpus/{name}"), entry.source)
        })
        .collect()
}

/// Multi-byte and non-ASCII text the mutator splices in: Latin-1,
/// Greek, CJK, an emoji, U+00A0 (whitespace to `char::is_whitespace`)
/// and U+2028 (a line separator that is not `\n`).
const NON_ASCII: &[&str] = &["é", "λ", "中", "😀", "\u{00A0}", "\u{2028}"];

/// ASCII bytes the language gives meaning to.
const SYNTAX: &[u8] = b"{}()[];,.=<>+-*/%!&|@\"_$#\\ \n\t0123456789azAZ";

/// A SplitMix64 byte mutant of one corpus source: one to three edits,
/// each a random byte overwrite, a deletion, a syntax-byte insertion, a
/// non-ASCII insertion or a truncation. Invalid UTF-8 becomes U+FFFD
/// through `from_utf8_lossy`, as a server reading raw bytes would.
fn mutant(sources: &[(String, String)], seed: u64) -> (String, String) {
    let mut rng = SplitMix64::new(seed);
    let (name, source) = &sources[rng.gen_range(0, sources.len() as u64) as usize];
    let mut bytes = source.clone().into_bytes();
    for _ in 0..rng.gen_range(1, 4) {
        let at = rng.gen_range(0, bytes.len() as u64 + 1) as usize;
        match rng.gen_range(0, 5) {
            0 if at < bytes.len() => bytes[at] = rng.gen_range(0, 256) as u8,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => {
                let b = SYNTAX[rng.gen_range(0, SYNTAX.len() as u64) as usize];
                bytes.insert(at, b);
            }
            3 => {
                let text = NON_ASCII[rng.gen_range(0, NON_ASCII.len() as u64) as usize];
                bytes.splice(at..at, text.bytes());
            }
            _ => bytes.truncate(at),
        }
    }
    let label = format!("mutant/{seed}/{}", name.trim_start_matches("corpus/"));
    (label, String::from_utf8_lossy(&bytes).into_owned())
}

/// The oracle's inputs: the corpus, the Table-1 subjects with the
/// mini-JDK prelude, three large subjects, 500 fuzz-grammar programs and
/// the corpus mutants.
fn golden_inputs() -> Vec<(String, String)> {
    let corpus = corpus_sources();
    let mut inputs = corpus.clone();
    for subject in all_subjects() {
        inputs.push((
            format!("subject/{}", subject.name),
            with_jdk(subject.source),
        ));
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
    for seed in 0..MUTANTS {
        inputs.push(mutant(&corpus, seed));
    }
    inputs
}

#[test]
fn frontend_matches_the_golden_oracle() {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let inputs = golden_inputs();
    assert_eq!(
        expected.len(),
        inputs.len(),
        "golden file and input sweep disagree on size"
    );
    for ((label, source), want) in inputs.iter().zip(expected) {
        assert_eq!(want, golden_line(label, source), "{label} diverged");
    }
}

#[test]
fn mutants_reach_every_lexer_path() {
    // The sweep only pins the slow paths if it reaches them: some
    // mutants must fail to lex on a non-ASCII character, some must carry
    // non-ASCII text through to a later error or a successful compile.
    let lines: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| l.starts_with("mutant/"))
        .collect();
    assert!(lines.iter().any(|l| l.contains("lexical error")));
    assert!(lines.iter().any(|l| l.contains("unexpected character `é`")));
    assert!(lines.iter().any(|l| l.contains("syntax error")));
    assert!(lines.iter().any(|l| l.contains("resolution error")));
    assert!(lines.iter().any(|l| l.contains(" ok stmts=")));
}

/// Prints the oracle in the golden file's format:
/// `cargo test --release --test frontend_golden -- --ignored --nocapture print_golden_oracle`
#[test]
#[ignore = "prints the golden oracle for regeneration"]
fn print_golden_oracle() {
    for (label, source) in golden_inputs() {
        println!("{}", golden_line(&label, &source));
    }
}
