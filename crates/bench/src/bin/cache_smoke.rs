//! CI gate for the crash-safe incremental summary cache: generates one
//! seed-deterministic ~`--stmts`-statement subject and drills the two
//! contracts the cache makes.
//!
//! * **Warm speed + determinism** (default mode): seed a persistent
//!   store with a cold run and 150 synthetic ≈11 KB result records (a
//!   long edit session's history), bump one integer constant in one
//!   stage method, then re-check the edited program at every width in
//!   `--jobs-list` — cold with the cache disabled and warm from the
//!   store (open, key, look up). Fails if any width misses, if any warm
//!   replay is not byte-identical to the cache-disabled report, or if
//!   the warm path is under `--min-speedup` times faster than cold.
//! * **Fault recovery** (`--chaos PLAN`): seed the store, inject the
//!   plan's disk faults (`torn-cache@N`, `flip@N:byte`, `trunc@N`)
//!   into the cache file, reopen, and re-check warm. Fails unless the
//!   warm-path report byte-equals the cache-disabled cold run —
//!   corruption must degrade to a miss, never to a wrong answer.
//!
//! ```text
//! cargo run -p leakchecker-bench --release --bin cache_smoke -- \
//!   --stmts 100000 --jobs-list 1,4 --min-speedup 10
//! cargo run -p leakchecker-bench --release --bin cache_smoke -- \
//!   --stmts 20000 --chaos flip@1:40,torn-cache@3
//! ```

use leakchecker_bench::{chaos_recovery_check, render_warm_cold, warm_cold_sweep, WarmColdPoint};

struct Args {
    stmts: usize,
    jobs_list: Vec<usize>,
    min_speedup: f64,
    chaos: Option<String>,
    cache_dir: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        stmts: 100_000,
        jobs_list: vec![1, 4],
        min_speedup: 10.0,
        chaos: None,
        cache_dir: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut next = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("cache_smoke: {flag} needs {what}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--stmts" => {
                args.stmts = next("a statement count")
                    .parse::<usize>()
                    .unwrap_or_else(|_| bad())
            }
            "--jobs-list" => {
                args.jobs_list = next("a comma list")
                    .split(',')
                    .map(|n| n.trim().parse::<usize>().unwrap_or_else(|_| bad()))
                    .collect()
            }
            "--min-speedup" => {
                args.min_speedup = next("a ratio").parse::<f64>().unwrap_or_else(|_| bad())
            }
            "--chaos" => args.chaos = Some(next("a fault plan")),
            "--cache-dir" => args.cache_dir = Some(next("a directory")),
            _ => {
                eprintln!(
                    "usage: cache_smoke [--stmts N] [--jobs-list N,N,...] \
                     [--min-speedup X] [--chaos PLAN] [--cache-dir DIR]"
                );
                std::process::exit(2);
            }
        }
    }
    if args.jobs_list.is_empty() {
        eprintln!("cache_smoke: --jobs-list must not be empty");
        std::process::exit(2);
    }
    args
}

fn bad() -> ! {
    eprintln!("cache_smoke: malformed numeric argument");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let cache_dir = match &args.cache_dir {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("leakc-cache-smoke-{}", std::process::id())),
    };
    // A stale store from an earlier run would turn the cold seed into a
    // warm hit and zero the measured speedup.
    std::fs::remove_dir_all(&cache_dir).ok();

    if let Some(plan) = &args.chaos {
        println!(
            "cache smoke: ~{} statements, chaos plan `{plan}`",
            args.stmts
        );
        let outcome = match chaos_recovery_check(args.stmts, plan, &cache_dir) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
        };
        for line in &outcome.applied {
            println!("injected {line}");
        }
        println!(
            "post-injection: {}, {} record(s) quarantined, misses {}",
            if outcome.warm_hit {
                "result record survived (warm hit)"
            } else {
                "result record lost (degraded to a miss)"
            },
            outcome.cache.corrupt_recovered,
            outcome.cache.misses,
        );
        if !outcome.byte_identical {
            eprintln!("FAIL: warm-path report drifted from the cache-disabled cold run");
            std::process::exit(1);
        }
        println!("OK: warm-path report byte-identical to the cache-disabled run");
    } else {
        println!(
            "cache smoke: ~{} statements, jobs {:?}, speedup floor {:.1}x",
            args.stmts, args.jobs_list, args.min_speedup
        );
        let points = warm_cold_sweep(args.stmts, &args.jobs_list, &cache_dir);
        print!("{}", render_warm_cold(&points));
        for p in &points {
            if !p.warm_hit {
                eprintln!(
                    "FAIL: jobs={} missed — a one-constant edit invalidated the summary",
                    p.jobs
                );
                std::process::exit(1);
            }
            if !p.byte_identical {
                eprintln!(
                    "FAIL: jobs={} warm replay is not byte-identical to the \
                     cache-disabled report",
                    p.jobs
                );
                std::process::exit(1);
            }
            if p.speedup() < args.min_speedup {
                eprintln!(
                    "FAIL: jobs={} warm re-check is only {:.1}x faster than cold \
                     ({:.3}s -> {:.3}s), floor is {:.1}x",
                    p.jobs,
                    p.speedup(),
                    p.cold_secs,
                    p.warm_secs,
                    args.min_speedup
                );
                std::process::exit(1);
            }
        }
        println!(
            "OK: warm replays byte-identical at every width, slowest speedup {:.1}x \
             (floor {:.1}x)",
            points
                .iter()
                .map(WarmColdPoint::speedup)
                .fold(f64::INFINITY, f64::min),
            args.min_speedup
        );
    }
    std::fs::remove_dir_all(&cache_dir).ok();
}
