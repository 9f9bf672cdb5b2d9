//! CI gate for the large-program mode: generates one seed-deterministic
//! ~`--stmts`-statement subject, analyzes it at every width in
//! `--jobs-list`, and fails on
//!
//! * a wall-clock regression — compiling the subject (lex, parse,
//!   resolve) and the sequential end-to-end analysis must each stay
//!   under `--ceiling` seconds;
//! * a scaling regression — the widest run must reach `--min-speedup`
//!   over sequential end-to-end, and its effects phase must reach
//!   `--min-effects-speedup` over the sequential effects phase (the
//!   Jacobi-rounds gate); both asserted only when the machine actually
//!   has that many cores (a 1-CPU container cannot show parallel
//!   speedup, so the assertions are skipped with a notice there);
//! * any determinism violation — `scaling_sweep` byte-compares the
//!   rendered reports across widths before timing anything.
//!
//! ```text
//! cargo run -p leakchecker-bench --release --bin scale_smoke -- \
//!   --stmts 100000 --ceiling 1 --min-speedup 2.0 --min-effects-speedup 2.0
//! ```

use leakchecker_bench::{render_scaling, scaling_sweep};

struct Args {
    stmts: usize,
    ceiling_secs: f64,
    min_speedup: f64,
    min_effects_speedup: f64,
    jobs_list: Vec<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        stmts: 100_000,
        ceiling_secs: 120.0,
        min_speedup: 2.0,
        min_effects_speedup: 2.0,
        jobs_list: vec![1, 4],
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut next = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("scale_smoke: {flag} needs {what}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--stmts" => {
                args.stmts = next("a statement count")
                    .parse::<usize>()
                    .unwrap_or_else(|_| bad())
            }
            "--ceiling" => {
                args.ceiling_secs = next("seconds").parse::<f64>().unwrap_or_else(|_| bad())
            }
            "--min-speedup" => {
                args.min_speedup = next("a ratio").parse::<f64>().unwrap_or_else(|_| bad())
            }
            "--min-effects-speedup" => {
                args.min_effects_speedup = next("a ratio").parse::<f64>().unwrap_or_else(|_| bad())
            }
            "--jobs-list" => {
                args.jobs_list = next("a comma list")
                    .split(',')
                    .map(|n| n.trim().parse::<usize>().unwrap_or_else(|_| bad()))
                    .collect()
            }
            _ => {
                eprintln!(
                    "usage: scale_smoke [--stmts N] [--ceiling SECS] [--min-speedup X] \
                     [--min-effects-speedup X] [--jobs-list N,N,...]"
                );
                std::process::exit(2);
            }
        }
    }
    if args.jobs_list.is_empty() || args.jobs_list[0] != 1 {
        eprintln!("scale_smoke: --jobs-list must start with the sequential baseline 1");
        std::process::exit(2);
    }
    args
}

fn bad() -> ! {
    eprintln!("scale_smoke: malformed numeric argument");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "scale smoke: ~{} statements, jobs {:?}, machine width {width}",
        args.stmts, args.jobs_list
    );
    let points = scaling_sweep(args.stmts, &args.jobs_list, 2);
    print!("{}", render_scaling(&points));
    let seq = &points[0];
    println!("compile(s) {:.3}", seq.compile_secs);

    if seq.statements < args.stmts * 4 / 5 {
        eprintln!(
            "FAIL: generated only {} statements, wanted at least {}",
            seq.statements,
            args.stmts * 4 / 5
        );
        std::process::exit(1);
    }
    if seq.compile_secs > args.ceiling_secs {
        eprintln!(
            "FAIL: compiling the subject took {:.2}s, ceiling is {:.2}s",
            seq.compile_secs, args.ceiling_secs
        );
        std::process::exit(1);
    }
    if seq.secs > args.ceiling_secs {
        eprintln!(
            "FAIL: sequential analysis took {:.2}s, ceiling is {:.2}s",
            seq.secs, args.ceiling_secs
        );
        std::process::exit(1);
    }
    let widest = points
        .iter()
        .max_by_key(|p| p.jobs)
        .expect("jobs list is non-empty");
    if widest.jobs > 1 {
        if width >= widest.jobs {
            if widest.speedup < args.min_speedup {
                eprintln!(
                    "FAIL: speedup at jobs={} is {:.2}x, floor is {:.2}x",
                    widest.jobs, widest.speedup, args.min_speedup
                );
                std::process::exit(1);
            }
            // The Jacobi-rounds gate: the effects phase itself must
            // scale, not just ride along on the flows/refine speedup.
            let effects_speedup = if widest.effects_secs > 0.0 {
                seq.effects_secs / widest.effects_secs
            } else {
                0.0
            };
            if effects_speedup < args.min_effects_speedup {
                eprintln!(
                    "FAIL: effects-phase speedup at jobs={} is {:.2}x \
                     ({:.3}s -> {:.3}s), floor is {:.2}x",
                    widest.jobs,
                    effects_speedup,
                    seq.effects_secs,
                    widest.effects_secs,
                    args.min_effects_speedup
                );
                std::process::exit(1);
            }
            println!(
                "OK: {:.2}x at jobs={} (floor {:.2}x), effects {:.2}x (floor {:.2}x), \
                 sequential {:.2}s (ceiling {:.2}s)",
                widest.speedup,
                widest.jobs,
                args.min_speedup,
                effects_speedup,
                args.min_effects_speedup,
                seq.secs,
                args.ceiling_secs
            );
        } else {
            println!(
                "OK: sequential {:.2}s under ceiling {:.2}s; speedup floor skipped \
                 (machine width {width} < jobs={}, no parallel speedup is observable)",
                seq.secs, args.ceiling_secs, widest.jobs
            );
        }
    }
}
