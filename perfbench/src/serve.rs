//! `serve-direct` and `fleet-routed`: `check` requests over TCP, closed
//! loop, one persistent connection per client and nproc clients.
//!
//! Requests are drawn from a seeded pool of small programs
//! (`generate_fuzz` seeds plus the Table-1 subjects). Direct,
//! they go to one in-process `leakc serve` with workers = nproc; routed,
//! to an in-process `leakc route` in front of two one-worker shards.
//! Every response must be byte-equal to the frame an in-process run of
//! the same program renders, and that run must miss no labelled or
//! interpreter-confirmed leak.

use crate::layers;
use crate::oracle::{
    check_frame, frame, labels_covered, must_leak, must_leaks_covered, same_bytes, serve_config,
    targets,
};
use crate::trace::{Open, Tracer};
use crate::{end_to_end, per_layer, repeat_setup, stats, Measured, Outcome, Run};
use leakchecker_benchsuite::jdk::with_jdk;
use leakchecker_benchsuite::{all_subjects, generate_fuzz, SplitMix64};
use leakchecker_cli::protocol::{
    json_escape, parse_json, parse_request, readdress_response, Json, Request,
};
use leakchecker_cli::{RouteOptions, Router, ServeOptions, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Generated fuzz programs in the request pool. Enough that the mix of
/// program sizes, and so the latency distribution, barely moves with
/// the seed.
const FUZZ_PROGRAMS: usize = 128;

/// Generated fuzz programs the request-path probe sends.
const PROBE_PROGRAMS: usize = 8;

/// Shards behind the router in `fleet-routed`.
const SHARDS: usize = 2;

/// Requests the request-path probe sends (see [`probe`]).
const PROBE_REQUESTS: u64 = 24;

/// The tail percentile reported as `latency_tail_ms`.
const TAIL: f64 = 0.9;

/// A response slower than this counts as a timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One program of the request pool with its reference answer.
struct PoolProgram {
    /// Program text.
    source: String,
    /// JSON-escaped source, ready to embed in a request.
    escaped: String,
    /// The id-less response frame an in-process run renders.
    frame: String,
    /// Ground-truth verdict of that in-process run.
    sound: Result<(), String>,
}

/// Builds the pool: `fuzz` generated programs (their reference checked
/// against labels and the interpreter) and, with `subjects`, the
/// Table-1 subjects (checked against their labels).
fn build_pool(seed: u64, fuzz: usize, subjects: bool) -> Result<Vec<PoolProgram>, String> {
    let mut rng = SplitMix64::new(seed ^ 0x5E27E);
    let mut pool = Vec::new();
    for _ in 0..fuzz {
        let generated = generate_fuzz(rng.next_u64());
        pool.push(pool_program(generated.source, Some(generated.kinds.len()))?);
    }
    if subjects {
        // A subject whose case study needs thread modeling is left out:
        // the protocol has no thread-modeling override, so the daemon's
        // verdict on it cannot be scored against its labels.
        for subject in all_subjects().into_iter().filter(|s| !s.model_threads) {
            pool.push(pool_program(with_jdk(subject.source), None)?);
        }
    }
    Ok(pool)
}

fn pool_program(source: String, handlers: Option<usize>) -> Result<PoolProgram, String> {
    let unit = leakchecker_frontend::compile(&source).map_err(|e| e.to_string())?;
    let (frame, results) = check_frame(&unit)?;
    let sound = results.iter().try_for_each(labels_covered).and_then(|()| {
        match (handlers, results.first()) {
            (Some(h), Some(result)) => must_leaks_covered(result, &must_leak(&unit, h)?),
            _ => Ok(()),
        }
    });
    Ok(PoolProgram {
        escaped: json_escape(&source),
        source,
        frame,
        sound,
    })
}

/// The daemons of one workload, all in this process.
enum Daemons {
    Direct(Server),
    Fleet { shards: Vec<Server>, router: Router },
}

impl Daemons {
    fn start(fleet: bool, nproc: usize) -> Result<Daemons, String> {
        if !fleet {
            let server = Server::start(&ServeOptions {
                workers: nproc,
                ..ServeOptions::default()
            })
            .map_err(|e| e.to_string())?;
            return Ok(Daemons::Direct(server));
        }
        let shards = (0..SHARDS)
            .map(|i| {
                Server::start(&ServeOptions {
                    workers: 1,
                    shard: Some(format!("shard-{i}")),
                    ..ServeOptions::default()
                })
                .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let router = Router::start(&RouteOptions {
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouteOptions::default()
        })
        .map_err(|e| e.to_string())?;
        Ok(Daemons::Fleet { shards, router })
    }

    /// Where clients send requests.
    fn entry(&self) -> SocketAddr {
        match self {
            Daemons::Direct(server) => server.local_addr(),
            Daemons::Fleet { router, .. } => router.local_addr(),
        }
    }

    /// The daemons that analyze.
    fn servers(&self) -> Vec<SocketAddr> {
        match self {
            Daemons::Direct(server) => vec![server.local_addr()],
            Daemons::Fleet { shards, .. } => shards.iter().map(Server::local_addr).collect(),
        }
    }

    fn is_fleet(&self) -> bool {
        matches!(self, Daemons::Fleet { .. })
    }

    fn stop(self) {
        match self {
            Daemons::Direct(server) => {
                server.drain();
            }
            Daemons::Fleet { shards, router } => {
                router.request_shutdown();
                router.drain();
                for shard in shards {
                    shard.drain();
                }
            }
        }
    }
}

/// One persistent client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line and reads one response line.
    fn roundtrip(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed before the response".to_string()),
            Ok(_) => Ok(line.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("no response (timeout or reset): {e}")),
        }
    }
}

fn check_request(id: u64, program: &PoolProgram) -> String {
    format!(
        "{{\"kind\": \"check\", \"id\": {id}, \"source\": \"{}\"}}",
        program.escaped
    )
}

fn expected(id: u64, program: &PoolProgram) -> String {
    readdress_response(&Some(id.to_string()), &program.frame)
}

/// Where a client's request goes and, routed, the shard its direct
/// twin goes to.
struct Route {
    entry: Conn,
    direct: Option<Conn>,
}

/// One traced request: the round trip in a span, the direct twin
/// through a shard when routed, then the in-process replay of what the
/// daemon does (`parse_request`, compile, `check`, render, frame) with
/// `serve.overhead` = direct round trip − in-process verdict and
/// `router.hop` = routed − direct round trip. Returns the round trip.
fn traced_request(
    tracer: &Tracer,
    parent: Option<u64>,
    op: u64,
    route: &mut Route,
    program: &PoolProgram,
    replay: bool,
) -> Result<f64, String> {
    let request = check_request(op, program);
    let want = expected(op, program);
    let open = tracer.open("request", op, parent);
    let first = tracer.child(
        if route.direct.is_some() {
            "router.roundtrip"
        } else {
            "serve.roundtrip"
        },
        &open,
    );
    let line = route.entry.roundtrip(&request);
    let rtt = tracer.close(first, &[]);
    same_bytes(&want, &line?)?;
    let direct_rtt = match route.direct.as_mut() {
        Some(direct) => {
            let span = tracer.child("serve.roundtrip", &open);
            let line = direct.roundtrip(&request);
            let secs = tracer.close(span, &[]);
            same_bytes(&want, &line?)?;
            tracer.close(
                tracer.child("router.hop", &open),
                &[("ms", (rtt - secs) * 1e3)],
            );
            secs
        }
        None => rtt,
    };

    let parsed = tracer.time("protocol.parse_request", &open, || parse_request(&request))?;
    let Request::Check { source, .. } = parsed else {
        return Err("request did not parse as a check".to_string());
    };
    let started = Instant::now();
    let unit = layers::compile(tracer, &open, &source)?;
    let mut in_process = started.elapsed().as_secs_f64();
    let (mut output, mut reports, mut degraded) = (String::new(), 0u64, false);
    let mut verdicts = Vec::new();
    for target in targets(&unit) {
        let v = layers::check_and_render(tracer, &open, &unit, target, serve_config())?;
        in_process += v.check_secs + v.render_secs;
        output.push_str(&v.text);
        reports += v.result.reports.len() as u64;
        degraded |= v.result.stats.is_degraded();
        verdicts.push((target, v));
    }
    let rendered = tracer.time("protocol.render_check", &open, || {
        frame(reports, degraded, &output)
    });
    same_bytes(&program.frame, &rendered)?;
    tracer.close(
        tracer.child("serve.overhead", &open),
        &[("ms", (direct_rtt - in_process) * 1e3)],
    );
    tracer.close(open, &[]);
    if replay {
        for (target, v) in &verdicts {
            layers::replay_verified(tracer, op, &unit, *target, serve_config(), v)?;
        }
    }
    Ok(rtt)
}

/// One client's closed loop until `deadline`; returns each response's
/// completion time and latency in ms.
fn client(
    daemons: &Daemons,
    pool: &[PoolProgram],
    seed: u64,
    index: usize,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> (Vec<(Instant, f64)>, Outcome) {
    let mut outcome = Outcome::default();
    let mut latencies = Vec::new();
    let servers = daemons.servers();
    let route = Conn::open(daemons.entry()).and_then(|entry| {
        let direct = match (tracer, daemons.is_fleet()) {
            (Some(_), true) => Some(Conn::open(servers[index % servers.len()])?),
            _ => None,
        };
        Ok(Route { entry, direct })
    });
    let mut route = match route {
        Ok(route) => route,
        Err(e) => {
            outcome.record(Err(e));
            return (latencies, outcome);
        }
    };
    let mut rng = SplitMix64::new(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut i = 0u64;
    while Instant::now() < deadline {
        let program = &pool[rng.gen_range(0, pool.len() as u64) as usize];
        let op = ((index as u64) << 32) | i;
        i += 1;
        let verdict = match tracer {
            None => {
                let request = check_request(op, program);
                let start = Instant::now();
                let line = route.entry.roundtrip(&request);
                let secs = start.elapsed().as_secs_f64();
                line.and_then(|line| same_bytes(&expected(op, program), &line))
                    .map(|()| secs)
            }
            Some(tracer) => traced_request(tracer, None, op, &mut route, program, true),
        }
        .and_then(|secs| program.sound.clone().map(|()| secs));
        match verdict {
            Ok(secs) => {
                latencies.push((Instant::now(), secs * 1e3));
                outcome.record(Ok(()));
            }
            Err(e) => {
                let broken = e.starts_with("send:") || e.starts_with("no response");
                outcome.record(Err(e));
                if broken {
                    break;
                }
            }
        }
    }
    (latencies, outcome)
}

/// Runs nproc clients for `seconds`; returns latencies in completion
/// order, their completion times in seconds, and the wall time.
fn measure(
    run: &Run,
    daemons: &Daemons,
    pool: &[PoolProgram],
    seconds: f64,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
) -> (Vec<f64>, Vec<f64>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<(Instant, f64)>, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..run.nproc)
            .map(|index| {
                scope.spawn(move || client(daemons, pool, run.seed, index, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut timed = Vec::new();
    for (lat, client_outcome) in results {
        timed.extend(lat);
        outcome.absorb(client_outcome);
    }
    timed.sort_by_key(|&(at, _)| at);
    let times = timed
        .iter()
        .map(|(at, _)| at.duration_since(start).as_secs_f64())
        .collect();
    (timed.into_iter().map(|(_, ms)| ms).collect(), times, wall)
}

/// Reads `field` of a `stats` frame as a number.
fn stat(frame: &Json, field: &str) -> f64 {
    match frame {
        Json::Obj(fields) => match fields.get(field) {
            Some(Json::Num(n)) => *n as f64,
            _ => 0.0,
        },
        _ => 0.0,
    }
}

fn stats_frame(addr: SocketAddr) -> Result<Json, String> {
    let line = Conn::open(addr)?.roundtrip("{\"kind\": \"stats\"}")?;
    parse_json(&line)
}

/// Records each analyzing daemon's `stats` counters in a `serve.stats`
/// span and, routed, the router's in a `router.stats` span.
fn record_stats(tracer: &Tracer, parent: Option<u64>, daemons: &Daemons) -> Result<(), String> {
    for addr in daemons.servers() {
        let frame = stats_frame(addr)?;
        let open = tracer.open("serve.stats", 0, parent);
        tracer.close(
            open,
            &[
                ("admitted", stat(&frame, "admitted")),
                ("coalesced", stat(&frame, "coalesced")),
                ("shed", stat(&frame, "shed")),
            ],
        );
    }
    if daemons.is_fleet() {
        let frame = stats_frame(daemons.entry())?;
        let open = tracer.open("router.stats", 0, parent);
        tracer.close(
            open,
            &[
                ("retries", stat(&frame, "retries")),
                ("hedges", stat(&frame, "hedges")),
            ],
        );
    }
    Ok(())
}

/// Request-path probe for workloads whose path has no daemon: a small
/// pool through a two-shard fleet, each request also sent directly to
/// a shard and replayed in-process, one client, spans under `parent`.
pub fn probe(run: &Run, tracer: &Tracer, parent: &Open) -> Outcome {
    let mut outcome = Outcome::default();
    let result = build_pool(run.seed, PROBE_PROGRAMS, false).and_then(|pool| {
        let daemons = Daemons::start(true, run.nproc)?;
        let mut route = Route {
            entry: Conn::open(daemons.entry())?,
            direct: Some(Conn::open(daemons.servers()[0])?),
        };
        for i in 0..PROBE_REQUESTS {
            let program = &pool[(i as usize) % pool.len()];
            let op = (1 << 48) | i;
            outcome.record(
                traced_request(tracer, Some(parent.id()), op, &mut route, program, false)
                    .map(|_| ()),
            );
        }
        drop(route);
        let stats = record_stats(tracer, Some(parent.id()), &daemons);
        daemons.stop();
        stats
    });
    if let Err(e) = result {
        outcome.record(Err(format!("request-path probe: {e}")));
    }
    outcome
}

/// Runs `serve-direct` (`fleet` false) or `fleet-routed`.
pub fn run(run: &Run, tracer: &Tracer, fleet: bool) -> Result<Outcome, String> {
    let ((pool, daemons), setup_secs) = repeat_setup(
        |_| {
            let pool = build_pool(run.seed, FUZZ_PROGRAMS, true)?;
            Ok((pool, Daemons::start(fleet, run.nproc)?))
        },
        |(_, daemons)| daemons.stop(),
    )?;
    let mut outcome = Outcome::default();
    for (i, p) in pool.iter().enumerate() {
        if let Err(e) = &p.sound {
            outcome.problem(format!("pool program {i}: {e}"));
        }
    }
    if !run.trace {
        let (latencies, times, wall) =
            measure(run, &daemons, &pool, run.seconds, None, &mut outcome);
        daemons.stop();
        let n = latencies.len();
        let p99 = stats::windowed(&latencies, 0.99);
        outcome.notes.push(format!(
            "{}: {n} correct responses to {} clients over {} pool programs; tail {}; \
             p99 {p99:.3} ms (not a metric: it swings 2x between windows of one run \
             on a shared VM); latency_seq_p50_ms = latency_p50_ms (the daemon \
             analyzes at jobs=1)",
            if fleet {
                "fleet-routed"
            } else {
                "serve-direct"
            },
            run.nproc,
            pool.len(),
            crate::tail_label(n, TAIL)
        ));
        (outcome.metrics, outcome.info) = end_to_end(
            &setup_secs,
            &Measured {
                seq_latency_ms: latencies.clone(),
                latency_ms: latencies,
                tail_ceiling: TAIL,
                rps: stats::windowed_rate(&times, wall),
                rps_samples: n,
            },
        );
        return Ok(outcome);
    }
    let (untraced, ..) = measure(run, &daemons, &pool, run.seconds / 2.0, None, &mut outcome);
    let (traced, ..) = measure(
        run,
        &daemons,
        &pool,
        run.seconds / 2.0,
        Some(tracer),
        &mut outcome,
    );
    let overhead = stats::median(&traced) - stats::median(&untraced);
    if let Err(e) = record_stats(tracer, None, &daemons) {
        outcome.problem(format!("stats verb: {e}"));
    }
    daemons.stop();

    let probe_span = tracer.open(crate::trace::PROBE, u64::MAX, None);
    outcome.record(crate::warm_edit::cache_probe(
        run,
        tracer,
        &probe_span,
        &pool[0].source,
    ));
    if !fleet {
        outcome.absorb(probe(run, tracer, &probe_span));
    }
    tracer.close(probe_span, &[]);

    let spans = tracer.spans();
    outcome.metrics = per_layer(&crate::trace::layer_spans(&spans), (overhead, traced.len()));
    crate::write_spans(run, &spans, &mut outcome);
    Ok(outcome)
}
