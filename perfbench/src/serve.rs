//! `serve`: an in-process `serve::Server` driven over TCP by this one
//! process through [`CONNECTIONS`] connection, never idle (a connection
//! pins a worker until it closes).  One connection, and one BFS thread
//! per analysis ([`common::BFS_THREADS`]), keep the run from measuring
//! the scheduler of a machine with a few shared cores: with two
//! connections on two cores, which requests happened to overlap moved
//! the latency medians and the peak memory by 20–35 % from run to run.
//!
//! Four classes ([`Class`]): *hot* — a few warm shapes, mostly
//! heterogeneous 4×5, each request with a fresh rate table so that only
//! the structure is reused; *cold* — shapes the server has never seen;
//! *deadline* — a 0 ms deadline that must come back degraded; *search* —
//! a small overlap portfolio search on the server's pooled private
//! caches.  Two phases: an open loop at the offered rate given on the
//! command line (latency timed from each request's due time, generator
//! lateness reported), then a closed-loop saturation phase of whole
//! blocks of the class mix; `ops_per_s` is its completion rate.
//!
//! Every response is checked afterwards against an uncontended
//! in-process replay of the same request sequence on a private cache
//! (`report::system_report_shared`, bitwise identical to
//! `report::system_report_status` by contract; the primed hot shapes are
//! also compared with real one-shot reports during set-up).  The replay's
//! timings give the per-class `serve.wait_ms` of the traced run.

use crate::check::{self, Expect};
use crate::common::{self, Config, EndToEnd, LayerExtras};
use crate::emit::Outcome;
use crate::layers::{self, LayerCache};
use crate::rng::Rng;
use crate::schedule::{self, Class};
use crate::stats;
use crate::systems::{self, HOT};
use crate::trace::Tracer;
use repstream::core::model::System;
use repstream::core::report::{
    system_report_shared, system_report_status, ReportOptions, ReportStatus,
};
use repstream::core::wire::{AnalyzeRequest, Request, Response, SearchRequest, WireOptions};
use repstream::engine::{portfolio_search_cached, PortfolioOptions};
use repstream::markov::cache::{ChainCache, SharedChainCache};
use repstream::markov::govern::Budget;
use repstream::serve::{Client, ServeOptions, Server};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections of both phases, and server workers.  Every
/// connection is served by one worker, so one worker serves them all: with
/// a second, idle one, which worker took a connection decided which
/// thread's allocator arena held the chains' buffers, and the peak memory
/// jumped by 20–30 MiB on some runs.
const CONNECTIONS: usize = 1;

/// Set-ups per run (server bind + priming); `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Blocks of the class mix in the open loop: enough to send every
/// open-loop cold shape exactly once.
const OPEN_BLOCKS: usize = systems::COLD_OPEN.len() / schedule::per_block(Class::Cold);

/// Percentiles of `tail_ms` and `warm_tail_ms`: the open loop always
/// sends 120 requests, 90 of them hot, which leave ten or more beyond p90
/// and p75.
const TAIL_PCTS: [f64; 2] = [90.0, 75.0];

/// Requests prepared for the saturation phase (it stops early if they
/// run out).
const SATURATION_REQUESTS: usize = 1000;

/// One prepared request.
struct Prepared {
    class: Class,
    request: Request,
}

/// One answered request; times in seconds from the phase start.
struct Answered {
    index: usize,
    sent_s: f64,
    done_s: f64,
    response: Result<Response, String>,
}

/// A running server and the thread serving it.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(self.addr).map_err(|e| e.to_string())?;
        match c.call(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        drop(c);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// Bind a server with `workers` workers and prime every hot shape once.
fn start(workers: usize, primes: &[System]) -> Result<Running, String> {
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..Default::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let server = Arc::new(server);
    let thread = std::thread::spawn(move || server.run());
    let running = Running { addr, thread };
    let primed = Client::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| {
            primes
                .iter()
                .try_for_each(|sys| match c.call(&analyze(sys.clone(), wire_options())) {
                    Ok(Response::Analyze(_)) => Ok(()),
                    other => Err(format!("prime answered {other:?}")),
                })
        });
    match primed {
        Ok(()) => Ok(running),
        Err(e) => {
            // The priming connection is closed by now, so a worker is free
            // to take the shutdown.
            let _ = running.stop();
            Err(e)
        }
    }
}

/// The options of every analyze request: one BFS thread.
fn wire_options() -> WireOptions {
    WireOptions {
        threads: common::BFS_THREADS,
        ..Default::default()
    }
}

fn analyze(system: System, options: WireOptions) -> Request {
    Request::Analyze(AnalyzeRequest { system, options })
}

/// Build the request of class `class`; `counters` numbers the hot and
/// cold requests drawn so far.
fn prepare(
    class: Class,
    rng: &mut Rng,
    counters: &mut [usize; 2],
    cold_pool: &[Vec<usize>],
) -> Prepared {
    let request = match class {
        Class::Hot => {
            counters[0] += 1;
            analyze(
                systems::hot_shape(counters[0] - 1).draw(rng),
                wire_options(),
            )
        }
        Class::Cold => {
            counters[1] += 1;
            let teams = &cold_pool[(counters[1] - 1) % cold_pool.len()];
            analyze(systems::system(teams, false, rng), wire_options())
        }
        Class::Deadline => analyze(
            systems::DEADLINE.draw(rng),
            WireOptions {
                deadline_ms: Some(0),
                ..wire_options()
            },
        ),
        Class::Search => Request::Search(systems::search_request(rng)),
    };
    Prepared { class, request }
}

/// Hands out request indices.  In the closed loop it stops at the first
/// block boundary after `stop_s`, so a phase always sends whole blocks of
/// the class mix.
struct Dispatch {
    next: usize,
    closed: bool,
}

/// Drive `requests` through `connections` connections.  With `due_s`,
/// request `i` is sent no earlier than `due_s[i]` (open loop); without,
/// each connection sends back to back, whole blocks until `stop_s`
/// (closed loop).
fn drive(
    addr: SocketAddr,
    connections: usize,
    requests: &[Prepared],
    due_s: Option<&[f64]>,
    stop_s: f64,
) -> (Vec<Answered>, f64) {
    let dispatch = Mutex::new(Dispatch {
        next: 0,
        closed: false,
    });
    let answered = Mutex::new(Vec::with_capacity(requests.len()));
    let t0 = Instant::now();
    let take = || {
        let mut d = dispatch.lock().expect("no thread panics while dispatching");
        if d.next.is_multiple_of(schedule::BLOCK) && t0.elapsed().as_secs_f64() >= stop_s {
            d.closed = true;
        }
        if d.closed || d.next >= requests.len() {
            return None;
        }
        d.next += 1;
        Some(d.next - 1)
    };
    std::thread::scope(|s| {
        for _ in 0..connections {
            s.spawn(|| {
                let mut client = Client::connect(addr).ok();
                while let Some(i) = take() {
                    if let Some(due) = due_s {
                        let wait = due[i] - t0.elapsed().as_secs_f64();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                    }
                    let sent_s = t0.elapsed().as_secs_f64();
                    let response = match client.as_mut() {
                        Some(c) => c.call(&requests[i].request).map_err(|e| e.to_string()),
                        None => Err("not connected".to_string()),
                    };
                    let done_s = t0.elapsed().as_secs_f64();
                    if response.is_err() {
                        client = Client::connect(addr).ok();
                    }
                    answered
                        .lock()
                        .expect("no thread panics while holding the log")
                        .push(Answered {
                            index: i,
                            sent_s,
                            done_s,
                            response,
                        });
                }
            });
        }
    });
    let mut answered = answered.into_inner().expect("log lock not poisoned");
    answered.sort_by(|a, b| a.sent_s.total_cmp(&b.sent_s));
    let end = answered.iter().fold(0.0f64, |m, a| m.max(a.done_s));
    (answered, end)
}

/// The uncontended in-process replay of one request on the private
/// caches: its time and whether the served response matches it.
struct Replay {
    ms: f64,
    problems: Vec<String>,
    degraded: bool,
    search_evaluations: usize,
}

/// Private state of the replay: a primed shared cache for analyze
/// requests, a pool of private caches for searches (as the server keeps
/// them).
struct Replayer {
    cache: SharedChainCache,
    search_pool: Vec<ChainCache>,
}

impl Replayer {
    fn new(primes: &[System]) -> Replayer {
        let cache = SharedChainCache::new();
        for sys in primes {
            system_report_shared(sys, report_options(&wire_options()), &cache);
        }
        Replayer {
            cache,
            search_pool: Vec::new(),
        }
    }

    fn replay(&mut self, p: &Prepared, served: &Result<Response, String>) -> Replay {
        let mut r = Replay {
            ms: 0.0,
            problems: Vec::new(),
            degraded: false,
            search_evaluations: 0,
        };
        match (&p.request, served) {
            (Request::Analyze(a), Ok(Response::Analyze(got))) => {
                let t = Instant::now();
                let (text, status) =
                    system_report_shared(&a.system, report_options(&a.options), &self.cache);
                r.ms = t.elapsed().as_secs_f64() * 1e3;
                let expect = if p.class == Class::Deadline {
                    Expect::Degraded
                } else {
                    Expect::Ok
                };
                r.degraded = matches!(got.status, ReportStatus::Degraded(_));
                r.problems =
                    check::report(&got.text, got.status, expect, check::max_rate(&a.system));
                if got.text != text || got.status != status {
                    r.problems
                        .push("served report differs from the in-process report".into());
                }
            }
            (Request::Search(s), Ok(Response::Search(got))) => {
                let cache = self.search_pool.pop().unwrap_or_default();
                let t = Instant::now();
                let (result, cache) =
                    portfolio_search_cached(&s.app, &s.platform, search_options(s), cache);
                r.ms = t.elapsed().as_secs_f64() * 1e3;
                self.search_pool.push(cache);
                match result {
                    Ok(report) => {
                        let same = report.finalists.len() == got.finalists.len()
                            && report.finalists.iter().zip(&got.finalists).all(|(a, b)| {
                                a.mapping.teams() == b.teams.as_slice()
                                    && a.det.to_bits() == b.det.to_bits()
                                    && a.exp.map(f64::to_bits) == b.exp.map(f64::to_bits)
                            });
                        if !same {
                            r.problems
                                .push("served search differs from the in-process one".into());
                        }
                        for f in &got.finalists {
                            // Theorem 7: exponential never beats deterministic.
                            if f.exp.is_some_and(|e| e > f.det * (1.0 + 1e-12)) {
                                r.problems
                                    .push(format!("Theorem 7: exp {:?} > det {}", f.exp, f.det));
                            }
                        }
                        r.search_evaluations = got.det_evaluations + got.exp_evaluations;
                    }
                    Err(e) => r.problems.push(format!("in-process search failed: {e}")),
                }
            }
            (_, Err(e)) => r.problems.push(format!("request failed: {e}")),
            (_, Ok(other)) => r.problems.push(format!("unexpected response {other:?}")),
        }
        r
    }
}

/// The server's report options for wire options `o` (no server caps).
fn report_options(o: &WireOptions) -> ReportOptions {
    o.report_options(None, ReportOptions::default().max_states)
}

/// The server's search options for request `r`.
fn search_options(r: &SearchRequest) -> PortfolioOptions {
    PortfolioOptions {
        random_candidates: r.random_candidates,
        seed: r.seed,
        exp_rerank: r.exp_rerank,
        lumping: r.lumping,
        budget: Budget::UNLIMITED,
        ..Default::default()
    }
}

/// Everything the set-up prepares: the prime systems and both phases'
/// requests.
struct Inputs {
    primes: Vec<System>,
    due_s: Vec<f64>,
    open: Vec<Prepared>,
    sat: Vec<Prepared>,
    /// Cold requests of the open loop, and the size of its cold pool.
    open_cold: (usize, usize),
    /// Size of the saturation phase's cold pool.
    sat_pool: usize,
}

/// The set-up: draw the inputs, bind a server and prime the hot shapes.
fn set_up(cfg: &Config) -> Result<(Inputs, Running), String> {
    let mut rng = Rng::new(cfg.seed);
    let primes: Vec<System> = HOT.iter().map(|(s, _)| s.draw(&mut rng)).collect();
    let slots = schedule::open_loop(cfg.offered_rate, OPEN_BLOCKS, &mut rng.fork(1));
    let mut open_cold: Vec<Vec<usize>> = systems::COLD_OPEN.iter().map(|t| t.to_vec()).collect();
    rng.shuffle(&mut open_cold);
    let sat_cold = systems::cold_saturation();
    let mut counters = [0usize; 2];
    let open: Vec<Prepared> = slots
        .iter()
        .map(|s| prepare(s.class, &mut rng, &mut counters, &open_cold))
        .collect();
    let open_cold_sent = counters[1];
    let sat_classes = schedule::class_sequence(SATURATION_REQUESTS, &mut rng.fork(3));
    let mut counters = [0usize; 2];
    let sat: Vec<Prepared> = sat_classes
        .iter()
        .map(|&c| prepare(c, &mut rng, &mut counters, &sat_cold))
        .collect();
    let running = start(CONNECTIONS, &primes)?;
    let inputs = Inputs {
        primes,
        due_s: slots.iter().map(|s| s.due_s).collect(),
        open,
        sat,
        open_cold: (open_cold_sent, open_cold.len()),
        sat_pool: sat_cold.len(),
    };
    Ok((inputs, running))
}

/// Run the workload.
pub fn run(cfg: &Config, out: &mut Outcome, header: &mut Vec<(String, String)>) {
    // The open loop lasts as long as its blocks take at the offered rate;
    // the saturation phase gets the rest of the measured seconds, and at
    // least two fifths of them.
    let open_s = (OPEN_BLOCKS * schedule::BLOCK) as f64 / cfg.offered_rate;
    let sat_s = (cfg.seconds - open_s).max(cfg.seconds * 0.4);
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;

    // Set-up: inputs, server bind and priming.  It is repeated after the
    // measurement (for the median `setup_s`), so the measured server runs
    // in a process no earlier server has touched.
    let t = Instant::now();
    let (inputs, running) = match set_up(cfg) {
        Ok(ok) => ok,
        Err(e) => return common::finish(out, header, 1, 1, vec![e]),
    };
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let Inputs {
        primes,
        due_s: due,
        open,
        sat,
        open_cold: (open_cold_sent, open_pool),
        sat_pool,
    } = inputs;

    // Open loop at the offered rate, then saturation.
    let (open_done, _) = drive(running.addr, CONNECTIONS, &open, Some(&due), f64::INFINITY);
    // Peak memory of the open loop, whose requests are fixed: every cold
    // shape the saturation phase sends stays in the cache, so a peak taken
    // after it would grow with the number of blocks the machine fitted
    // into the measured seconds.
    let peak_rss_mib = common::peak_rss_mib();
    let (sat_done, sat_end) = drive(running.addr, CONNECTIONS, &sat, None, sat_s);

    // The primed hot shapes against real one-shot reports, after the
    // timed phases: a cold one-shot report in this process would otherwise
    // set the peak memory of the open loop.
    {
        let mut c = Client::connect(running.addr).expect("server accepts connections");
        for sys in &primes {
            let served = c.call(&analyze(sys.clone(), wire_options()));
            let oneshot = system_report_status(sys, report_options(&wire_options()));
            match served {
                Ok(Response::Analyze(a)) if (a.text.clone(), a.status) == oneshot => {}
                _ => {
                    failed += 1;
                    failures.push("primed hot shape differs from the one-shot report".into());
                }
            }
        }
    }

    let stats = {
        let mut c = Client::connect(running.addr).expect("server accepts connections");
        match c.call(&Request::Stats) {
            Ok(Response::Stats(s)) => Some(s),
            _ => None,
        }
    };
    if let Err(e) = running.stop() {
        failed += 1;
        failures.push(e);
    }
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let again = set_up(cfg);
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = again.and_then(|(_, r)| r.stop()) {
            failed += 1;
            failures.push(e);
        }
    }
    let setup_s = stats::median(&setups);

    // Check every response against the in-process replay.
    let mut replayer = Replayer::new(&primes);
    let mut wait: [Vec<f64>; 4] = Default::default();
    let mut search_ms = Vec::new();
    let mut search_evals = Vec::new();
    let (mut deadline_n, mut degraded_n) = (0usize, 0usize);
    let mut uncontended = vec![f64::NAN; open.len()];
    let mut attempted = 0u64;
    for (phase, reqs, done) in [("open", &open, &open_done), ("saturation", &sat, &sat_done)] {
        for a in done.iter() {
            attempted += 1;
            let p = &reqs[a.index];
            let r = replayer.replay(p, &a.response);
            if !r.problems.is_empty() {
                failed += 1;
                failures.push(format!(
                    "{phase} #{} {}: {}",
                    a.index,
                    p.class.label(),
                    r.problems.join("; ")
                ));
            }
            let class = Class::ALL
                .iter()
                .position(|&c| c == p.class)
                .expect("a class");
            wait[class].push((a.done_s - a.sent_s) * 1e3 - r.ms);
            if p.class == Class::Search {
                search_ms.push(r.ms);
                search_evals.push(r.search_evaluations as f64);
            }
            if p.class == Class::Deadline {
                deadline_n += 1;
                degraded_n += usize::from(r.degraded);
            }
            if phase == "open" {
                uncontended[a.index] = r.ms;
            }
        }
    }

    // End-to-end metrics: latency from the due time, open loop.
    let from_due = |class: Option<Class>| -> Vec<f64> {
        open_done
            .iter()
            .filter(|a| class.is_none_or(|c| open[a.index].class == c))
            .map(|a| (a.done_s - due[a.index]) * 1e3)
            .collect()
    };
    let sent: Vec<f64> = open_done.iter().map(|a| a.sent_s).collect();
    let due_of_sent: Vec<f64> = open_done.iter().map(|a| due[a.index]).collect();
    let (late_p99, behind) = schedule::lateness(&due_of_sent, &sent, cfg.offered_rate);
    let cold_repeats = open_cold_sent.saturating_sub(open_pool)
        + sat_done
            .iter()
            .filter(|a| sat[a.index].class == Class::Cold)
            .count()
            .saturating_sub(sat_pool);
    header.push(("connections".into(), CONNECTIONS.to_string()));
    header.push(("workers".into(), CONNECTIONS.to_string()));
    header.push((
        "open_loop".into(),
        format!("{} requests over {open_s} s", open.len()),
    ));
    header.push((
        "saturation".into(),
        format!("{} requests in {sat_end:.3} s", sat_done.len()),
    ));
    header.push((
        "generator_late_p99_ms".into(),
        format!("{:.3}", late_p99 * 1e3),
    ));
    header.push(("generator_behind".into(), behind.to_string()));
    header.push(("cold_shape_repeats".into(), cold_repeats.to_string()));
    if let Some(s) = &stats {
        header.push((
            "server_stats".into(),
            format!(
                "requests={} connections={} shards={} strict_hits={} strict_misses={}",
                s.requests, s.connections, s.shards, s.cache.strict_hits, s.cache.strict_misses
            ),
        ));
    } else {
        failed += 1;
        failures.push("no stats response".into());
    }

    let e2e = EndToEnd {
        setup_s,
        ops_per_s: schedule::phase_rate(&sat_done.iter().map(|a| a.done_s).collect::<Vec<_>>()),
        latencies_ms: from_due(None),
        tail_pcts: TAIL_PCTS,
        warm_ms: from_due(Some(Class::Hot)),
        cold_ms: from_due(Some(Class::Cold)),
        peak_rss_mib,
    };
    if !cfg.trace {
        common::finish(out, header, attempted, failed, failures);
        e2e.emit(out, header);
        return;
    }

    // Traced run: the open-loop analyze requests of the hot and cold
    // classes, layer by layer, on a cache primed like the server's.
    let mut cache = LayerCache::default();
    let mut priming = Tracer::new();
    for sys in &primes {
        if let Err(e) =
            layers::traced_analysis(sys, common::BFS_THREADS, &mut cache, &mut priming, 0, None)
        {
            failed += 1;
            failures.push(format!("traced prime: {e}"));
        }
    }
    let mut tr = Tracer::new();
    let mut traced_uncontended = Vec::new();
    for a in &open_done {
        let p = &open[a.index];
        let (Request::Analyze(req), Ok(Response::Analyze(got))) = (&p.request, &a.response) else {
            continue;
        };
        if !matches!(p.class, Class::Hot | Class::Cold) {
            continue;
        }
        attempted += 1;
        let id = a.index as u64;
        let traced = layers::traced_analysis(
            &req.system,
            common::BFS_THREADS,
            &mut cache,
            &mut tr,
            id,
            Some(cfg.nproc),
        );
        let ok = match traced {
            Ok(an) => {
                let wire = common::wire_roundtrip(&mut tr, id, &req.system, &got.text, got.status);
                check::strict_throughput(&got.text) == format!("{:.6}", an.strict).parse().ok()
                    && wire.is_ok()
            }
            Err(e) => {
                failures.push(e);
                false
            }
        };
        if !ok {
            failed += 1;
            failures.push(format!("traced request #{}", a.index));
        }
        traced_uncontended.push(uncontended[a.index]);
    }

    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let extras = LayerExtras {
        cache_hits: stats.as_ref().map_or(0.0, |s| s.cache.hits() as f64),
        cache_misses: stats.as_ref().map_or(0.0, |s| s.cache.misses() as f64),
        wait_ms: [
            median_or_zero(&wait[0]),
            median_or_zero(&wait[1]),
            median_or_zero(&wait[2]),
            median_or_zero(&wait[3]),
        ],
        search_ms: stats::mean(&search_ms),
        search_evaluations: stats::mean(&search_evals),
        degraded_ratio: degraded_n as f64 / deadline_n.max(1) as f64,
        untraced_report_ms: stats::mean(&traced_uncontended),
    };
    common::emit_layers(&tr, &extras, out);
    common::finish(out, header, attempted, failed, failures);
    common::write_spans(&tr, cfg, header);
}
