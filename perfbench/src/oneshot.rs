//! `oneshot`: a seeded population of mid-size systems, each analysed
//! cold — fresh chain cache, one BFS thread ([`common::BFS_THREADS`]) —
//! through the calls `repstream analyze` makes after parsing
//! (`timing::validate_service_times`, `report::system_report_status`),
//! by one closed-loop caller.
//!
//! A pass analyses one system of every [`ONESHOT`] shape; every pass
//! draws fresh rate tables, so the statistics average over many draws
//! of each shape rather than riding on one draw's solver iterations.
//! The timed phase runs whole passes until the measured seconds are used
//! up; `ops_per_s` is the number of cold analyses over their total time.
//! Each pass also re-analyses the population's largest shape,
//! heterogeneous 4×5, [`WARM_PER_PASS`] times with fresh rate tables
//! against a cache the set-up primed with its structure — the serve hot
//! class without the server — for the `warm_*` metrics.  Interleaving
//! keeps warm and cold analyses under the same memory state (a warm
//! analysis refills ~30 MB of CSR arrays, and its cost depends on whether
//! the allocator hands back pages already touched).  The first warm
//! report is compared with a cold one-shot report of the same system; a
//! warm median over the whole population would sit on the gap between
//! two shapes' costs and jump between them.

use crate::check::{self, Expect};
use crate::common::{self, Config, EndToEnd, LayerExtras};
use crate::emit::Outcome;
use crate::layers::{self, LayerCache};
use crate::rng::Rng;
use crate::stats;
use crate::systems::ONESHOT;
use crate::trace::Tracer;
use repstream::core::model::System;
use repstream::core::report::{
    system_report_status, system_report_with, ReportOptions, ReportStatus,
};
use repstream::core::timing;
use repstream::markov::cache::{CacheStats, ChainCache};
use repstream::markov::govern::Budget;
use std::time::{Duration, Instant};

/// Warm re-analyses of the warm shape per pass.
const WARM_PER_PASS: usize = 4;

/// Percentiles of `tail_ms` and `warm_tail_ms`: a run of the benchmark's
/// length takes at least about 40 passes, so 800 cold and 160 warm
/// samples, which leave ten or more beyond p95 and p90.
const TAIL_PCTS: [f64; 2] = [95.0, 90.0];

/// The warm shape: the population's largest, heterogeneous 4×5.
const WARM_SHAPE: usize = ONESHOT.len() - 1;

/// Set-up repetitions (first pass's inputs and the warm cache's priming);
/// `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Traced passes over the population (the first timed passes' systems).
const TRACED_PASSES: usize = 2;

/// One timed analysis: validate, then report with a fresh cache.
fn analyze(system: &System, opts: ReportOptions, stats: &mut CacheStats) -> (String, ReportStatus) {
    let mut cache = ChainCache::new();
    let out = match timing::validate_service_times(system) {
        Ok(()) => system_report_with(system, opts, &mut cache),
        Err(e) => (e, ReportStatus::Internal),
    };
    let s = cache.stats();
    stats.pattern_hits += s.pattern_hits;
    stats.pattern_misses += s.pattern_misses;
    stats.strict_hits += s.strict_hits;
    stats.strict_misses += s.strict_misses;
    out
}

/// Pass `p` of the population: one system of every shape, with rate
/// tables drawn from the seed and the pass number (a pass's warm systems
/// follow its cold ones in the same stream).
fn draw_pass(seed: u64, p: usize) -> (Vec<System>, Vec<System>) {
    let mut rng = Rng::new(seed).fork(p as u64);
    let cold = ONESHOT.iter().map(|s| s.draw(&mut rng)).collect();
    let warm = (0..WARM_PER_PASS)
        .map(|_| ONESHOT[WARM_SHAPE].draw(&mut rng))
        .collect();
    (cold, warm)
}

/// Whether every system of a pass passes validation.
fn valid(cold: &[System], warm: &[System]) -> bool {
    cold.iter()
        .chain(warm)
        .all(|s| timing::validate_service_times(s).is_ok())
}

/// Run the workload.
pub fn run(cfg: &Config, out: &mut Outcome, header: &mut Vec<(String, String)>) {
    let opts = ReportOptions {
        threads: common::BFS_THREADS,
        ..Default::default()
    };
    // Set-up: the first pass's inputs, and the warm cache primed with the
    // warm shape's structure.  Later passes are drawn between passes,
    // outside the timed analyses.
    let (setup_s, (first_cold, first_warm_draws, first_ok, mut warm_cache)) =
        common::median_setup(SETUP_REPS, || {
            let (cold, warm) = draw_pass(cfg.seed, 0);
            let ok = valid(&cold, &warm);
            let mut cache = ChainCache::new();
            system_report_with(&cold[WARM_SHAPE], opts, &mut cache);
            (cold, warm, ok, cache)
        });
    let mut failed = u64::from(!first_ok);
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();

    // Timed phase: whole passes, closed loop, warm re-analyses after the
    // cold ones of each pass.
    let mut stats_cold = CacheStats::default();
    let mut latencies = Vec::new();
    let mut warm = Vec::new();
    let mut first_warm: Option<(System, String, ReportStatus)> = None;
    let mut texts: Vec<Vec<String>> = Vec::new();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let t_phase = Instant::now();
    let mut passes = 0usize;
    let mut cold_s = 0.0;
    let mut traced_draws: Vec<Vec<System>> = Vec::new();
    let mut next = Some((first_cold, first_warm_draws));
    while passes == 0 || t_phase.elapsed() < budget {
        let p = passes;
        let (cold_draws, warm_draws) = next.take().unwrap_or_else(|| draw_pass(cfg.seed, p));
        if p > 0 && !valid(&cold_draws, &warm_draws) {
            failed += 1;
            failures.push(format!("pass {p}: invalid service times"));
        }
        let mut pass_texts = Vec::new();
        for (i, sys) in cold_draws.iter().enumerate() {
            let t = Instant::now();
            let (text, status) = analyze(sys, opts, &mut stats_cold);
            let s = t.elapsed().as_secs_f64();
            cold_s += s;
            latencies.push(s * 1e3);
            attempted += 1;
            let bad = check::report(&text, status, Expect::Ok, check::max_rate(sys));
            if !bad.is_empty() {
                failed += 1;
                failures.push(format!("{}: {}", ONESHOT[i].label(), bad.join("; ")));
            }
            pass_texts.push(text);
        }
        passes += 1;
        for sys in &warm_draws {
            let t = Instant::now();
            let (text, status) = system_report_with(sys, opts, &mut warm_cache);
            warm.push(t.elapsed().as_secs_f64() * 1e3);
            attempted += 1;
            let bad = check::report(&text, status, Expect::Ok, check::max_rate(sys));
            if !bad.is_empty() {
                failed += 1;
                failures.push(format!("warm: {}", bad.join("; ")));
            }
            if first_warm.is_none() {
                first_warm = Some((sys.clone(), text, status));
            }
        }
        if texts.len() < TRACED_PASSES {
            texts.push(pass_texts);
            traced_draws.push(cold_draws);
        }
    }
    let (warm_sys, text, status) = first_warm.expect("every pass has warm analyses");
    if system_report_status(&warm_sys, opts) != (text, status) {
        failed += 1;
        failures.push("warm report differs from the cold one-shot report".into());
    }

    let peak_rss_mib = common::peak_rss_mib();
    header.push(("population".into(), format!("{} shapes", ONESHOT.len())));
    header.push((
        "passes".into(),
        format!(
            "{passes}, each with {WARM_PER_PASS} warm {}",
            ONESHOT[WARM_SHAPE].label()
        ),
    ));
    if !cfg.trace {
        common::finish(out, header, attempted, failed, failures);
        let e2e = EndToEnd {
            setup_s,
            ops_per_s: latencies.len() as f64 / cold_s,
            latencies_ms: latencies.clone(),
            tail_pcts: TAIL_PCTS,
            warm_ms: warm,
            cold_ms: latencies,
            peak_rss_mib,
        };
        e2e.emit(out, header);
        return;
    }

    // Traced run: the first timed passes again, layer by layer.
    let mut tr = Tracer::new();
    let mut req = 0u64;
    for (systems, pass_texts) in traced_draws.iter().zip(&texts) {
        for (i, (sys, text)) in systems.iter().zip(pass_texts).enumerate() {
            attempted += 1;
            let mut cache = LayerCache::default();
            let traced = layers::traced_analysis(
                sys,
                common::BFS_THREADS,
                &mut cache,
                &mut tr,
                req,
                Some(cfg.nproc),
            );
            let ok = match traced {
                Ok(a) => {
                    let wire = common::wire_roundtrip(&mut tr, req, sys, text, ReportStatus::Ok);
                    check::strict_throughput(text) == format!("{:.6}", a.strict).parse().ok()
                        && a.overlap_exp <= a.overlap_det * (1.0 + 1e-12)
                        && a.residual <= check::RESIDUAL_CONTRACT * a.max_rate
                        && wire.is_ok()
                }
                Err(e) => {
                    failures.push(e);
                    false
                }
            };
            if !ok {
                failed += 1;
                failures.push(format!("traced {}", ONESHOT[i].label()));
            }
            req += 1;
        }
    }

    // The governor: the first pass again under an already-expired deadline.
    let mut degraded = 0usize;
    let gov = ReportOptions {
        budget: Budget::deadline_in(Duration::ZERO),
        ..opts
    };
    for sys in &traced_draws[0] {
        let (_, status) = tr.span("govern", req, || system_report_status(sys, gov));
        attempted += 1;
        if matches!(status, ReportStatus::Degraded(_)) {
            degraded += 1;
        } else {
            failed += 1;
            failures.push(format!("0 ms deadline came back {status:?}"));
        }
    }

    // The untraced time of the same systems: the first timed passes.
    let traced_ops = texts.iter().map(Vec::len).sum::<usize>();
    let extras = LayerExtras {
        cache_hits: stats_cold.hits() as f64,
        cache_misses: stats_cold.misses() as f64,
        degraded_ratio: degraded as f64 / ONESHOT.len() as f64,
        untraced_report_ms: stats::mean(&latencies[..traced_ops]),
        ..Default::default()
    };
    common::emit_layers(&tr, &extras, out);
    common::finish(out, header, attempted, failed, failures);
    common::write_spans(&tr, cfg, header);
}
