//! The traced analysis: one report's work, called layer by layer so that
//! each call runs inside its own span.
//!
//! [`traced_analysis`] performs, in the report's order, the calls that
//! `report::system_report_status` makes through a chain cache — service
//! times (`core::timing`), the deterministic sections
//! (`core::deterministic`), the overlap decomposition
//! (`core::exponential` + `markov::pattern`), the Strict Theorem 2 chain
//! (TPN and symmetry, marking BFS, CSR refill, stationary solve, firing
//! rate aggregation — the steps of `markov::cache::ChainCache`) and the
//! N.B.U.E. sandwich (`core::bounds`).  Only the text rendering is left
//! out; the report time minus the sum of these spans is the benchmark's
//! `report.unaccounted_ms`.  Callers check that the Strict throughput it
//! computes prints as the timed report printed it.

use crate::trace::Tracer;
use repstream::core::bounds::nbue_bounds_with;
use repstream::core::deterministic;
use repstream::core::exponential::{throughput_overlap_with_solver, ExpOptions};
use repstream::core::model::System;
use repstream::core::timing;
use repstream::markov::cache::ChainCache;
use repstream::markov::ctmc::{Ctmc, SolverChoice};
use repstream::markov::govern::Budget;
use repstream::markov::marking::{ArenaStats, MarkingGraph, MarkingOptions, QuotientGraph};
use repstream::markov::net::{rates_orbit_invariant, EventNet, NetSymmetry};
use repstream::petri::shape::ExecModel;
use repstream::petri::tpn::Tpn;
use std::collections::HashMap;

/// Cached Strict structure of one shape (the benchmark's mirror of the
/// chain cache's entry, so that hits and misses can be traced).
struct StrictEntry {
    tpn: Tpn,
    sym: Option<NetSymmetry>,
    quotient: Option<QuotientGraph>,
    full: Option<MarkingGraph>,
}

/// Chain structures kept across traced analyses: pattern chains in a
/// [`ChainCache`], Strict chains per team vector.
#[derive(Default)]
pub struct LayerCache {
    patterns: ChainCache,
    strict: HashMap<Vec<usize>, StrictEntry>,
}

/// What one traced analysis found.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Strict (Theorem 2) throughput.
    pub strict: f64,
    /// Overlap exponential throughput (Theorems 3/4).
    pub overlap_exp: f64,
    /// Overlap deterministic throughput (Theorem 1).
    pub overlap_det: f64,
    /// The stationary solver's final residual.
    pub residual: f64,
    /// Largest transition rate (the residual contract's scale is at least
    /// this).
    pub max_rate: f64,
}

/// Either kind of Strict structure.
enum Graph<'a> {
    Quotient(&'a QuotientGraph),
    Full(&'a MarkingGraph),
}

impl Graph<'_> {
    fn refill(&self, trans_rates: &[f64]) -> Ctmc {
        match self {
            Graph::Quotient(q) => q.ctmc_with_trans_rates(trans_rates),
            Graph::Full(g) => g.ctmc_with_trans_rates(trans_rates),
        }
    }

    fn throughput(&self, trans_rates: &[f64], pi: &[f64], last: &[usize]) -> f64 {
        let fired = match self {
            Graph::Quotient(q) => q.firing_rates_with(trans_rates, pi),
            Graph::Full(g) => g.firing_rates_with(trans_rates, pi),
        };
        last.iter().map(|&t| fired[t]).sum()
    }

    fn arena(&self) -> ArenaStats {
        match self {
            Graph::Quotient(q) => q.arena_stats(),
            Graph::Full(g) => g.arena_stats(),
        }
    }
}

/// Marking-BFS options of the report at `threads` workers.
fn marking_options(threads: usize) -> MarkingOptions {
    let exp = ExpOptions::default();
    MarkingOptions {
        max_states: exp.max_states,
        capacity: None,
        threads,
        arena_compression: exp.arena_compression,
        interner_spill: false,
        budget: Budget::UNLIMITED,
        ..Default::default()
    }
}

/// Refill, solve and aggregate on `graph`, untraced: the throughput of the
/// rebuild cross-check.
fn solve_on(graph: &Graph<'_>, trans_rates: &[f64], last: &[usize]) -> f64 {
    let ctmc = graph.refill(trans_rates);
    let report = ctmc
        .stationary_solve_governed(SolverChoice::Auto, &Budget::UNLIMITED)
        .expect("an unlimited budget never fires");
    graph.throughput(trans_rates, &report.pi, last)
}

/// Inputs of a cold Strict build, kept for the rebuild cross-check.
struct ColdBuild {
    key: Vec<usize>,
    net: EventNet,
    direct: bool,
    trans_rates: Vec<f64>,
    last: Vec<usize>,
}

/// Run one analysis of `system` layer by layer under spans of request
/// `req`, all inside one `op` span, with `threads` BFS threads.  With
/// `rebuild_threads`, a cold Strict build is then repeated with that many
/// BFS threads (span `marking.tn`, outside `op`) and solved again; the
/// two throughputs must agree bit for bit.
pub fn traced_analysis(
    system: &System,
    threads: usize,
    cache: &mut LayerCache,
    tr: &mut Tracer,
    req: u64,
    rebuild_threads: Option<usize>,
) -> Result<Analysis, String> {
    let op = tr.begin("op", req);
    let body = analyse(system, threads, cache, tr, req);
    tr.end(op);
    let (analysis, cold) = body?;
    if let (Some(n), Some(cold)) = (rebuild_threads, cold) {
        let entry = &cache.strict[&cold.key];
        let rho = if cold.direct {
            let sym = entry.sym.as_ref().expect("direct path has a symmetry");
            let q = tr
                .span("marking.tn", req, || {
                    QuotientGraph::build(&cold.net, sym, marking_options(n))
                })
                .map_err(|e| format!("{n}-thread quotient BFS: {e}"))?;
            solve_on(&Graph::Quotient(&q), &cold.trans_rates, &cold.last)
        } else {
            let g = tr
                .span("marking.tn", req, || {
                    MarkingGraph::build(&cold.net, marking_options(n))
                })
                .map_err(|e| format!("{n}-thread marking BFS: {e}"))?;
            solve_on(&Graph::Full(&g), &cold.trans_rates, &cold.last)
        };
        if rho.to_bits() != analysis.strict.to_bits() {
            return Err(format!(
                "{n}-thread throughput {rho:e} differs from {threads}-thread {:e}",
                analysis.strict
            ));
        }
    }
    Ok(analysis)
}

/// The body of [`traced_analysis`]: every layer call in its own span.
fn analyse(
    system: &System,
    threads: usize,
    cache: &mut LayerCache,
    tr: &mut Tracer,
    req: u64,
) -> Result<(Analysis, Option<ColdBuild>), String> {
    let rates = tr.span("timing", req, || {
        timing::validate_service_times(system).map(|()| timing::exponential_rates(system))
    })?;
    let shape = system.shape();
    let overlap_det = tr.span("deterministic", req, || {
        let cw = deterministic::throughput_columnwise(system);
        let overlap = deterministic::analyze(system, ExecModel::Overlap);
        let strict = deterministic::analyze(system, ExecModel::Strict);
        std::hint::black_box((&overlap, &strict));
        cw
    });
    let exp_opts = ExpOptions {
        threads,
        ..Default::default()
    };
    let overlap = tr.span("overlap", req, || {
        throughput_overlap_with_solver(&shape, &rates, exp_opts, &mut cache.patterns)
    });
    let overlap_exp = overlap.map_err(|e| format!("overlap: {e}"))?.throughput;

    // Strict chain: structure lookup (TPN + symmetry on a miss).
    let key = shape.teams().to_vec();
    let (trans_rates, last, direct) = tr.span("tpn", req, || {
        let entry = cache.strict.entry(key.clone()).or_insert_with(|| {
            let tpn = Tpn::build(&shape, ExecModel::Strict);
            let net = EventNet::from_tpn(&tpn, &rates);
            let sym = tpn
                .row_rotation()
                .map(|a| NetSymmetry {
                    trans_perm: a.trans_perm,
                    place_perm: a.place_perm,
                })
                .filter(|s| net.symmetry_structural(s));
            StrictEntry {
                tpn,
                sym,
                quotient: None,
                full: None,
            }
        });
        let trans_rates: Vec<f64> = entry
            .tpn
            .transitions()
            .iter()
            .map(|t| *rates.get(t.resource))
            .collect();
        let direct = entry.tpn.rows() > 1
            && entry.sym.as_ref().is_some_and(|s| {
                s.trans_perm.len() == trans_rates.len()
                    && rates_orbit_invariant(&trans_rates, &s.trans_perm)
            });
        (trans_rates, entry.tpn.last_column(), direct)
    });
    let entry = cache.strict.get_mut(&key).expect("entry inserted above");
    let cache_hit = if direct {
        entry.quotient.is_some()
    } else {
        entry.full.is_some()
    };
    let mut cold = None;
    if !cache_hit {
        let net = EventNet::from_tpn(&entry.tpn, &rates);
        let opts = marking_options(threads);
        if direct {
            let sym = entry.sym.as_ref().expect("direct path has a symmetry");
            let q = tr.span("marking", req, || QuotientGraph::build(&net, sym, opts));
            entry.quotient = Some(q.map_err(|e| format!("quotient BFS: {e}"))?);
        } else {
            let g = tr.span("marking", req, || MarkingGraph::build(&net, opts));
            entry.full = Some(g.map_err(|e| format!("marking BFS: {e}"))?);
        }
        cold = Some(ColdBuild {
            key: key.clone(),
            net,
            direct,
            trans_rates: trans_rates.clone(),
            last: last.clone(),
        });
    }
    let graph = if direct {
        Graph::Quotient(entry.quotient.as_ref().expect("built above"))
    } else {
        Graph::Full(entry.full.as_ref().expect("built above"))
    };
    let ctmc = tr.span("ctmc.refill", req, || graph.refill(&trans_rates));
    let report = tr
        .span("ctmc.solve", req, || {
            ctmc.stationary_solve_governed(SolverChoice::Auto, &Budget::UNLIMITED)
        })
        .map_err(|i| format!("solve: {i}"))?;
    let strict = tr.span("aggregate", req, || {
        graph.throughput(&trans_rates, &report.pi, &last)
    });
    let bounds = tr.span("bounds", req, || {
        nbue_bounds_with(system, ExecModel::Overlap, &mut cache.patterns)
    });
    bounds.map_err(|e| format!("bounds: {e}"))?;

    tr.count("ctmc.solves", 1.0);
    tr.count("ctmc.nnz", ctmc.nnz() as f64);
    tr.count("ctmc.states", ctmc.n_states() as f64);
    tr.count("ctmc.iterations", report.iterations as f64);
    if report.solver != ctmc.solver_plan().primary {
        tr.count("ctmc.fallbacks", 1.0);
    }
    if !cache_hit {
        tr.count("marking.builds", 1.0);
        tr.count("marking.states", ctmc.n_states() as f64);
        tr.count("marking.arena_bytes", graph.arena().total() as f64);
    }
    let max_rate = trans_rates.iter().fold(0.0f64, |m, &r| m.max(r));
    let analysis = Analysis {
        strict,
        overlap_exp,
        overlap_det,
        residual: report.residual,
        max_rate,
    };
    Ok((analysis, cold))
}
