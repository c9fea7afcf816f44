//! Structure-keyed reuse of marking-graph chains.
//!
//! Candidate mappings explored by a search differ in *rates* far more
//! often than in *structure*: every mapping whose shape (replication
//! vector) matches a previously scored one induces the **same** reachable
//! marking graph — only the CSR rate payload changes.  The expensive parts
//! of a Theorem 2/3 evaluation are exactly the structural ones: the
//! marking BFS + interner, the orbit propagation of the row-rotation
//! symmetry, and (for patterns) the reachability enumeration.
//!
//! [`ChainCache`] keys those structures canonically — [`TpnSignature`]
//! for the global Strict chain, the coprime `(u′, v′)` dimensions for
//! Theorem 3 pattern chains.  Strict chains cache **two** structures per
//! signature, each built lazily by the first candidate that needs it: the
//! direct symmetry-reduced quotient ([`QuotientGraph`], served to every
//! orbit-invariant candidate — the full graph is never materialized for
//! those) and the full marking graph (heterogeneous candidates, `m = 1`,
//! or lumping off).
//!
//! # Structure and rates
//!
//! A cached graph is immutable and shared (`Arc`); its chain's structure
//! (the CSR pattern and its transpose, see [`crate::ctmc`]) is shared in
//! turn by every chain re-rated from it.  What a request needs of its own
//! is the chain's rate arrays (`rate`, exit rates, `Λ`, incoming rates).
//! Those are **recycled**: when a graph is cached, its chain's rate
//! arrays are split off and parked next to it; a warm hit takes them,
//! refills them in place from the candidate's rate table
//! ([`MarkingGraph::refill_trans_rates`], one `O(nnz)` gather, no
//! allocation), solves, and hands them back.  A request that finds them
//! taken by a concurrent request over the same shape re-rates into fresh
//! buffers instead ([`MarkingGraph::ctmc_with_trans_rates`]), which are
//! dropped after its solve — so at most one copy stays resident.
//!
//! Cached results are **bitwise identical** to cold solves: the refilled
//! chain has byte-for-byte the arrays a fresh build would produce, and
//! every solver is deterministic in its inputs.  The equivalence property
//! tests of `repstream-engine` pin this contract.
//!
//! Budget semantics: `max_states` bounds the *structure build* on a miss.
//! A hit reuses the cached structure without re-checking it against the
//! (possibly smaller) budget of the current call — budgets are per
//! deployment, not per candidate.

use crate::ctmc::{Ctmc, Precond, SolveReport, Solver, SolverChoice};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::govern::{Budget, Interrupt, Phase, Progress};
use crate::marking::{
    ArenaCompression, ArenaStats, MarkingError, MarkingGraph, MarkingOptions, QuotientGraph,
};
use crate::net::{comm_pattern, rates_orbit_invariant, EventNet, NetSymmetry};
use repstream_petri::shape::{gcd, ExecModel, MappingShape, ResourceTable};
use repstream_petri::tpn::{Tpn, TpnSignature};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Hit/miss counters of a [`ChainCache`] (reported by search drivers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Pattern-chain solves served from a cached structure.
    pub pattern_hits: usize,
    /// Pattern-chain structures built cold.
    pub pattern_misses: usize,
    /// Strict-chain solves served from a cached structure.
    pub strict_hits: usize,
    /// Strict-chain structures built cold.
    pub strict_misses: usize,
}

impl CacheStats {
    /// Total solves that skipped a marking BFS.
    pub fn hits(&self) -> usize {
        self.pattern_hits + self.strict_hits
    }

    /// Total cold structure builds.
    pub fn misses(&self) -> usize {
        self.pattern_misses + self.strict_misses
    }
}

/// One counted cache outcome.
#[derive(Debug, Clone, Copy)]
enum Event {
    PatternHit,
    PatternMiss,
    StrictHit,
    StrictMiss,
}

/// [`CacheStats`] as atomics, so a cache counts without a lock.
#[derive(Debug, Default)]
struct AtomicStats([AtomicUsize; 4]);

impl AtomicStats {
    fn bump(&self, event: Event) {
        self.0[event as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn load(&self) -> CacheStats {
        let get = |event: Event| self.0[event as usize].load(Ordering::Relaxed);
        CacheStats {
            pattern_hits: get(Event::PatternHit),
            pattern_misses: get(Event::PatternMiss),
            strict_hits: get(Event::StrictHit),
            strict_misses: get(Event::StrictMiss),
        }
    }
}

/// Options of a cached Strict-chain solve (the markov-level mirror of the
/// consumer's `ExpOptions`).
#[derive(Debug, Clone, Copy)]
pub struct StrictOptions {
    /// State budget for a cold marking-graph build.
    pub max_states: usize,
    /// Solve the symmetry-reduced quotient when the candidate's rates
    /// keep the row-rotation symmetry (exact either way).
    pub lumping: bool,
    /// Worker threads of a cold BFS ([`MarkingOptions::threads`]; `0` =
    /// auto).  Any value builds the bitwise-identical structure, so warm
    /// hits never depend on it.
    pub threads: usize,
    /// Stationary solver ([`SolverChoice::Auto`] = the measured plan).
    /// Applies to every solve, warm or cold — forcing a method changes
    /// the result bits only within the solvers' agreement tolerance.
    pub solver: SolverChoice,
    /// Marking-arena compression of a cold BFS
    /// ([`MarkingOptions::arena_compression`]).  Storage-only: any value
    /// builds the bitwise-identical structure.
    pub arena_compression: ArenaCompression,
    /// Spill marking-arena payload bytes of a cold BFS to an unlinked
    /// temp file ([`MarkingOptions::interner_spill`]).  Storage-only: any
    /// value builds the bitwise-identical structure, so warm hits never
    /// depend on it.
    pub interner_spill: bool,
    /// Cooperative resource budget, checked per BFS level of a cold build,
    /// while waiting for another request's build of the same structure,
    /// and at the stationary solver's checkpoints.  The checks only
    /// decide *whether* to abort — an un-fired budget never changes a
    /// single output bit.
    pub budget: Budget,
}

impl Default for StrictOptions {
    fn default() -> Self {
        StrictOptions {
            max_states: 4_000_000,
            lumping: true,
            threads: 0,
            solver: SolverChoice::Auto,
            arena_compression: ArenaCompression::Auto,
            interner_spill: false,
            budget: Budget::UNLIMITED,
        }
    }
}

/// Result of a cached Strict-chain solve.
#[derive(Debug, Clone)]
pub struct StrictSolve {
    /// System throughput (summed stationary firing rate of the last
    /// column).
    pub throughput: f64,
    /// States of the full marking chain (for a direct-quotient solve this
    /// is `Σ orbit sizes` — the full graph itself was never built).
    pub full_states: usize,
    /// States of the quotient actually solved (`None` ⇒ full solve).
    pub lumped_states: Option<usize>,
    /// `true` when the quotient was constructed (or reused) directly via
    /// canonical markings, without materializing the full chain.
    pub quotient_direct: bool,
    /// `true` when the structure came from the cache (no BFS ran).
    pub cache_hit: bool,
    /// The stationary method that actually ran (the plan's pick under
    /// [`SolverChoice::Auto`]).
    pub solver: Solver,
    /// The diagonal scaling that method iterated under
    /// ([`crate::ctmc::Precond::Jacobi`] only for GMRES).
    pub precond: Precond,
    /// Final max-norm stationarity residual of the solved vector.
    pub residual: f64,
    /// Iterations the winning solver spent (sweeps for relaxations and
    /// power, matvecs for GMRES, `n` for GTH).
    pub iterations: usize,
    /// Storage accounting of the structure that served this solve.  On a
    /// warm hit these are the bytes of the **cached** build (the arenas
    /// resident in the cache), not of any per-request allocation.
    pub arena: ArenaStats,
}

/// What the cache needs of a reachability graph it stores.
trait CachedGraph {
    /// The graph's own chain (split bare once the graph is cached).
    fn chain_mut(&mut self) -> &mut Ctmc;
    /// A new chain over the graph's structure, re-rated.
    fn rerated(&self, trans_rates: &[f64]) -> Ctmc;
    /// Re-rate `chain` in place.
    fn refill(&self, chain: &mut Ctmc, trans_rates: &[f64]);
    /// Solve `chain` and sum the stationary firing rates of
    /// `transitions`; `None` runs the ungoverned solve.
    fn solve(
        &self,
        chain: &Ctmc,
        trans_rates: &[f64],
        transitions: &[usize],
        solver: SolverChoice,
        budget: Option<&Budget>,
    ) -> Result<(f64, SolveReport), Interrupt>;
}

macro_rules! cached_graph {
    ($graph:ty) => {
        impl CachedGraph for $graph {
            fn chain_mut(&mut self) -> &mut Ctmc {
                &mut self.ctmc
            }

            fn rerated(&self, trans_rates: &[f64]) -> Ctmc {
                self.ctmc_with_trans_rates(trans_rates)
            }

            fn refill(&self, chain: &mut Ctmc, trans_rates: &[f64]) {
                self.refill_trans_rates(chain, trans_rates)
            }

            fn solve(
                &self,
                chain: &Ctmc,
                trans_rates: &[f64],
                transitions: &[usize],
                solver: SolverChoice,
                budget: Option<&Budget>,
            ) -> Result<(f64, SolveReport), Interrupt> {
                match budget {
                    Some(b) => {
                        self.throughput_solve_governed(chain, trans_rates, transitions, solver, b)
                    }
                    None => Ok(self.throughput_solve(chain, trans_rates, transitions, solver)),
                }
            }
        }
    };
}

cached_graph!(MarkingGraph);
cached_graph!(QuotientGraph);

/// How long a request waiting for another request's build sleeps between
/// checks of its own budget.
const LATCH_POLL: Duration = Duration::from_millis(5);

/// A one-shot gate: closed while one request builds a structure, opened
/// when that build ends (installed, failed or unwound).
#[derive(Debug, Default)]
struct Latch {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Latch {
    fn open(&self) {
        *lock(&self.open) = true;
        self.opened.notify_all();
    }

    /// Block until the latch opens, or until `budget` fires.
    fn wait(&self, budget: &Budget, phase: Phase) -> Result<(), Interrupt> {
        let mut open = lock(&self.open);
        while !*open {
            if budget.is_unlimited() {
                open = self
                    .opened
                    .wait(open)
                    .unwrap_or_else(PoisonError::into_inner);
            } else {
                budget.check(Progress {
                    phase,
                    ..Progress::default()
                })?;
                open = self
                    .opened
                    .wait_timeout(open, LATCH_POLL)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
        Ok(())
    }
}

/// Lock a mutex, recovering from poisoning (every critical section of
/// this module leaves its data consistent; see [`SharedChainCache`]).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One cached structure, through its life.
#[derive(Debug, Default)]
enum Slot<G> {
    /// Not built (or its last build failed).
    #[default]
    Empty,
    /// One request is building it; the others wait on the latch.
    Building(Arc<Latch>),
    /// Built: the shared graph, and its chain's rate buffers while no
    /// request holds them.
    Ready { graph: Arc<G>, spare: Option<Ctmc> },
}

/// The rate-independent head of a Strict entry: the TPN and its
/// structurally validated row-rotation symmetry.
#[derive(Debug)]
struct StrictHead {
    tpn: Tpn,
    /// Structural row-rotation symmetry (rate invariance is re-checked
    /// against every candidate's rate table).
    sym: Option<NetSymmetry>,
}

impl StrictHead {
    fn new(shape: &MappingShape, rates: &ResourceTable<f64>) -> StrictHead {
        let tpn = Tpn::build(shape, ExecModel::Strict);
        // Validate the rotation *structurally* once per signature
        // (rate-independent, so any candidate's net serves): a hint that
        // is not a net automorphism is dropped here and every candidate
        // takes the graceful full-chain path instead of tripping the
        // quotient builder's contract assert.
        let net = EventNet::from_tpn(&tpn, rates);
        let sym = tpn
            .row_rotation()
            .map(|a| NetSymmetry {
                trans_perm: a.trans_perm,
                place_perm: a.place_perm,
            })
            .filter(|s| net.symmetry_structural(s));
        StrictHead { tpn, sym }
    }
}

/// Cached structures of one Strict-TPN signature.  The two reachability
/// structures are built **lazily**, each on the first candidate that
/// needs it: orbit-invariant candidates only ever build (and share) the
/// direct quotient — the full graph, `m` times larger, is never
/// materialized for them — while heterogeneous candidates build the full
/// graph.
#[derive(Debug)]
struct StrictEntry {
    head: Arc<StrictHead>,
    /// Direct quotient structure (first orbit-invariant candidate).
    quotient: Slot<QuotientGraph>,
    /// Full marking graph (first candidate that cannot lump).
    full: Slot<MarkingGraph>,
}

/// The maps of one cache shard.
#[derive(Debug, Default)]
struct Shard {
    patterns: FxHashMap<(usize, usize), Slot<MarkingGraph>>,
    strict: FxHashMap<TpnSignature, StrictEntry>,
}

impl Shard {
    /// The entry of `key`, created with `head` when absent.
    fn strict_entry(&mut self, key: &TpnSignature, head: &Arc<StrictHead>) -> &mut StrictEntry {
        self.strict
            .entry(key.clone())
            .or_insert_with(|| StrictEntry {
                head: Arc::clone(head),
                quotient: Slot::Empty,
                full: Slot::Empty,
            })
    }
}

/// One shard of a cache and the counters it reports to.  Every access
/// to the shard is a short critical section under its mutex ([`Locked::with`]);
/// nothing slow — no build, refill or solve — ever runs inside one.
#[derive(Clone, Copy)]
struct Locked<'a> {
    shard: &'a Mutex<Shard>,
    stats: &'a AtomicStats,
}

impl Locked<'_> {
    fn with<R>(self, f: impl FnOnce(&mut Shard) -> R) -> R {
        f(&mut lock(self.shard))
    }

    fn record(self, event: Event) {
        self.stats.bump(event);
    }
}

/// Names one slot of a shard.
type SlotOf<'a, G> = &'a dyn Fn(&mut Shard) -> &mut Slot<G>;

/// The right to build one slot, held by the request that found it empty.
/// Dropping the ticket without [`BuildTicket::install`] — a failed,
/// interrupted or panicking build — empties the slot again, so no entry
/// is left behind; either way the waiters are released.
struct BuildTicket<'a, G> {
    access: Locked<'a>,
    slot_of: SlotOf<'a, G>,
    latch: Arc<Latch>,
}

impl<G> BuildTicket<'_, G> {
    fn install(self, graph: Arc<G>) {
        let slot_of = self.slot_of;
        self.access.with(|shard| {
            *slot_of(shard) = Slot::Ready { graph, spare: None };
        });
    }
}

impl<G> Drop for BuildTicket<'_, G> {
    fn drop(&mut self) {
        let (slot_of, latch) = (self.slot_of, &self.latch);
        self.access.with(|shard| {
            let slot = slot_of(shard);
            if matches!(slot, Slot::Building(l) if Arc::ptr_eq(l, latch)) {
                *slot = Slot::Empty;
            }
        });
        self.latch.open();
    }
}

/// What a request found in its slot.
enum Found<G> {
    Ready(Arc<G>, Option<Ctmc>),
    Building(Arc<Latch>),
    Empty(Arc<Latch>),
}

/// Which counters and governor phase a cached solve reports under.
#[derive(Clone, Copy)]
struct Kind {
    hit: Event,
    miss: Event,
    phase: Phase,
}

const PATTERN: Kind = Kind {
    hit: Event::PatternHit,
    miss: Event::PatternMiss,
    phase: Phase::MarkingBfs,
};
const STRICT_FULL: Kind = Kind {
    hit: Event::StrictHit,
    miss: Event::StrictMiss,
    phase: Phase::MarkingBfs,
};
const STRICT_QUOTIENT: Kind = Kind {
    hit: Event::StrictHit,
    miss: Event::StrictMiss,
    phase: Phase::QuotientBfs,
};

/// One cached solve.
struct Cached<G> {
    graph: Arc<G>,
    hit: bool,
    throughput: f64,
    report: SolveReport,
}

/// Serve one solve from the slot `slot_of` names: take (or build) the
/// graph and a chain over it, refill the chain from `trans_rates`, solve
/// and hand the chain's buffers back.  Only the slot lookup, the install
/// of a new build and the hand-back touch the shard.
#[allow(clippy::too_many_arguments)]
fn solve_cached<G: CachedGraph>(
    access: Locked<'_>,
    slot_of: SlotOf<'_, G>,
    kind: Kind,
    build: impl FnOnce() -> Result<G, MarkingError>,
    trans_rates: &[f64],
    transitions: &[usize],
    solver: SolverChoice,
    budget: Option<&Budget>,
) -> Result<Cached<G>, MarkingError> {
    // Ok: the cached graph and its spare buffers, if free; Err: this
    // request holds the build latch.
    let lookup = loop {
        let found = access.with(|shard| {
            let slot = slot_of(shard);
            match slot {
                Slot::Ready { graph, spare } => Found::Ready(Arc::clone(graph), spare.take()),
                Slot::Building(latch) => Found::Building(Arc::clone(latch)),
                Slot::Empty => {
                    let latch = Arc::new(Latch::default());
                    *slot = Slot::Building(Arc::clone(&latch));
                    Found::Empty(latch)
                }
            }
        });
        match found {
            Found::Ready(graph, spare) => break Ok((graph, spare)),
            Found::Empty(latch) => break Err(latch),
            Found::Building(latch) => {
                latch.wait(budget.unwrap_or(&Budget::UNLIMITED), kind.phase)?
            }
        }
    };
    let (graph, chain, hit) = match lookup {
        Ok((graph, spare)) => {
            access.record(kind.hit);
            let chain = match spare {
                Some(mut chain) => {
                    graph.refill(&mut chain, trans_rates);
                    chain
                }
                None => graph.rerated(trans_rates),
            };
            (graph, chain, true)
        }
        Err(latch) => {
            access.record(kind.miss);
            let ticket = BuildTicket {
                access,
                slot_of,
                latch,
            };
            let mut graph = build()?;
            // The graph's own rate arrays become the recycled buffers;
            // the cached graph keeps the bare structure.
            let mut chain = graph.chain_mut().split_rates();
            graph.refill(&mut chain, trans_rates);
            let graph = Arc::new(graph);
            ticket.install(Arc::clone(&graph));
            (graph, chain, false)
        }
    };
    let solved = graph.solve(&chain, trans_rates, transitions, solver, budget);
    // Hand the buffers back unless a concurrent request already did;
    // a surplus chain is dropped outside the critical section.
    let surplus = access.with(|shard| match slot_of(shard) {
        Slot::Ready { graph: g, spare } if spare.is_none() && Arc::ptr_eq(g, &graph) => {
            *spare = Some(chain);
            None
        }
        _ => Some(chain),
    });
    drop(surplus);
    let (throughput, report) = solved?;
    Ok(Cached {
        graph,
        hit,
        throughput,
        report,
    })
}

/// [`ChainCache::pattern_throughput`] over one shard.
fn pattern_throughput(
    access: Locked<'_>,
    rate: &[Vec<f64>],
    max_states: usize,
) -> Result<f64, MarkingError> {
    let u = rate.len();
    let v = rate[0].len();
    assert!(rate.iter().all(|r| r.len() == v), "ragged rate matrix");
    assert!(gcd(u, v) == 1, "pattern dimensions must be coprime");
    let n = u * v;
    // Transition k is pattern row k: sender k mod u → receiver k mod v
    // (the comm_pattern convention).
    let trans_rates: Vec<f64> = (0..n).map(|k| rate[k % u][k % v]).collect();
    let all: Vec<usize> = (0..n).collect();
    let build = || {
        let net = comm_pattern(u, v, |a, b| rate[a][b]);
        MarkingGraph::build(
            &net,
            MarkingOptions {
                max_states,
                capacity: None,
                ..Default::default()
            },
        )
    };
    let solved = solve_cached(
        access,
        &|shard: &mut Shard| shard.patterns.entry((u, v)).or_default(),
        PATTERN,
        build,
        &trans_rates,
        &all,
        SolverChoice::Auto,
        None,
    )?;
    Ok(solved.throughput)
}

/// [`ChainCache::strict_throughput`] over one shard.
fn strict_throughput(
    access: Locked<'_>,
    shape: &MappingShape,
    rates: &ResourceTable<f64>,
    opts: StrictOptions,
) -> Result<StrictSolve, MarkingError> {
    let key = TpnSignature::of(shape, ExecModel::Strict);
    let head = match access.with(|shard| shard.strict.get(&key).map(|e| Arc::clone(&e.head))) {
        Some(head) => head,
        None => {
            let head = Arc::new(StrictHead::new(shape, rates));
            access.with(|shard| Arc::clone(&shard.strict_entry(&key, &head).head))
        }
    };
    let trans_rates: Vec<f64> = head
        .tpn
        .transitions()
        .iter()
        .map(|t| *rates.get(t.resource))
        .collect();
    let last = head.tpn.last_column();
    let marking_opts = MarkingOptions {
        max_states: opts.max_states,
        capacity: None,
        threads: opts.threads,
        arena_compression: opts.arena_compression,
        interner_spill: opts.interner_spill,
        budget: opts.budget,
        ..Default::default()
    };

    // Direct-quotient path: the rotation is non-trivial and bitwise
    // rate-invariant.  (`m = 1` keeps the plain chain: the quotient
    // would be the identical graph with canonicalization overhead.)
    let direct_sym = head.sym.as_ref().filter(|s| {
        opts.lumping
            && head.tpn.rows() > 1
            && s.trans_perm.len() == trans_rates.len()
            && rates_orbit_invariant(&trans_rates, &s.trans_perm)
    });
    if let Some(sym) = direct_sym {
        let solved = solve_cached(
            access,
            &|shard: &mut Shard| &mut shard.strict_entry(&key, &head).quotient,
            STRICT_QUOTIENT,
            || QuotientGraph::build(&EventNet::from_tpn(&head.tpn, rates), sym, marking_opts),
            &trans_rates,
            &last,
            opts.solver,
            Some(&opts.budget),
        )?;
        let qg = &solved.graph;
        return Ok(StrictSolve {
            throughput: solved.throughput,
            full_states: qg.full_states(),
            lumped_states: Some(qg.n_states()),
            quotient_direct: true,
            cache_hit: solved.hit,
            solver: solved.report.solver,
            precond: solved.report.precond,
            residual: solved.report.residual,
            iterations: solved.report.iterations,
            arena: qg.arena_stats(),
        });
    }

    // Full-chain path (heterogeneous rates, m = 1, or lumping off).
    let solved = solve_cached(
        access,
        &|shard: &mut Shard| &mut shard.strict_entry(&key, &head).full,
        STRICT_FULL,
        || MarkingGraph::build(&EventNet::from_tpn(&head.tpn, rates), marking_opts),
        &trans_rates,
        &last,
        opts.solver,
        Some(&opts.budget),
    )?;
    let mg = &solved.graph;
    Ok(StrictSolve {
        throughput: solved.throughput,
        full_states: mg.n_states(),
        lumped_states: None,
        quotient_direct: false,
        cache_hit: solved.hit,
        solver: solved.report.solver,
        precond: solved.report.precond,
        residual: solved.report.residual,
        iterations: solved.report.iterations,
        arena: mg.arena_stats(),
    })
}

/// A cache of marking-graph structures keyed by chain shape.
///
/// See the module docs for the reuse contract.  One cache serves one
/// search (or one worker thread of a parallel search).  It is a
/// one-shard [`SharedChainCache`] behind `&mut self`: the same solve
/// path, whose uncontended shard lock costs nothing next to a refill.
///
/// # Warm reuse
///
/// ```
/// use repstream_markov::cache::{ChainCache, StrictOptions};
/// use repstream_petri::shape::{MappingShape, ResourceTable};
///
/// let shape = MappingShape::new(vec![2, 3]);
/// let opts = StrictOptions {
///     max_states: 1 << 20,
///     ..Default::default()
/// };
/// let mut cache = ChainCache::new();
///
/// // The first candidate of a shape pays for the BFS…
/// let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
/// let cold = cache.strict_throughput(&shape, &rates, opts).unwrap();
/// assert!(!cold.cache_hit);
///
/// // …every later candidate over the same shape refills the cached
/// // chain's rate buffers in O(nnz) — and gets bitwise the value a cold
/// // solve would produce.
/// let faster = ResourceTable::from_fns(&shape, |_, _| 1.0, |_, _, _| 4.0);
/// let warm = cache.strict_throughput(&shape, &faster, opts).unwrap();
/// assert!(warm.cache_hit);
/// assert_eq!(cache.stats().strict_hits, 1);
/// let fresh = ChainCache::new()
///     .strict_throughput(&shape, &faster, opts)
///     .unwrap();
/// assert_eq!(warm.throughput.to_bits(), fresh.throughput.to_bits());
/// ```
#[derive(Debug, Default)]
pub struct ChainCache {
    shard: Mutex<Shard>,
    stats: AtomicStats,
}

impl ChainCache {
    /// An empty cache.
    pub fn new() -> ChainCache {
        ChainCache::default()
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats.load()
    }

    /// The cache's one shard.
    fn access(&self) -> Locked<'_> {
        Locked {
            shard: &self.shard,
            stats: &self.stats,
        }
    }

    /// Exact inner throughput of a pattern with per-link exponential
    /// rates `rate[a][b]` — the cached equivalent of
    /// [`crate::pattern::pattern_throughput`], bitwise identical to it.
    ///
    /// # Panics
    /// Panics on a ragged rate matrix or non-coprime dimensions.
    pub fn pattern_throughput(
        &mut self,
        rate: &[Vec<f64>],
        max_states: usize,
    ) -> Result<f64, MarkingError> {
        pattern_throughput(self.access(), rate, max_states)
    }

    /// Exact Strict-model throughput through the global marking chain —
    /// the cached equivalent of the Theorem 2 evaluation, bitwise
    /// identical to a cold solve
    /// (`repstream-core`'s `throughput_strict`) with the same rate table.
    ///
    /// On a miss the TPN and its structural row-rotation symmetry are
    /// built and stored under the shape's [`TpnSignature`]; the
    /// reachability structure itself is built lazily by the first
    /// candidate that needs it.  Candidates whose rates keep the
    /// symmetry (and `opts.lumping`) run on the **direct quotient**
    /// ([`QuotientGraph`]) — the full chain is never materialized for
    /// them — every other candidate on the full marking graph.  On a hit
    /// only the per-candidate work runs: the orbit-invariance check, an
    /// `O(nnz)` refill of the recycled rate buffers, and the stationary
    /// solve.
    pub fn strict_throughput(
        &mut self,
        shape: &MappingShape,
        rates: &ResourceTable<f64>,
        opts: StrictOptions,
    ) -> Result<StrictSolve, MarkingError> {
        strict_throughput(self.access(), shape, rates, opts)
    }
}

/// A concurrency-safe, sharded chain cache for the serving layer.
///
/// One `SharedChainCache` serves every worker of a `repstream serve`
/// daemon: requests over the **same** chain shape share one structure
/// build, requests over different shapes proceed in parallel.
///
/// # Sharding contract
///
/// The cache is `shards` independent maps, each behind its own [`Mutex`];
/// a solve uses exactly **one** shard — picked by the Fx hash of its
/// structural key ([`TpnSignature`] for Strict chains, the coprime
/// `(u′, v′)` pair for pattern chains).  The shard mutex is held only for
/// short critical sections: looking a structure up (and taking its
/// recycled rate buffers), installing a finished build, and handing the
/// buffers back.  Builds, refills and solves run **outside** it.
/// Consequences:
///
/// - Requests never wait on each other's solves.  Two warm requests over
///   the same shape solve concurrently: the first takes the recycled
///   rate buffers, the second re-rates into fresh ones.
/// - Requests over the **same** uncached structure build it **once**: the
///   first installs a build latch and runs the BFS outside the lock; the
///   others wait on that latch (checking their own [`Budget`] while they
///   wait) and then take a warm hit.
/// - Requests over **different** shapes that collide on a shard contend
///   only for those short critical sections, never for a build.
///
/// # Failed builds and poisoning
///
/// A structure is installed only after its build fully succeeds.  A
/// build that fails — state cap, governor interrupt, spill error, or a
/// panic — empties its slot again and opens the latch, so nothing partial
/// is left behind; the next request for that structure (a waiter
/// included) builds it afresh.  The critical sections leave the maps
/// consistent at every point, so locks recover from poisoning
/// (`PoisonError::into_inner`) instead of propagating a panic.
///
/// # Bitwise contract
///
/// Same as [`ChainCache`]: every value served — warm or cold, whichever
/// thread asks — is bitwise identical to a cold sequential solve of the
/// same inputs.  `repstream`'s `shared_cache` stress tests pin this
/// under 8-way concurrency.
#[derive(Debug)]
pub struct SharedChainCache {
    shards: Vec<Mutex<Shard>>,
    stats: AtomicStats,
}

impl Default for SharedChainCache {
    fn default() -> Self {
        SharedChainCache::new()
    }
}

impl SharedChainCache {
    /// Default shard count of [`SharedChainCache::new`].
    pub const DEFAULT_SHARDS: usize = 16;

    /// A shared cache with [`Self::DEFAULT_SHARDS`] shards.
    pub fn new() -> SharedChainCache {
        SharedChainCache::with_shards(SharedChainCache::DEFAULT_SHARDS)
    }

    /// A shared cache with `shards` shards (rounded up to a power of two,
    /// minimum 1, so the shard pick is a mask).
    pub fn with_shards(shards: usize) -> SharedChainCache {
        let n = shards.max(1).next_power_of_two();
        SharedChainCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            stats: AtomicStats::default(),
        }
    }

    /// Number of shards (a power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`.
    fn shard_for<K: Hash>(&self, key: &K) -> Locked<'_> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        let idx = (h.finish() as usize) & (self.shards.len() - 1);
        Locked {
            shard: &self.shards[idx],
            stats: &self.stats,
        }
    }

    /// Concurrent equivalent of [`ChainCache::pattern_throughput`]:
    /// bitwise identical to a cold solve.
    ///
    /// # Panics
    /// Panics on a ragged rate matrix or non-coprime dimensions.
    pub fn pattern_throughput(
        &self,
        rate: &[Vec<f64>],
        max_states: usize,
    ) -> Result<f64, MarkingError> {
        let key = (rate.len(), rate.first().map_or(0, Vec::len));
        pattern_throughput(self.shard_for(&key), rate, max_states)
    }

    /// Concurrent equivalent of [`ChainCache::strict_throughput`]:
    /// bitwise identical to a cold solve.
    pub fn strict_throughput(
        &self,
        shape: &MappingShape,
        rates: &ResourceTable<f64>,
        opts: StrictOptions,
    ) -> Result<StrictSolve, MarkingError> {
        let key = TpnSignature::of(shape, ExecModel::Strict);
        strict_throughput(self.shard_for(&key), shape, rates, opts)
    }

    /// Hit/miss counters summed over every shard (read without locking).
    pub fn stats(&self) -> CacheStats {
        self.stats.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern;

    fn het_matrix(u: usize, v: usize, bump: f64) -> Vec<Vec<f64>> {
        (0..u)
            .map(|a| {
                (0..v)
                    .map(|b| 0.4 + ((3 * a + b) % 5) as f64 * bump)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pattern_hit_is_bitwise_cold() {
        let mut cache = ChainCache::new();
        for bump in [0.25, 0.125, 0.5] {
            let m = het_matrix(3, 4, bump);
            let cold = pattern::pattern_throughput(&m, 1 << 20).unwrap();
            let cached = cache.pattern_throughput(&m, 1 << 20).unwrap();
            assert_eq!(cold.to_bits(), cached.to_bits(), "bump {bump}");
        }
        assert_eq!(cache.stats().pattern_misses, 1);
        assert_eq!(cache.stats().pattern_hits, 2);
    }

    #[test]
    fn pattern_distinct_shapes_get_distinct_entries() {
        let mut cache = ChainCache::new();
        cache
            .pattern_throughput(&het_matrix(2, 3, 0.2), 1 << 20)
            .unwrap();
        cache
            .pattern_throughput(&het_matrix(3, 2, 0.2), 1 << 20)
            .unwrap();
        cache
            .pattern_throughput(&het_matrix(2, 3, 0.3), 1 << 20)
            .unwrap();
        assert_eq!(cache.stats().pattern_misses, 2);
        assert_eq!(cache.stats().pattern_hits, 1);
    }

    #[test]
    fn strict_hit_is_bitwise_cold_homogeneous() {
        // Homogeneous rates → the lumped path engages on both cold and
        // cached solves and must agree bit for bit.
        let shape = MappingShape::new(vec![2, 3]);
        let opts = StrictOptions {
            max_states: 1 << 20,
            ..Default::default()
        };
        let mut warm = ChainCache::new();
        for lam in [0.5, 0.25, 2.0] {
            let rates = ResourceTable::from_fns(&shape, |_, _| lam, |_, _, _| 2.0 * lam);
            let mut cold = ChainCache::new();
            let a = cold.strict_throughput(&shape, &rates, opts).unwrap();
            let b = warm.strict_throughput(&shape, &rates, opts).unwrap();
            assert!(!a.cache_hit);
            assert_eq!(a.throughput.to_bits(), b.throughput.to_bits(), "λ {lam}");
            assert_eq!(a.lumped_states, b.lumped_states);
            assert!(a.lumped_states.is_some(), "homogeneous rates must lump");
        }
        assert_eq!(warm.stats().strict_misses, 1);
        assert_eq!(warm.stats().strict_hits, 2);
    }

    #[test]
    fn strict_parallel_build_warm_refill_is_bitwise_cold() {
        // The chunk-parallel BFS builds the identical structure, so a
        // warm refill under the parallel path must agree bit for bit with
        // cold parallel *and* cold sequential solves.
        let shape = MappingShape::new(vec![2, 3]);
        let par = StrictOptions {
            max_states: 1 << 20,
            threads: 4,
            ..Default::default()
        };
        let seq = StrictOptions { threads: 1, ..par };
        let mut warm = ChainCache::new();
        for lam in [0.5, 0.25, 2.0] {
            let rates = ResourceTable::from_fns(&shape, |_, _| lam, |_, _, _| 2.0 * lam);
            let cold_par = ChainCache::new()
                .strict_throughput(&shape, &rates, par)
                .unwrap();
            let cold_seq = ChainCache::new()
                .strict_throughput(&shape, &rates, seq)
                .unwrap();
            let warmed = warm.strict_throughput(&shape, &rates, par).unwrap();
            assert_eq!(
                cold_par.throughput.to_bits(),
                cold_seq.throughput.to_bits(),
                "λ {lam}: parallel vs sequential cold"
            );
            assert_eq!(
                warmed.throughput.to_bits(),
                cold_seq.throughput.to_bits(),
                "λ {lam}: warm refill vs cold"
            );
            assert_eq!(warmed.lumped_states, cold_seq.lumped_states);
        }
        assert_eq!(warm.stats().strict_hits, 2);
        assert_eq!(warm.stats().strict_misses, 1);
    }

    #[test]
    fn strict_heterogeneous_rates_fall_back_to_full_chain() {
        let shape = MappingShape::new(vec![2, 2]);
        let opts = StrictOptions {
            max_states: 1 << 20,
            ..Default::default()
        };
        let mut cache = ChainCache::new();
        // Warm with homogeneous rates: only the direct quotient is built.
        let hom = ResourceTable::from_fns(&shape, |_, _| 1.0, |_, _, _| 1.0);
        let a = cache.strict_throughput(&shape, &hom, opts).unwrap();
        assert!(a.quotient_direct && a.lumped_states.is_some(), "{a:?}");
        assert!(!a.cache_hit);
        // A heterogeneous candidate on the same signature refuses the
        // quotient and lazily builds the full chain (a structural miss)…
        let het = ResourceTable::from_fns(&shape, |_, s| 1.0 + s as f64, |_, _, _| 1.0);
        let b = cache.strict_throughput(&shape, &het, opts).unwrap();
        assert!(!b.cache_hit);
        assert!(!b.quotient_direct && b.lumped_states.is_none(), "{b:?}");
        assert!(b.throughput > 0.0);
        // …which later heterogeneous candidates reuse, as homogeneous
        // ones reuse the quotient.
        let het2 = ResourceTable::from_fns(&shape, |_, s| 2.0 + s as f64, |_, _, _| 1.0);
        assert!(
            cache
                .strict_throughput(&shape, &het2, opts)
                .unwrap()
                .cache_hit
        );
        assert!(
            cache
                .strict_throughput(&shape, &hom, opts)
                .unwrap()
                .cache_hit
        );
    }
}
