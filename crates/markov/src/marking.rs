//! Reachable-marking enumeration: event net → CTMC (Theorem 2).
//!
//! BFS over markings.  For *safe* nets (the Strict TPNs; resource cycles
//! are invariant-bounded to one token) markings stay 0/1 and the chain is
//! the paper's construction verbatim.  For nets with unbounded places (the
//! forward places of Overlap TPNs taken globally) a finite **capacity**
//! must be supplied: a transition is then blocked while one of its output
//! places is at capacity.  Capping adds back-pressure, so the computed
//! throughput under-estimates the infinite-buffer value and increases to it
//! as the capacity grows — the validation experiments sweep the capacity.
//!
//! # Hot-path layout
//!
//! The BFS allocates nothing per firing:
//!
//! * **marking arena** — all reachable markings live in one flat `Vec<u8>`
//!   ([`MarkingStore`]), state `s` at byte offset `s · n_places`.  The
//!   seed kept one `Box<[u8]>` per state *plus* a clone of each as the
//!   hash-map key; on capacity sweeps that was two heap allocations and
//!   ~3× the bytes per state;
//! * **offset-keyed interner** — deduplication probes an open-addressing
//!   table of state ids whose keys *are* arena offsets (slices are
//!   re-read from the arena on compare), so no owned key is ever built;
//! * **scratch successor** — each firing writes the successor marking into
//!   one reused scratch buffer; it is copied into the arena only when the
//!   marking turns out to be new;
//! * **packed-u64 fast path** — nets with ≤ 8 places and token counts
//!   ≤ 255 (every Theorem 3 pattern with `u·v ≤ 4`, and the small tandem
//!   sweeps) keep markings in a single machine word: firing is two mask
//!   adds, the enabledness test is a branch-free zero-byte probe, and
//!   interning hashes one `u64`;
//! * **flat CSR outputs** — both the chain (via [`crate::ctmc::CsrBuilder`])
//!   and the per-state enabled-transition sets are built directly in
//!   compressed sparse row form; `enabled` was previously one `Vec` per
//!   state.
//!
//! # Direct quotient construction
//!
//! When the net carries a validated rate-preserving automorphism (the TPN
//! row-rotation in the homogeneous setting of Theorem 2),
//! [`QuotientGraph::build`] explores the state space **directly in the
//! quotient**: every successor marking is canonicalized under the
//! automorphism's cyclic group
//! ([`repstream_petri::canon::MarkingCanonicalizer`]) before interning, so
//! the arena only ever holds one representative per orbit — the peak
//! interned-state count is `full / m` on free orbits — and the CSR is
//! emitted with orbit-aggregated rates.  The resulting chain (and its
//! uniform [`Lift`]) is **bitwise identical** to
//! building the full chain and lumping it through
//! [`MarkingGraph::orbit_partition`] +
//! [`Ctmc::quotient`](crate::ctmc::Ctmc::quotient), without ever
//! materializing the full graph or running the orbit/refinement passes.
//! See the [`QuotientGraph`] docs for why the state numbering and rate
//! arithmetic coincide exactly.
//!
//! # Chunk-parallel frontier BFS
//!
//! The queue of a breadth-first search is naturally level-structured: at
//! any moment the discovered-but-unexplored states `frontier..n_states`
//! form a batch whose rows can be scanned independently — every state a
//! row fires into is either already interned (id known) or new to the
//! whole level.  [`MarkingOptions::threads`] splits each such level into
//! one contiguous chunk per `std::thread::scope` worker:
//!
//! * **workers** scan their chunk's rows exactly like the sequential
//!   loop — enabledness, firing, canonicalization (with per-thread
//!   rotation/scratch buffers) — but resolve successor targets against a
//!   **level-frozen** view of the interner.  A miss is deduplicated into
//!   a chunk-local key list instead of being interned; each firing is
//!   staged as a `(transition, target-or-local-key)` record;
//! * the **merge** replays the staged firings sequentially in chunk order
//!   (= global state order), interning each chunk-local key at its first
//!   use.  Because the replay order is the sequential scan order, new
//!   states receive exactly the ids the sequential build assigns, the CSR
//!   rows come out in the same first-hit order, and every `f64` addition
//!   of the rate aggregation happens in the same sequence — the output is
//!   **bitwise identical for any thread count** (the same contract the
//!   parallel power sweep and the engine's batch scorer honor).  Budget
//!   (`TooManyStates`), safety (`NotSafe`) and `Deadlock` errors surface
//!   at the same point of the replay as in the sequential scan.
//!
//! The parallel driver covers the two arena paths — the plain
//! [`MarkingGraph`] BFS (which is also what the quotient degenerates to
//! at `m = 1`) and the rotation-buffer quotient path — where the big
//! chains live; the packed-word paths (≤ 8 places) and the per-firing
//! quotient fallback stay sequential, their state spaces being too small
//! or too budget-bound to amortize a spawn.

use crate::ctmc::{CsrBuilder, Ctmc, SolveReport, SolverChoice};
use crate::fxhash::FxHashMap;
use crate::govern::{Budget, Interrupt, Phase, Progress};
use crate::lump::{Lift, Partition};
use crate::net::{EventNet, NetSymmetry};
use repstream_petri::canon::{CanonScratch, MarkingCanonicalizer};
use std::hash::Hasher;

/// When the delta-compressed marking arena engages (see the
/// `MarkingArena` encoding notes in the module source and the
/// `arena_memory` section of `BENCH_ctmc.json` for measured ratios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArenaCompression {
    /// Store verbatim until a flat arena would exceed
    /// [`ARENA_COMPRESS_THRESHOLD`] bytes, then delta-encode (the
    /// conversion re-encodes what is already stored; output bits are
    /// unaffected either way).
    #[default]
    Auto,
    /// Delta-encode from the first marking (what the bitwise A/B tests
    /// force so small shapes exercise the compressed path).
    On,
    /// Never compress (the historical flat layout).
    Off,
}

/// Flat-arena byte size above which [`ArenaCompression::Auto`] converts
/// to the delta encoding.  8 MiB per arena: small enough that the
/// million-state quotient builds (the 6×7-and-beyond class) compress
/// long before the interner becomes the memory ceiling, large enough
/// that the sub-100k-state chains of the interactive paths keep the
/// zero-decode flat layout.
pub const ARENA_COMPRESS_THRESHOLD: usize = 8 << 20;

/// Options for marking-graph construction.
#[derive(Debug, Clone, Copy)]
pub struct MarkingOptions {
    /// Hard cap on the number of states (construction fails beyond it).
    pub max_states: usize,
    /// Per-place token capacity.  `None` requires the net to be safe: the
    /// builder fails if any place would exceed one token.
    pub capacity: Option<u32>,
    /// Worker threads of the chunk-parallel frontier BFS (see the module
    /// docs).  `0` (the default) auto-sizes to the machine's core count,
    /// engaging only on levels large enough to amortize the spawns; an
    /// explicit count is honored on any level with at least that many
    /// pending states (`1` forces the sequential scan).  Every choice
    /// produces **bitwise-identical** output.
    pub threads: usize,
    /// Pending states each auto-sized BFS worker must get before a level
    /// is chunked.  `0` (the default) reads `REPSTREAM_BFS_MIN_STATES_PER_WORKER`
    /// from the environment, falling back to 256 — so multi-core
    /// retuning needs no code change.  Output is bitwise identical for
    /// any value (the gate only decides *whether* to spawn).
    pub min_states_per_worker: usize,
    /// Delta compression of the marking arenas (keys and representatives;
    /// the packed-u64 ≤ 8-place fast path is unaffected).  Compression
    /// changes only how markings are *stored* — BFS order, interned ids
    /// and all emitted chain bits are identical in every mode.
    pub arena_compression: ArenaCompression,
    /// Shard count of the two-level interner (rounded up to a power of
    /// two, capped at [`MAX_INTERNER_SHARDS`]).  `0` (the default) reads
    /// `REPSTREAM_INTERNER_SHARDS` from the environment, falling back to
    /// 16 shards for budgets of 2^18 states and above and a single shard
    /// below.  Sharding reorganizes only the hash table — ids are still
    /// assigned in sequential scan/merge order and dedup is exact byte
    /// equality, so output is **bitwise identical** for any shard count.
    pub interner_shards: usize,
    /// Spill the marking arenas' byte payloads (not the slot tables) to
    /// an unlinked temp file once they outgrow [`Self::spill_limit`], so
    /// peak RSS stays bounded on 10M+-state builds.  Storage-only: every
    /// read decodes through the same byte sequence, so chains are
    /// bitwise identical with spill on or off.  Trades wall clock
    /// (collision probes against spilled markings re-read from the file)
    /// for memory; no-op on non-Unix targets.
    pub interner_spill: bool,
    /// In-memory payload bytes each arena keeps resident before flushing
    /// to the spill file (only meaningful with
    /// [`Self::interner_spill`]).  `0` (the default) reads
    /// `REPSTREAM_SPILL_MIB` from the environment, falling back to
    /// 64 MiB per arena.
    pub spill_limit: usize,
    /// Cooperative resource limits ([`Budget`]), checked once per BFS
    /// level.  The default [`Budget::UNLIMITED`] never fires; output is
    /// bitwise identical for any budget, as long as no limit fires —
    /// the checks only decide *whether to abort*, never what to emit.
    pub budget: Budget,
}

impl Default for MarkingOptions {
    fn default() -> Self {
        MarkingOptions {
            max_states: 1 << 20,
            capacity: None,
            threads: 0,
            min_states_per_worker: 0,
            arena_compression: ArenaCompression::Auto,
            interner_shards: 0,
            interner_spill: false,
            spill_limit: 0,
            budget: Budget::UNLIMITED,
        }
    }
}

impl MarkingOptions {
    /// Resolved per-arena resident-byte bound of the spill machinery:
    /// `usize::MAX` (never spill) unless [`Self::interner_spill`] is set,
    /// then [`Self::spill_limit`] or its environment default.
    fn resolved_spill_limit(&self) -> usize {
        if !self.interner_spill {
            return usize::MAX;
        }
        if self.spill_limit > 0 {
            return self.spill_limit;
        }
        static LIMIT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *LIMIT.get_or_init(|| {
            std::env::var("REPSTREAM_SPILL_MIB")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&v| v > 0)
                .unwrap_or(64)
                << 20
        })
    }

    /// Resolved shard count of the two-level interner (see
    /// [`Self::interner_shards`]).
    fn resolved_interner_shards(&self) -> usize {
        if self.interner_shards > 0 {
            return self
                .interner_shards
                .next_power_of_two()
                .min(MAX_INTERNER_SHARDS);
        }
        static SHARDS: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
        let env = *SHARDS.get_or_init(|| {
            std::env::var("REPSTREAM_INTERNER_SHARDS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&v| v > 0)
        });
        if let Some(n) = env {
            return n.next_power_of_two().min(MAX_INTERNER_SHARDS);
        }
        if self.max_states >= (1 << 18) {
            16
        } else {
            1
        }
    }
}

/// Upper bound on [`MarkingOptions::interner_shards`].  256 shards keep
/// the per-shard budget ≥ 2^15 states even at the 2^31 id ceiling; more
/// shards would only add top-bit collisions without spreading work.
pub const MAX_INTERNER_SHARDS: usize = 256;

/// Which spill-file operation failed (see [`SpillIoError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillOp {
    /// A positioned read of spilled payload bytes.
    Read,
    /// A positioned write flushing resident payload bytes.
    Write,
}

impl SpillOp {
    fn label(self) -> &'static str {
        match self {
            SpillOp::Read => "read",
            SpillOp::Write => "write",
        }
    }
}

/// A failed spill-file operation: what was attempted, at which payload
/// byte offset, and the underlying I/O error (shared behind an `Arc`
/// because `io::Error` is not `Clone`).
#[derive(Debug, Clone)]
pub struct SpillIoError {
    /// The operation that failed.
    pub op: SpillOp,
    /// Byte offset into the spill payload at which it failed.
    pub offset: u64,
    /// The underlying I/O error.
    pub source: std::sync::Arc<std::io::Error>,
}

impl PartialEq for SpillIoError {
    fn eq(&self, other: &Self) -> bool {
        // `io::Error` carries no equality; the kind is what callers
        // match on.
        self.op == other.op
            && self.offset == other.offset
            && self.source.kind() == other.source.kind()
    }
}

impl Eq for SpillIoError {}

/// Failure modes of the marking BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarkingError {
    /// The reachable set exceeded `max_states`.
    TooManyStates(usize),
    /// A place exceeded one token while `capacity` was `None`.
    NotSafe {
        /// The offending place.
        place: usize,
    },
    /// No transition is enabled in some reachable marking.
    Deadlock,
    /// A spill-file read or write failed.  The build aborts at the next
    /// level boundary; no temp files are leaked (spill files are
    /// unlinked at creation, or deleted on drop when that failed).
    SpillIo(SpillIoError),
    /// The resource governor fired (deadline, cancellation, memory cap
    /// — see [`Interrupt`]).
    Interrupted(Interrupt),
}

impl MarkingError {
    /// The governor interrupt behind this error, when that is what it
    /// is — callers that degrade to bounds match on this.
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self {
            MarkingError::Interrupted(i) => Some(*i),
            _ => None,
        }
    }
}

impl From<Interrupt> for MarkingError {
    fn from(i: Interrupt) -> Self {
        MarkingError::Interrupted(i)
    }
}

impl std::fmt::Display for MarkingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkingError::TooManyStates(n) => write!(f, "marking graph exceeds {n} states"),
            MarkingError::NotSafe { place } => {
                write!(
                    f,
                    "net is not safe: place {place} exceeds one token (supply a capacity)"
                )
            }
            MarkingError::Deadlock => write!(f, "reachable deadlock marking"),
            MarkingError::SpillIo(e) => {
                write!(
                    f,
                    "spill {} failed at byte {}: {}",
                    e.op.label(),
                    e.offset,
                    e.source
                )
            }
            MarkingError::Interrupted(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for MarkingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MarkingError::SpillIo(e) => Some(e.source.as_ref()),
            MarkingError::Interrupted(i) => Some(i),
            _ => None,
        }
    }
}

/// LEB128-encode `v` (7 payload bits per byte, high bit = continue).
#[inline]
fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Encoded byte length of `v` under [`push_varint`].
#[inline]
fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

/// Decode one varint at `off`, returning `(value, next offset)`.
#[inline]
fn read_varint(buf: &[u8], mut off: usize) -> (u32, usize) {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let b = buf[off];
        off += 1;
        v |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return (v, off);
        }
        shift += 7;
    }
}

/// The marking arena: append-only storage of fixed-width byte markings,
/// flat or **delta-compressed**.
///
/// # Flat layout
///
/// Marking `s` is the `width`-byte slice at offset `s · width` of one
/// `Vec<u8>` — the historical layout, zero-cost to read.
///
/// # Delta layout
///
/// Markings of one BFS level differ in few places (each successor is its
/// parent ± the fired transition's places, and parents within a level are
/// themselves close), so each entry is encoded against a **base** marking
/// of its level:
///
/// * a base is stored verbatim: varint header `0`, then `width` bytes;
/// * any other entry stores header `ndiffs + 1` followed by `ndiffs`
///   `(varint position gap, new byte)` pairs against its base;
/// * an entry whose delta would not beat half the verbatim cost is itself
///   stored verbatim and **becomes the new base** — bases refresh as a
///   level drifts, bounding every entry below `1 + width/2` bytes plus
///   the 8-byte offset/base bookkeeping while keeping decode depth at
///   one (a delta never chains through another delta).
///
/// [`MarkingArena::begin_level`] marks level boundaries (the next push
/// starts a fresh base); under [`ArenaCompression::Auto`] the arena
/// starts flat and converts in place when it crosses
/// [`ARENA_COMPRESS_THRESHOLD`] — base bookkeeping is maintained while
/// flat so the conversion re-encodes exactly what a compressed-from-birth
/// arena would hold.  Compression affects storage only: ids, push order
/// and every read are identical in all modes.
#[derive(Debug, Clone)]
struct MarkingArena {
    width: usize,
    len: usize,
    /// Verbatim payload (flat mode): marking `s` at `s · width`.
    flat: Vec<u8>,
    /// Encoded payload (compressed mode).
    enc: Vec<u8>,
    /// Start offset in `enc` of each entry (compressed mode).
    entry_ptr: Vec<u32>,
    /// Base state of each entry (maintained while flat too — unless the
    /// threshold is infinite — so a mid-build conversion knows every
    /// entry's level base).
    base_of: Vec<u32>,
    compressed: bool,
    /// Flat bytes above which the arena converts; `usize::MAX` = never.
    threshold: usize,
    /// Current base state (always stored verbatim).
    cur_base: u32,
    /// Set by [`Self::begin_level`]: the next push starts a new base.
    new_level: bool,
    /// Verbatim bytes of the current base (compressed mode): the delta
    /// coster/encoder reads the base from here instead of `enc`, so base
    /// bytes never have to be re-read from a spilled payload.
    base_cache: Vec<u8>,
    /// Resident payload bytes kept before flushing to the spill file;
    /// `usize::MAX` disables spilling (see
    /// [`MarkingOptions::interner_spill`]).
    spill_limit: usize,
    /// Lazily-created spill region (first flush).
    spill: Option<SpillFile>,
    /// First spill I/O failure.  The `&self` decode paths (`copy_to`,
    /// `matches`, `hash_entry`) are shared immutably by the parallel
    /// BFS workers and stay infallible: on a read error they record it
    /// here and return deterministic zero-filled bytes; the BFS drivers
    /// drain the slot at level boundaries into
    /// [`MarkingError::SpillIo`], discarding the garbage level.
    poison: std::sync::OnceLock<SpillIoError>,
}

/// Temp-file-backed spill region of one arena: the first `spilled` bytes
/// of the active payload (flat or delta-encoded, whichever layout is
/// live) sit in an **unlinked** temp file — space is reclaimed by the OS
/// when the last handle drops — and the payload `Vec` holds only the
/// tail.  Reads go through positioned I/O (`pread`), so level-frozen
/// parallel workers can probe spilled markings concurrently.  Clones
/// share the file; that is sound because graphs are only cloned after
/// their build finishes (the payload is append-only and frozen by then).
#[derive(Debug, Clone)]
struct SpillFile {
    file: std::sync::Arc<std::fs::File>,
    spilled: usize,
    /// Retained only when the immediate unlink failed (the normal case
    /// deletes the directory entry at creation): the last clone removes
    /// the file on drop, so no temp file leaks on any path — error
    /// paths included.
    _cleanup: Option<std::sync::Arc<CleanupPath>>,
}

/// Deletes the named file when dropped (the unlink-failed fallback of
/// `SpillFile::create`).
#[derive(Debug)]
struct CleanupPath(std::path::PathBuf);

impl Drop for CleanupPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl SpillFile {
    /// Open an unlinked temp file under `REPSTREAM_SPILL_DIR` (default:
    /// the system temp dir).  `None` when creation fails or the target
    /// has no positioned-I/O support — the arena then stays in memory.
    fn create() -> Option<Self> {
        #[cfg(unix)]
        {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::var_os("REPSTREAM_SPILL_DIR")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(std::env::temp_dir);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("repstream-spill-{}-{n}.bin", std::process::id()));
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
                .ok()?;
            let cleanup = match std::fs::remove_file(&path) {
                Ok(()) => None,
                Err(_) => Some(std::sync::Arc::new(CleanupPath(path))),
            };
            Some(SpillFile {
                file: std::sync::Arc::new(file),
                spilled: 0,
                _cleanup: cleanup,
            })
        }
        #[cfg(not(unix))]
        {
            None
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> std::io::Result<()> {
        #[cfg(feature = "fault-inject")]
        if let Some(e) = crate::fault::spill_read_fault() {
            return Err(e);
        }
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, off)
        }
        #[cfg(not(unix))]
        {
            let _ = (buf, off);
            unreachable!("spill files are never created off-Unix");
        }
    }

    fn write_all_at(&self, buf: &[u8], off: u64) -> std::io::Result<()> {
        #[cfg(feature = "fault-inject")]
        if let Some(e) = crate::fault::spill_write_fault() {
            return Err(e);
        }
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, off)
        }
        #[cfg(not(unix))]
        {
            let _ = (buf, off);
            unreachable!("spill files are never created off-Unix");
        }
    }
}

thread_local! {
    /// Scratch pair (entry bytes, base bytes) for reads that touch a
    /// spilled payload — per thread so frozen-interner probes of the
    /// parallel BFS workers stay allocation-free after warm-up.
    static SPILL_SCRATCH: std::cell::RefCell<(Vec<u8>, Vec<u8>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

impl MarkingArena {
    fn new(width: usize, compression: ArenaCompression) -> Self {
        Self::with_spill(width, compression, usize::MAX)
    }

    /// Like [`Self::new`] with a resident-payload bound: once the active
    /// payload `Vec` reaches `spill_limit` bytes it is flushed to the
    /// spill file (`usize::MAX` = never).
    fn with_spill(width: usize, compression: ArenaCompression, spill_limit: usize) -> Self {
        let (compressed, threshold) = match compression {
            ArenaCompression::Off => (false, usize::MAX),
            ArenaCompression::Auto => (false, ARENA_COMPRESS_THRESHOLD),
            ArenaCompression::On => (true, 0),
        };
        MarkingArena {
            width,
            len: 0,
            flat: Vec::new(),
            enc: Vec::new(),
            entry_ptr: Vec::new(),
            base_of: Vec::new(),
            compressed,
            threshold,
            cur_base: 0,
            new_level: false,
            base_cache: Vec::new(),
            spill_limit,
            spill: None,
            poison: std::sync::OnceLock::new(),
        }
    }

    /// Wrap already-materialized flat bytes (the packed paths).
    fn from_flat(width: usize, data: Vec<u8>) -> Self {
        let len = data.len() / width.max(1);
        MarkingArena {
            width,
            len,
            flat: data,
            enc: Vec::new(),
            entry_ptr: Vec::new(),
            base_of: Vec::new(),
            compressed: false,
            threshold: usize::MAX,
            cur_base: 0,
            new_level: false,
            base_cache: Vec::new(),
            spill_limit: usize::MAX,
            spill: None,
            poison: std::sync::OnceLock::new(),
        }
    }

    /// Number of stored markings.
    fn len(&self) -> usize {
        self.len
    }

    /// Places per marking.
    fn width(&self) -> usize {
        self.width
    }

    /// `true` once the delta encoding is active.
    fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// Mark a BFS level boundary: the next pushed marking becomes the
    /// base its level's entries are encoded against.
    fn begin_level(&mut self) {
        self.new_level = true;
    }

    /// Append a marking (its id is the current [`Self::len`]).
    fn push(&mut self, m: &[u8]) {
        debug_assert_eq!(m.len(), self.width);
        let id = self.len;
        self.len = id + 1;
        if self.compressed {
            self.push_encoded(m, id);
        } else {
            if self.threshold != usize::MAX {
                let base = if self.new_level || id == 0 {
                    id as u32
                } else {
                    self.cur_base
                };
                self.new_level = false;
                self.cur_base = base;
                self.base_of.push(base);
            }
            self.flat.extend_from_slice(m);
            if self.flat.len() + self.spilled() > self.threshold {
                self.convert();
            }
        }
        if self.payload_vec().len() >= self.spill_limit {
            self.flush_spill();
        }
    }

    /// Encode one entry (compressed mode): delta against the current base
    /// when that wins, verbatim-as-new-base otherwise (see the type docs).
    /// The base bytes come from [`Self::base_cache`], so encoding never
    /// reads back through the (possibly spilled) payload.
    fn push_encoded(&mut self, m: &[u8], id: usize) {
        self.entry_ptr.push(self.payload_len() as u32);
        let start_base = self.new_level || id == 0;
        self.new_level = false;
        if !start_base {
            // Cost the delta first: gap varints plus one value byte each.
            let mut ndiffs = 0u32;
            let mut cost = 0usize;
            let mut prev = 0usize;
            for (p, &v) in m.iter().enumerate().take(self.width) {
                if v != self.base_cache[p] {
                    cost += varint_len((p - prev) as u32) + 1;
                    prev = p;
                    ndiffs += 1;
                }
            }
            cost += varint_len(ndiffs + 1);
            if cost < 1 + self.width / 2 {
                self.base_of.push(self.cur_base);
                push_varint(&mut self.enc, ndiffs + 1);
                let mut prev = 0usize;
                for (p, &v) in m.iter().enumerate().take(self.width) {
                    if v != self.base_cache[p] {
                        push_varint(&mut self.enc, (p - prev) as u32);
                        self.enc.push(v);
                        prev = p;
                    }
                }
                return;
            }
        }
        self.base_of.push(id as u32);
        self.cur_base = id as u32;
        self.enc.push(0);
        self.enc.extend_from_slice(m);
        self.base_cache.clear();
        self.base_cache.extend_from_slice(m);
    }

    /// Flat → delta conversion when [`ArenaCompression::Auto`] crosses
    /// the threshold: re-encode every stored marking against its recorded
    /// level base.  Storage-only — ids and reads are unaffected.  A
    /// spilled flat payload is read back first; the spill file is then
    /// reused from offset 0 for the encoded payload.
    #[cold]
    fn convert(&mut self) {
        let mut flat = std::mem::take(&mut self.flat);
        let mut read_err = None;
        if let Some(sp) = &mut self.spill {
            if sp.spilled > 0 {
                let mut full = vec![0u8; sp.spilled + flat.len()];
                let (head, tail) = full.split_at_mut(sp.spilled);
                if let Err(e) = sp.read_exact_at(head, 0) {
                    // Re-encode zeroes; the poison drain at the next
                    // level boundary discards everything anyway.
                    read_err = Some(e);
                }
                tail.copy_from_slice(&flat);
                flat = full;
                sp.spilled = 0;
            }
        }
        if let Some(e) = read_err {
            self.poison_read(0, e);
        }
        let bases = std::mem::take(&mut self.base_of);
        let w = self.width.max(1);
        self.compressed = true;
        self.enc = Vec::with_capacity(flat.len() / 4);
        self.entry_ptr = Vec::with_capacity(self.len);
        let pending_level = self.new_level;
        for (s, &b) in bases.iter().enumerate() {
            self.new_level = b as usize == s;
            self.push_encoded(&flat[s * w..(s + 1) * w], s);
        }
        self.new_level = pending_level;
    }

    /// Payload bytes already flushed to the spill file.
    #[inline]
    fn spilled(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.spilled)
    }

    /// The in-memory tail of the active payload layout.
    #[inline]
    fn payload_vec(&self) -> &Vec<u8> {
        if self.compressed {
            &self.enc
        } else {
            &self.flat
        }
    }

    /// Total payload length, spilled prefix included.
    #[inline]
    fn payload_len(&self) -> usize {
        self.spilled() + self.payload_vec().len()
    }

    /// Flush the resident payload tail to the spill file (creating it on
    /// first use; when creation fails the arena silently stays resident).
    #[cold]
    fn flush_spill(&mut self) {
        if self.spill.is_none() {
            match SpillFile::create() {
                Some(f) => self.spill = Some(f),
                None => {
                    self.spill_limit = usize::MAX;
                    return;
                }
            }
        }
        let Some(sp) = self.spill.as_mut() else {
            return;
        };
        let buf = if self.compressed {
            &mut self.enc
        } else {
            &mut self.flat
        };
        let off = sp.spilled as u64;
        match sp.write_all_at(buf, off) {
            Ok(()) => {
                sp.spilled += buf.len();
                buf.clear();
            }
            Err(e) => {
                // Keep the unwritten tail resident, stop spilling, and
                // record the failure for the level-boundary drain.
                self.spill_limit = usize::MAX;
                let _ = self.poison.set(SpillIoError {
                    op: SpillOp::Write,
                    offset: off,
                    source: std::sync::Arc::new(e),
                });
            }
        }
    }

    /// Record a failed spill read observed through a `&self` decode
    /// path (first failure wins; see the `poison` field docs).
    #[cold]
    fn poison_read(&self, offset: u64, e: std::io::Error) {
        let _ = self.poison.set(SpillIoError {
            op: SpillOp::Read,
            offset,
            source: std::sync::Arc::new(e),
        });
    }

    /// `true` once any spill I/O on this arena has failed.
    #[inline]
    fn is_poisoned(&self) -> bool {
        self.poison.get().is_some()
    }

    /// The first spill I/O failure as a build error — the BFS drivers
    /// drain this at level boundaries (and once more after the loop).
    fn take_poison(&self) -> Option<MarkingError> {
        self.poison.get().map(|p| MarkingError::SpillIo(p.clone()))
    }

    /// Read payload bytes `[off, off + out.len())` into `out`, straddling
    /// the spilled prefix and the resident tail as needed.
    fn payload_read_into(&self, off: usize, out: &mut [u8]) {
        let sp = self.spilled();
        let vec = self.payload_vec();
        if off >= sp {
            out.copy_from_slice(&vec[off - sp..off - sp + out.len()]);
            return;
        }
        let file_part = out.len().min(sp - off);
        match self.spill.as_ref() {
            Some(spill) => {
                if let Err(e) = spill.read_exact_at(&mut out[..file_part], off as u64) {
                    self.poison_read(off as u64, e);
                    out[..file_part].fill(0);
                }
            }
            // Unreachable (`spilled() > 0` implies a file); degrade to
            // zero-fill rather than panic under the no-expect policy.
            None => out[..file_part].fill(0),
        }
        if file_part < out.len() {
            let rest = out.len() - file_part;
            out[file_part..].copy_from_slice(&vec[..rest]);
        }
    }

    /// Byte range of compressed entry `s` (exclusive end): `entry_ptr`
    /// bounds it exactly, the last entry running to the payload end.
    #[inline]
    fn enc_entry_range(&self, s: usize) -> (usize, usize) {
        let off = self.entry_ptr[s] as usize;
        let end = self
            .entry_ptr
            .get(s + 1)
            .map_or_else(|| self.payload_len(), |&e| e as usize);
        (off, end)
    }

    /// Bytes of marking `s` in flat mode.
    ///
    /// # Panics
    /// Panics once the arena is compressed or spilled — bulk callers use
    /// [`Self::read_at`]/[`Self::matches`].
    fn get(&self, s: usize) -> &[u8] {
        assert!(
            !self.compressed && self.spilled() == 0,
            "marking arena is delta-compressed or spilled; use read_into/matches"
        );
        &self.flat[s * self.width..(s + 1) * self.width]
    }

    /// Decode marking `s` into `out` (exactly `width` bytes).
    fn copy_to(&self, s: usize, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.width);
        if self.spilled() > 0 {
            SPILL_SCRATCH.with(|c| {
                let mut scratch = c.borrow_mut();
                self.copy_to_spilled(s, out, &mut scratch.0);
            });
            return;
        }
        if !self.compressed {
            out.copy_from_slice(&self.flat[s * self.width..(s + 1) * self.width]);
            return;
        }
        let (h, mut off) = read_varint(&self.enc, self.entry_ptr[s] as usize);
        if h == 0 {
            out.copy_from_slice(&self.enc[off..off + self.width]);
            return;
        }
        let boff = self.entry_ptr[self.base_of[s] as usize] as usize + 1;
        out.copy_from_slice(&self.enc[boff..boff + self.width]);
        let mut pos = 0usize;
        for _ in 1..h {
            let (gap, next) = read_varint(&self.enc, off);
            pos += gap as usize;
            out[pos] = self.enc[next];
            off = next + 1;
        }
    }

    /// [`Self::copy_to`] when part of the payload lives in the spill
    /// file: entry bytes are materialized through `entry` scratch (the
    /// delta layout bounds every entry, so the read is one `pread` of at
    /// most `1 + width/2` + header bytes; flat entries read exactly
    /// `width`).
    fn copy_to_spilled(&self, s: usize, out: &mut [u8], entry: &mut Vec<u8>) {
        if !self.compressed {
            self.payload_read_into(s * self.width, out);
            return;
        }
        let (off, end) = self.enc_entry_range(s);
        entry.resize(end - off, 0);
        self.payload_read_into(off, entry);
        if self.is_poisoned() {
            // The entry bytes may be zero-filled garbage; emit a
            // deterministic zero marking until the level-boundary drain
            // aborts the build.
            out.fill(0);
            return;
        }
        let (h, mut eo) = read_varint(entry, 0);
        if h == 0 {
            out.copy_from_slice(&entry[eo..eo + self.width]);
            return;
        }
        // Base entries are verbatim: header byte `0`, then `width` bytes.
        let boff = self.entry_ptr[self.base_of[s] as usize] as usize + 1;
        self.payload_read_into(boff, out);
        let mut pos = 0usize;
        for _ in 1..h {
            let (gap, next) = read_varint(entry, eo);
            pos += gap as usize;
            out[pos] = entry[next];
            eo = next + 1;
        }
    }

    /// Marking `s` as a slice: zero-copy while flat and unspilled,
    /// decoded into `buf` otherwise.
    fn read_at<'a>(&'a self, s: usize, buf: &'a mut [u8]) -> &'a [u8] {
        if !self.compressed && self.spilled() == 0 {
            &self.flat[s * self.width..(s + 1) * self.width]
        } else {
            self.copy_to(s, buf);
            buf
        }
    }

    /// Does marking `s` equal `probe`?  Compressed entries compare
    /// without materializing: the base segments between diffs are
    /// compared directly.
    fn matches(&self, s: usize, probe: &[u8]) -> bool {
        debug_assert_eq!(probe.len(), self.width);
        if self.spilled() > 0 {
            return SPILL_SCRATCH.with(|c| {
                let mut scratch = c.borrow_mut();
                let (entry, base) = &mut *scratch;
                self.matches_spilled(s, probe, entry, base)
            });
        }
        if !self.compressed {
            return &self.flat[s * self.width..(s + 1) * self.width] == probe;
        }
        let (h, mut off) = read_varint(&self.enc, self.entry_ptr[s] as usize);
        if h == 0 {
            return &self.enc[off..off + self.width] == probe;
        }
        let boff = self.entry_ptr[self.base_of[s] as usize] as usize + 1;
        let base = &self.enc[boff..boff + self.width];
        let mut pos = 0usize;
        let mut seg = 0usize;
        for _ in 1..h {
            let (gap, next) = read_varint(&self.enc, off);
            pos += gap as usize;
            if probe[seg..pos] != base[seg..pos] || probe[pos] != self.enc[next] {
                return false;
            }
            seg = pos + 1;
            off = next + 1;
        }
        probe[seg..] == base[seg..]
    }

    /// [`Self::matches`] when part of the payload lives in the spill
    /// file — same comparison, entry and base bytes materialized through
    /// the per-thread scratch.
    fn matches_spilled(
        &self,
        s: usize,
        probe: &[u8],
        entry: &mut Vec<u8>,
        base: &mut Vec<u8>,
    ) -> bool {
        if !self.compressed {
            entry.resize(self.width, 0);
            self.payload_read_into(s * self.width, entry);
            return &entry[..] == probe;
        }
        let (off, end) = self.enc_entry_range(s);
        entry.resize(end - off, 0);
        self.payload_read_into(off, entry);
        if self.is_poisoned() {
            // Deterministic miss; the duplicate it may cause is
            // discarded with the rest of the level at the drain.
            return false;
        }
        let (h, mut eo) = read_varint(entry, 0);
        if h == 0 {
            return &entry[eo..eo + self.width] == probe;
        }
        let boff = self.entry_ptr[self.base_of[s] as usize] as usize + 1;
        base.resize(self.width, 0);
        self.payload_read_into(boff, base);
        let mut pos = 0usize;
        let mut seg = 0usize;
        for _ in 1..h {
            let (gap, next) = read_varint(entry, eo);
            pos += gap as usize;
            if probe[seg..pos] != base[seg..pos] || probe[pos] != entry[next] {
                return false;
            }
            seg = pos + 1;
            eo = next + 1;
        }
        probe[seg..] == base[seg..]
    }

    /// Fx hash of marking `s` (`scratch` decodes compressed or spilled
    /// entries).
    fn hash_entry(&self, s: usize, scratch: &mut Vec<u8>) -> u64 {
        if !self.compressed && self.spilled() == 0 {
            hash_marking(&self.flat[s * self.width..(s + 1) * self.width])
        } else {
            scratch.resize(self.width, 0);
            self.copy_to(s, scratch);
            hash_marking(scratch)
        }
    }

    /// Resident payload bytes (either layout, including the compressed
    /// layout's per-entry offset/base bookkeeping; the spilled prefix is
    /// accounted by [`Self::spill_bytes`]).
    fn bytes(&self) -> usize {
        self.flat.len()
            + self.enc.len()
            + self.entry_ptr.len() * std::mem::size_of::<u32>()
            + self.base_of.len() * std::mem::size_of::<u32>()
    }

    /// Payload bytes parked in the spill file.
    fn spill_bytes(&self) -> usize {
        self.spilled()
    }
}

/// All reachable markings, interned in one arena — flat (marking `s`
/// readable in place via [`MarkingStore::get`]) or delta-compressed
/// (see [`ArenaCompression`]; read through
/// [`MarkingStore::read_into`] / [`MarkingStore::matches`]).
#[derive(Debug, Clone)]
pub struct MarkingStore {
    arena: MarkingArena,
}

impl MarkingStore {
    fn from_arena(arena: MarkingArena) -> Self {
        MarkingStore { arena }
    }

    fn from_flat(width: usize, data: Vec<u8>) -> Self {
        MarkingStore {
            arena: MarkingArena::from_flat(width, data),
        }
    }

    /// Number of stored markings.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// `true` when no marking is stored.
    pub fn is_empty(&self) -> bool {
        self.arena.len() == 0
    }

    /// Tokens per place of marking `s`.
    ///
    /// # Panics
    /// Panics when the store is delta-compressed
    /// ([`Self::is_compressed`]) — use [`Self::read_into`] or
    /// [`Self::matches`] there.
    pub fn get(&self, s: usize) -> &[u8] {
        self.arena.get(s)
    }

    /// Tokens per place of marking `s`, decoded into `buf` when the
    /// store is compressed (zero-copy otherwise).
    pub fn read_into<'a>(&'a self, s: usize, buf: &'a mut Vec<u8>) -> &'a [u8] {
        buf.resize(self.arena.width(), 0);
        self.arena.read_at(s, buf)
    }

    /// Does marking `s` equal `probe` (works in either layout)?
    pub fn matches(&self, s: usize, probe: &[u8]) -> bool {
        self.arena.matches(s, probe)
    }

    /// `true` when markings are stored delta-compressed.
    pub fn is_compressed(&self) -> bool {
        self.arena.is_compressed()
    }

    /// Places per marking.
    pub fn width(&self) -> usize {
        self.arena.width()
    }

    /// Resident payload bytes (see [`ArenaStats`]; the spilled prefix is
    /// reported by [`Self::spill_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.arena.bytes()
    }

    /// Payload bytes parked in the spill file
    /// ([`MarkingOptions::interner_spill`]); `0` when nothing spilled.
    pub fn spill_bytes(&self) -> usize {
        self.arena.spill_bytes()
    }

    /// All markings in state order.
    ///
    /// # Panics
    /// Panics when the store is delta-compressed — iterate with
    /// [`Self::read_into`] there.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |s| self.arena.get(s))
    }
}

/// Byte accounting of a build's marking storage, captured when the BFS
/// finishes (arena and table only grow, so this is also the peak).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Canonical-key arena bytes (what the interner dedups against; the
    /// plain BFS's keys *are* its markings).
    pub keys_bytes: usize,
    /// Representative arena bytes (quotient builds; `0` when the keys
    /// double as the stored markings).
    pub reps_bytes: usize,
    /// Interner bytes: open-addressing slots summed over every shard, or
    /// the hash-map estimate on the packed paths.
    pub interner_bytes: usize,
    /// Payload bytes parked in spill files across both arenas
    /// ([`MarkingOptions::interner_spill`]); these are *not* resident,
    /// so they are excluded from [`Self::total`].
    pub spill_bytes: usize,
    /// Whether delta compression was active when the build finished.
    pub compressed: bool,
}

impl ArenaStats {
    /// Total **resident** bytes across both arenas and the interner
    /// (spilled bytes are on disk; add [`Self::spill_bytes`] for the
    /// total stored footprint).
    pub fn total(&self) -> usize {
        self.keys_bytes + self.reps_bytes + self.interner_bytes
    }
}

/// The reachability graph of an [`EventNet`] with exponential races.
#[derive(Debug, Clone)]
pub struct MarkingGraph {
    /// All reachable markings (tokens per place), arena-interned.
    pub states: MarkingStore,
    /// The CTMC over those markings.
    pub ctmc: Ctmc,
    /// CSR layout of the enabled sets: state `s` owns
    /// `enabled_idx[enabled_ptr[s]..enabled_ptr[s+1]]`.
    enabled_ptr: Vec<u32>,
    enabled_idx: Vec<u32>,
    /// Storage accounting captured at the end of the build.
    arena_stats: ArenaStats,
}

/// Fx hash of a marking slice.
#[inline]
fn hash_marking(m: &[u8]) -> u64 {
    let mut h = crate::fxhash::FxHasher::default();
    h.write(m);
    h.finish()
}

/// Open-addressing interner whose keys are offsets into the marking
/// arena — probing compares slices read back from the arena, so no owned
/// key is ever allocated.
struct OffsetInterner {
    /// State id per slot, or `EMPTY`.
    table: Vec<u32>,
    mask: usize,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl OffsetInterner {
    fn with_capacity(states: usize) -> Self {
        Self::with_slots((states.max(8) * 2).next_power_of_two())
    }

    /// A table of exactly `slots` slots (rounded up to a power of two).
    fn with_slots(slots: usize) -> Self {
        let cap = slots.max(16).next_power_of_two();
        OffsetInterner {
            table: vec![EMPTY; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Find `probe`'s state id, or intern it as `new_id` (the caller must
    /// then append `probe` to the arena to keep ids in sync).
    #[inline]
    fn intern(&mut self, arena: &MarkingArena, probe: &[u8], new_id: u32) -> (u32, bool) {
        self.intern_hashed(arena, hash_marking(probe), probe, new_id, 0)
    }

    /// [`Self::intern`] with the hash supplied by the caller (the sharded
    /// interner hashes once to pick the shard).  `budget_slots` is the
    /// first-growth jump target: a full table grows to
    /// `max(2·slots, budget_slots)`, so a budget-presized shard pays at
    /// most one cheap early rehash instead of a doubling storm (`0`
    /// keeps plain doubling — the legacy growth schedule).
    #[inline]
    fn intern_hashed(
        &mut self,
        arena: &MarkingArena,
        h: u64,
        probe: &[u8],
        new_id: u32,
        budget_slots: usize,
    ) -> (u32, bool) {
        if (self.len + 1) * 8 > self.table.len() * 7 {
            self.grow(arena, (self.table.len() * 2).max(budget_slots));
        }
        let mut slot = h as usize & self.mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                self.table[slot] = new_id;
                self.len += 1;
                return (new_id, true);
            }
            if arena.matches(id as usize, probe) {
                return (id, false);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Read-only probe with the hash supplied by the caller: `probe`'s
    /// state id if it is interned, else `None`.  This is the
    /// **level-frozen** lookup of the parallel BFS workers — the table is
    /// shared immutably across threads while a level is being explored,
    /// so states discovered *within* the level miss here and are
    /// deduplicated chunk-locally instead.
    #[inline]
    fn find_hashed(&self, arena: &MarkingArena, h: u64, probe: &[u8]) -> Option<u32> {
        let mut slot = h as usize & self.mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                return None;
            }
            if arena.matches(id as usize, probe) {
                return Some(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    #[cold]
    fn grow(&mut self, arena: &MarkingArena, target_slots: usize) {
        let cap = target_slots.max(self.table.len() * 2).next_power_of_two();
        let mut table = vec![EMPTY; cap];
        let mask = cap - 1;
        let mut scratch = Vec::new();
        for &id in self.table.iter().filter(|&&id| id != EMPTY) {
            let mut slot = arena.hash_entry(id as usize, &mut scratch) as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = id;
        }
        self.table = table;
        self.mask = mask;
    }

    /// Bytes of the open-addressing slot table.
    fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }
}

/// Two-level interner of the arena BFS paths: `2^k` [`OffsetInterner`]
/// shards keyed by the **top** `k` bits of the marking hash (slot
/// probing uses the low bits, so the two levels are independent).
///
/// Sharding reorganizes only the hash table: ids are still assigned by
/// the caller in sequential scan/merge order and deduplication is exact
/// byte equality, so the chain is **bitwise identical for any shard
/// count** — the same contract the chunk-parallel BFS honors.  What
/// sharding buys at 10M+ states is allocation granularity: each shard's
/// table grows (and rehashes) independently at ~1/2^k the size, and the
/// first growth of a shard jumps straight to its slice of the
/// `max_states` budget (`budget_slots`) — at most one cheap early rehash
/// per shard instead of the ~13 full-table doubling rehashes a 6×7 build
/// paid under the old fixed 1024-slot start.
struct ShardedInterner {
    shards: Vec<OffsetInterner>,
    /// `hash >> shard_shift` picks the shard; `64` means a single shard.
    shard_shift: u32,
    /// Per-shard first-growth target: slots holding `max_states / 2^k`
    /// entries below the 7/8 load bound (`0` = plain doubling).
    budget_slots: usize,
}

impl ShardedInterner {
    /// `n_shards` tables (rounded to a power of two) presized for a
    /// `max_states` interning budget.  Shards start at ≤ 2048 slots so
    /// the many small pattern-chain builds of the engine never pay a
    /// budget-sized allocation; builds that do scale pay one early
    /// rehash per shard when they jump to `budget_slots`.
    fn new(n_shards: usize, max_states: usize) -> Self {
        let n = n_shards.clamp(1, MAX_INTERNER_SHARDS).next_power_of_two();
        let budget_slots = if max_states == 0 {
            0
        } else {
            (max_states / n * 8 / 7 + 1).next_power_of_two()
        };
        let init = budget_slots.clamp(16, 2048);
        ShardedInterner {
            shards: (0..n).map(|_| OffsetInterner::with_slots(init)).collect(),
            shard_shift: 64 - n.trailing_zeros(),
            budget_slots,
        }
    }

    /// The [`MarkingOptions`]-resolved interner of the big build paths.
    fn for_opts(opts: &MarkingOptions) -> Self {
        Self::new(opts.resolved_interner_shards(), opts.max_states)
    }

    #[inline]
    fn shard_of(&self, h: u64) -> usize {
        if self.shard_shift >= 64 {
            0
        } else {
            (h >> self.shard_shift) as usize
        }
    }

    /// Find `probe`'s state id, or intern it as `new_id` (see
    /// [`OffsetInterner::intern`]).
    #[inline]
    fn intern(&mut self, arena: &MarkingArena, probe: &[u8], new_id: u32) -> (u32, bool) {
        let h = hash_marking(probe);
        let budget = self.budget_slots;
        let shard = self.shard_of(h);
        self.shards[shard].intern_hashed(arena, h, probe, new_id, budget)
    }

    /// Level-frozen read-only probe (see [`OffsetInterner::find`]).
    #[inline]
    fn find(&self, arena: &MarkingArena, probe: &[u8]) -> Option<u32> {
        let h = hash_marking(probe);
        self.shards[self.shard_of(h)].find_hashed(arena, h, probe)
    }

    /// Bytes of the slot tables summed over every shard.
    fn table_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.table_bytes()).sum()
    }
}

/// Coded-target flag of the parallel staging: targets carrying this bit
/// index a chunk-local new-key list instead of naming a global state id
/// (ids therefore live in 31 bits — `max_states` is clamped below it).
const NEW_BIT: u32 = 1 << 31;

/// Resolved default of [`MarkingOptions::min_states_per_worker`]: read
/// once from `REPSTREAM_BFS_MIN_STATES_PER_WORKER`, else 256 (spawning a
/// scope thread costs tens of microseconds; a smaller slice of BFS work
/// cannot amortize it).
fn default_min_states_per_worker() -> usize {
    static GATE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *GATE.get_or_init(|| {
        std::env::var("REPSTREAM_BFS_MIN_STATES_PER_WORKER")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(256)
    })
}

/// Worker count for a BFS level with `pending` unexplored states: an
/// explicit request is honored (clamped to one state per worker), `0`
/// auto-sizes to the core count ([`crate::ctmc::num_cores`], shared with
/// the power sweep) gated by `min_per_worker`
/// ([`MarkingOptions::min_states_per_worker`]; `0` defers to
/// [`default_min_states_per_worker`]).  Explicit thread requests skip
/// the gate — output is bitwise identical either way.
fn bfs_threads(requested: usize, pending: usize, min_per_worker: usize) -> usize {
    let gate = if min_per_worker == 0 {
        default_min_states_per_worker()
    } else {
        min_per_worker
    };
    match requested {
        0 => crate::ctmc::num_cores().min(pending / gate).max(1),
        t => t.min(pending).max(1),
    }
}

/// Staged exploration of one chunk of a parallel BFS level (see the
/// module docs): every firing is recorded with its target either resolved
/// against the level-frozen interner or deduplicated into the chunk-local
/// new-key list, for the sequential merge to replay in chunk order.
struct ChunkStage {
    /// `(transition, coded target)` per firing, in scan order; targets
    /// carrying [`NEW_BIT`] index the new-key list.
    firings: Vec<(u32, u32)>,
    /// Exclusive end in `firings` of each explored state's row.
    row_ends: Vec<u32>,
    /// Chunk-local unique canonical keys, in first-appearance order (a
    /// flat arena — its lifetime is one level, so it never compresses).
    new_keys: MarkingArena,
    /// First-discovered representative per new key (quotient chunks; the
    /// plain BFS leaves it empty — its keys *are* the markings).
    new_reps: Vec<u8>,
    /// Orbit period per new key (quotient chunks only).
    new_periods: Vec<u32>,
    /// Error that cut the scan short (the last staged row is then
    /// partial and the merge re-raises the error at that point).
    error: Option<MarkingError>,
}

impl ChunkStage {
    fn new(width: usize) -> Self {
        ChunkStage {
            firings: Vec::new(),
            row_ends: Vec::new(),
            new_keys: MarkingArena::new(width, ArenaCompression::Off),
            new_reps: Vec::new(),
            new_periods: Vec::new(),
            error: None,
        }
    }
}

/// Lexicographic-minimum rotation of the successor held in `rot`
/// (rotation `a` lives at `rot[a·width..][..width]`), returning
/// `(best rotation index, orbit period)`.  The scan stops at the
/// successor's period — later rotations repeat — which is also the orbit
/// size.  Shared by the sequential rotation-buffer scan and its parallel
/// workers so both elect the identical representative.
#[inline]
fn lex_min_rotation(rot: &[u8], width: usize, order: usize) -> (usize, u32) {
    let mut best = 0usize;
    let mut period = order as u32;
    for a in 1..order {
        let c = &rot[a * width..(a + 1) * width];
        if c == &rot[..width] {
            period = a as u32;
            break;
        }
        if c < &rot[best * width..(best + 1) * width] {
            best = a;
        }
    }
    (best, period)
}

/// Per-transition firing masks of the packed-u64 fast path: place `p`
/// lives in byte `p` of the word.
struct PackedNet {
    /// +1 in each output-place byte.
    add: Vec<u64>,
    /// +1 in each input-place byte.
    sub: Vec<u64>,
    /// 0x01 in each input-place byte (zero-byte probe, low half).
    in_low: Vec<u64>,
    /// 0x80 in each input-place byte (zero-byte probe, high half).
    in_high: Vec<u64>,
}

impl PackedNet {
    fn build(net: &EventNet) -> Self {
        let nt = net.n_transitions();
        let mut p = PackedNet {
            add: vec![0; nt],
            sub: vec![0; nt],
            in_low: vec![0; nt],
            in_high: vec![0; nt],
        };
        for t in 0..nt {
            for &pl in net.inputs(t) {
                p.sub[t] += 1u64 << (8 * pl);
                p.in_low[t] |= 0x01u64 << (8 * pl);
                p.in_high[t] |= 0x80u64 << (8 * pl);
            }
            for &pl in net.outputs(t) {
                p.add[t] += 1u64 << (8 * pl);
            }
        }
        p
    }

    /// All input bytes of `marking` non-zero?  Branch-free zero-byte
    /// probe restricted to the input places: a borrow can only originate
    /// in a zero input byte, so `probe != 0 ⇔ some input place is empty`.
    #[inline]
    fn enabled(&self, t: usize, marking: u64) -> bool {
        marking.wrapping_sub(self.in_low[t]) & !marking & self.in_high[t] == 0
    }

    /// Fire `t` (caller has checked enabledness and capacity, so no byte
    /// borrows or carries).
    #[inline]
    fn fire(&self, t: usize, marking: u64) -> u64 {
        marking.wrapping_sub(self.sub[t]).wrapping_add(self.add[t])
    }
}

/// Shared accumulator of the BFS outputs (chain rows + enabled CSR).
struct GraphBuilder {
    csr: CsrBuilder,
    enabled_ptr: Vec<u32>,
    enabled_idx: Vec<u32>,
    fired_in_row: bool,
}

impl GraphBuilder {
    fn new(expected_states: usize, nt: usize) -> Self {
        GraphBuilder {
            csr: CsrBuilder::with_capacity(expected_states, expected_states * nt / 2),
            enabled_ptr: vec![0],
            enabled_idx: Vec::new(),
            fired_in_row: false,
        }
    }

    #[inline]
    fn push(&mut self, t: usize, target: usize, rate: f64) {
        self.csr.push(target, rate);
        self.enabled_idx.push(t as u32);
        self.fired_in_row = true;
    }

    /// Close state `s`'s row; `Err(Deadlock)` when nothing was enabled.
    #[inline]
    fn end_row(&mut self) -> Result<(), MarkingError> {
        if !self.fired_in_row {
            return Err(MarkingError::Deadlock);
        }
        self.fired_in_row = false;
        self.csr.end_row();
        self.enabled_ptr.push(self.enabled_idx.len() as u32);
        Ok(())
    }
}

impl MarkingGraph {
    /// Explore the reachable markings of `net`.
    pub fn build(net: &EventNet, opts: MarkingOptions) -> Result<Self, MarkingError> {
        // State ids are u32 in the interner and the CSR, and the parallel
        // staging codes them in 31 bits (the top bit flags chunk-local
        // keys); clamp the budget so the id-space bound fires as
        // `TooManyStates` before any id could wrap.
        let opts = MarkingOptions {
            max_states: opts.max_states.min(NEW_BIT as usize - 1),
            ..opts
        };
        let cap = opts.capacity.unwrap_or(1).max(1);
        // The packed path stores a place in one byte, so token counts must
        // fit: the capacity bound (or safeness bound 1) keeps them ≤ 255.
        if net.n_places() <= 8 && cap <= 255 {
            Self::build_packed(net, opts, cap as u8)
        } else {
            Self::build_arena(net, opts, cap as i64)
        }
    }

    /// Generic path: arena-interned byte markings, reused scratch buffer.
    /// Levels large enough for [`MarkingOptions::threads`] are scanned by
    /// the chunk-parallel workers (see the module docs); either way the
    /// output is bitwise identical.
    fn build_arena(net: &EventNet, opts: MarkingOptions, cap: i64) -> Result<Self, MarkingError> {
        let width = net.n_places();
        let nt = net.n_transitions();
        let strict_safe = opts.capacity.is_none();

        let init = net.initial_marking();
        assert_eq!(init.len(), width);
        let mut arena =
            MarkingArena::with_spill(width, opts.arena_compression, opts.resolved_spill_limit());
        arena.push(&init);
        let mut interner = ShardedInterner::for_opts(&opts);
        let (id0, fresh) = interner.intern(&arena, &init, 0);
        debug_assert!(fresh && id0 == 0);

        let mut out = GraphBuilder::new(1024, nt);
        let mut cur = vec![0u8; width];
        let mut scratch = vec![0u8; width];
        let mut frontier = 0usize;
        let mut n_states = 1usize;
        // Exclusive end of the BFS level being explored: crossing it
        // starts the next level (and a fresh delta base in the arena).
        let mut level_end = 0usize;
        let mut levels = 0usize;

        while frontier < n_states {
            if frontier >= level_end {
                // Level boundary: drain any spill I/O failure, then one
                // cooperative governor check (never on the per-firing
                // hot path, so checks cannot perturb output bits).
                if let Some(e) = arena.take_poison() {
                    return Err(e);
                }
                opts.budget.check(Progress {
                    phase: Phase::MarkingBfs,
                    states: n_states,
                    levels,
                    iterations: 0,
                    arena_bytes: arena.bytes() + interner.table_bytes(),
                })?;
                levels += 1;
                level_end = n_states;
                arena.begin_level();
            }
            let threads = bfs_threads(
                opts.threads,
                n_states - frontier,
                opts.min_states_per_worker,
            );
            if threads > 1 {
                // Parallel level: freeze the interner/arena over the
                // pending range, stage one chunk per worker, merge in
                // chunk order.
                let hi = n_states;
                let chunk = (hi - frontier).div_ceil(threads);
                let stages: Vec<ChunkStage> = std::thread::scope(|scope| {
                    let (interner, arena) = (&interner, &arena);
                    let handles: Vec<_> = (frontier..hi)
                        .step_by(chunk)
                        .map(|lo| {
                            scope.spawn(move || {
                                Self::explore_plain_chunk(
                                    net,
                                    strict_safe,
                                    cap,
                                    arena,
                                    interner,
                                    width,
                                    lo..(lo + chunk).min(hi),
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| match h.join() {
                            Ok(stage) => stage,
                            Err(p) => std::panic::resume_unwind(p),
                        })
                        .collect()
                });
                for stage in &stages {
                    // Chunk-boundary checkpoint: bounds the coast past a
                    // deadline to one chunk's replay on parallel levels.
                    opts.budget.check(Progress {
                        phase: Phase::MarkingBfs,
                        states: n_states,
                        levels,
                        iterations: 0,
                        arena_bytes: arena.bytes() + interner.table_bytes(),
                    })?;
                    Self::merge_plain_chunk(
                        net,
                        stage,
                        &mut interner,
                        &mut arena,
                        &mut n_states,
                        opts.max_states,
                        &mut out,
                    )?;
                }
                frontier = hi;
                continue;
            }

            let s = frontier;
            frontier += 1;
            // Mid-level checkpoint: big levels (millions of states) take
            // seconds, so the per-level cadence alone cannot honor a
            // deadline-plus-grace contract.  Strided so the hot path
            // stays one branch per state.
            if s & 0xfff == 0xfff {
                if let Some(e) = arena.take_poison() {
                    return Err(e);
                }
                opts.budget.check(Progress {
                    phase: Phase::MarkingBfs,
                    states: n_states,
                    levels,
                    iterations: 0,
                    arena_bytes: arena.bytes() + interner.table_bytes(),
                })?;
            }
            arena.copy_to(s, &mut cur);

            'trans: for t in 0..nt {
                // Enabled: all inputs marked…
                for &p in net.inputs(t) {
                    if cur[p] == 0 {
                        continue 'trans;
                    }
                }
                // …and, under a capacity bound, all outputs below cap.
                // Self-loop places (input and output of t) net out to
                // zero, so they never block.  Without a capacity, the
                // firing is attempted and unsafety is reported as an
                // error instead.
                if !strict_safe {
                    for &p in net.outputs(t) {
                        let is_self = net.places[p].0 == net.places[p].1;
                        if !is_self && i64::from(cur[p]) >= cap {
                            continue 'trans;
                        }
                    }
                }
                // Successor marking, into the reused scratch buffer.
                scratch.copy_from_slice(&cur);
                for &p in net.inputs(t) {
                    scratch[p] -= 1;
                }
                for &p in net.outputs(t) {
                    scratch[p] += 1;
                    if strict_safe && scratch[p] > 1 {
                        return Err(MarkingError::NotSafe { place: p });
                    }
                }
                let (id, is_new) = interner.intern(&arena, &scratch, n_states as u32);
                if is_new {
                    if n_states >= opts.max_states {
                        // A poisoned spill read zero-fills its marking, which
                        // can cascade into bogus dedup misses or dead rows —
                        // the root cause must win over the symptom.
                        return Err(arena
                            .take_poison()
                            .unwrap_or(MarkingError::TooManyStates(opts.max_states)));
                    }
                    arena.push(&scratch);
                    n_states += 1;
                }
                out.push(t, id as usize, net.rates[t]);
            }
            out.end_row()
                .map_err(|e| arena.take_poison().unwrap_or(e))?;
        }

        // The last level has no following boundary: drain once more so
        // a spill failure there still surfaces.
        if let Some(e) = arena.take_poison() {
            return Err(e);
        }
        let arena_stats = ArenaStats {
            keys_bytes: arena.bytes(),
            reps_bytes: 0,
            interner_bytes: interner.table_bytes(),
            spill_bytes: arena.spill_bytes(),
            compressed: arena.is_compressed(),
        };
        Ok(MarkingGraph {
            states: MarkingStore::from_arena(arena),
            ctmc: out.csr.finish(),
            enabled_ptr: out.enabled_ptr,
            enabled_idx: out.enabled_idx,
            arena_stats,
        })
    }

    /// Worker of the parallel plain BFS: scan the rows of `states` (a
    /// chunk of one level) exactly like the sequential loop, staging each
    /// firing with its target resolved against the level-frozen interner
    /// or deduplicated chunk-locally.
    fn explore_plain_chunk(
        net: &EventNet,
        strict_safe: bool,
        cap: i64,
        arena: &MarkingArena,
        interner: &ShardedInterner,
        width: usize,
        states: std::ops::Range<usize>,
    ) -> ChunkStage {
        let nt = net.n_transitions();
        let mut stage = ChunkStage::new(width);
        let mut local = OffsetInterner::with_capacity(64);
        let mut n_local = 0u32;
        let mut scratch = vec![0u8; width];
        let mut curbuf = vec![0u8; width];
        for s in states {
            let cur = arena.read_at(s, &mut curbuf);
            'trans: for t in 0..nt {
                for &p in net.inputs(t) {
                    if cur[p] == 0 {
                        continue 'trans;
                    }
                }
                if !strict_safe {
                    for &p in net.outputs(t) {
                        let is_self = net.places[p].0 == net.places[p].1;
                        if !is_self && i64::from(cur[p]) >= cap {
                            continue 'trans;
                        }
                    }
                }
                scratch.copy_from_slice(cur);
                for &p in net.inputs(t) {
                    scratch[p] -= 1;
                }
                for &p in net.outputs(t) {
                    scratch[p] += 1;
                    if strict_safe && scratch[p] > 1 {
                        stage.error = Some(MarkingError::NotSafe { place: p });
                        stage.row_ends.push(stage.firings.len() as u32);
                        return stage;
                    }
                }
                let code = match interner.find(arena, &scratch) {
                    Some(id) => id,
                    None => {
                        let (li, fresh) = local.intern(&stage.new_keys, &scratch, n_local);
                        if fresh {
                            stage.new_keys.push(&scratch);
                            n_local += 1;
                        }
                        NEW_BIT | li
                    }
                };
                stage.firings.push((t as u32, code));
            }
            stage.row_ends.push(stage.firings.len() as u32);
        }
        stage
    }

    /// Merge one staged chunk into the build in chunk order: replay the
    /// firings sequentially, interning each chunk-local key at its first
    /// use — the same intern sequence, row order and error points as the
    /// sequential scan, hence bitwise-identical output.
    #[allow(clippy::too_many_arguments)]
    fn merge_plain_chunk(
        net: &EventNet,
        stage: &ChunkStage,
        interner: &mut ShardedInterner,
        arena: &mut MarkingArena,
        n_states: &mut usize,
        max_states: usize,
        out: &mut GraphBuilder,
    ) -> Result<(), MarkingError> {
        let n_local = stage.new_keys.len();
        let mut local_ids = vec![EMPTY; n_local];
        let mut f = 0usize;
        for (row, &end) in stage.row_ends.iter().enumerate() {
            for &(t, code) in &stage.firings[f..end as usize] {
                let id = if code & NEW_BIT == 0 {
                    code
                } else {
                    let li = (code & !NEW_BIT) as usize;
                    if local_ids[li] == EMPTY {
                        let key = stage.new_keys.get(li);
                        let (id, is_new) = interner.intern(arena, key, *n_states as u32);
                        if is_new {
                            if *n_states >= max_states {
                                return Err(arena
                                    .take_poison()
                                    .unwrap_or(MarkingError::TooManyStates(max_states)));
                            }
                            arena.push(key);
                            *n_states += 1;
                        }
                        local_ids[li] = id;
                    }
                    local_ids[li]
                };
                out.push(t as usize, id as usize, net.rates[t as usize]);
            }
            f = end as usize;
            if row + 1 == stage.row_ends.len() {
                if let Some(e) = &stage.error {
                    return Err(e.clone());
                }
            }
            out.end_row()
                .map_err(|e| arena.take_poison().unwrap_or(e))?;
        }
        Ok(())
    }

    /// Packed path for ≤ 8 places: markings are single `u64` words.
    fn build_packed(net: &EventNet, opts: MarkingOptions, cap: u8) -> Result<Self, MarkingError> {
        let width = net.n_places();
        let nt = net.n_transitions();
        let strict_safe = opts.capacity.is_none();
        let packed = PackedNet::build(net);

        let init = pack(&net.initial_marking());
        let mut states: Vec<u64> = vec![init];
        let mut index: FxHashMap<u64, u32> = FxHashMap::default();
        index.insert(init, 0);

        let mut out = GraphBuilder::new(1024, nt);
        let mut frontier = 0usize;

        while frontier < states.len() {
            // The packed word path has no level structure; check the
            // budget every 4096 states instead (same contract: the
            // check only decides whether to abort).
            if frontier & 0xfff == 0 {
                opts.budget.check(Progress {
                    phase: Phase::MarkingBfs,
                    states: states.len(),
                    levels: 0,
                    iterations: frontier,
                    arena_bytes: states.len() * std::mem::size_of::<u64>(),
                })?;
            }
            let cur = states[frontier];
            frontier += 1;

            'trans: for t in 0..nt {
                if !packed.enabled(t, cur) {
                    continue;
                }
                if !strict_safe {
                    for &p in net.outputs(t) {
                        let is_self = net.places[p].0 == net.places[p].1;
                        if !is_self && byte(cur, p) >= cap {
                            continue 'trans;
                        }
                    }
                }
                let next = packed.fire(t, cur);
                if strict_safe {
                    for &p in net.outputs(t) {
                        if byte(next, p) > 1 {
                            return Err(MarkingError::NotSafe { place: p });
                        }
                    }
                }
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = states.len() as u32;
                        if id as usize >= opts.max_states {
                            return Err(MarkingError::TooManyStates(opts.max_states));
                        }
                        states.push(next);
                        index.insert(next, id);
                        id
                    }
                };
                out.push(t, id as usize, net.rates[t]);
            }
            out.end_row()?;
        }

        // Materialize the arena from the packed words.
        let mut data = Vec::with_capacity(states.len() * width);
        for &w in &states {
            data.extend_from_slice(&w.to_le_bytes()[..width]);
        }
        let arena_stats = ArenaStats {
            keys_bytes: states.len() * std::mem::size_of::<u64>(),
            reps_bytes: 0,
            interner_bytes: index.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>()),
            spill_bytes: 0,
            compressed: false,
        };
        Ok(MarkingGraph {
            states: MarkingStore::from_flat(width, data),
            ctmc: out.csr.finish(),
            enabled_ptr: out.enabled_ptr,
            enabled_idx: out.enabled_idx,
            arena_stats,
        })
    }

    /// Number of reachable markings.
    pub fn n_states(&self) -> usize {
        self.ctmc.n_states()
    }

    /// Transitions fireable in state `s` (ascending).
    pub fn enabled(&self, s: usize) -> &[u32] {
        &self.enabled_idx[self.enabled_ptr[s] as usize..self.enabled_ptr[s + 1] as usize]
    }

    /// Byte accounting of the build's marking storage (the peak — arena
    /// and interner only grow during the BFS).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena_stats
    }

    /// Orbit seed partition of the reachable markings under a net
    /// symmetry: state `s` maps to the state holding the place-permuted
    /// marking, and the cycles of that state permutation become blocks.
    ///
    /// The caller should have validated `sym` with
    /// [`EventNet::symmetry_valid`]; this method adds the *reachability*
    /// check the net-level validation cannot do: a net automorphism that
    /// does not fix the initial marking still induces a CTMC automorphism
    /// **iff** the permuted markings are all reachable (the reachability
    /// graph of these live event nets is strongly connected, so one
    /// escaped image means the hint does not apply).  Returns `None` in
    /// that case — callers fall back to the full chain.
    ///
    /// The resulting partition satisfies the automorphism-orbit contract
    /// of [`crate::lump`], so
    /// [`Ctmc::stationary_lumped`](crate::ctmc::Ctmc::stationary_lumped)
    /// may lift per-state marginals from it.
    pub fn orbit_partition(&self, sym: &NetSymmetry) -> Option<Partition> {
        let n = self.n_states();
        let width = self.states.width();
        if sym.place_perm.len() != width {
            return None;
        }
        // The induced state map σ is propagated *structurally* instead of
        // hashing every permuted marking: once σ(s₀) is known, firing
        // transition `t` from `s` corresponds to firing `trans_perm[t]`
        // from σ(s) (that is what being a net automorphism means), and the
        // marking BFS reaches every state from s₀ — so one marking lookup
        // seeds a pure-integer BFS over the aligned `enabled`/CSR rows.
        // Every propagation step doubles as a validity check: a missing
        // permuted transition, a σ conflict, or a non-injective image
        // proves the hint does not apply and returns `None`.
        let image0: Option<Vec<u8>> = {
            let mut buf = Vec::new();
            let m0 = self.states.read_into(0, &mut buf);
            let mut img = vec![0u8; width];
            let mut ok = true;
            for (p, &tokens) in m0.iter().enumerate() {
                let dst = sym.place_perm[p];
                if dst >= width {
                    ok = false;
                    break;
                }
                img[dst] = tokens;
            }
            ok.then_some(img)
        };
        let image0 = image0?;
        let s0_img = (0..n).find(|&s| self.states.matches(s, &image0))? as u32;

        let mut sigma = vec![u32::MAX; n];
        let mut taken = vec![false; n];
        sigma[0] = s0_img;
        taken[s0_img as usize] = true;
        let mut stack: Vec<u32> = vec![0];
        let mut visited = 1usize;
        while let Some(s) = stack.pop() {
            let s = s as usize;
            let si = sigma[s] as usize;
            let en_s = self.enabled(s);
            let en_si = self.enabled(si);
            if en_s.len() != en_si.len() {
                return None;
            }
            let row_s = self.ctmc.row_targets(s);
            let row_si = self.ctmc.row_targets(si);
            for (k, &t) in en_s.iter().enumerate() {
                let tp = *sym.trans_perm.get(t as usize)? as u32;
                // Enabled sets are ascending by construction.
                let pos = en_si.binary_search(&tp).ok()?;
                let target = row_s[k] as usize;
                let target_img = row_si[pos];
                if sigma[target] == u32::MAX {
                    if taken[target_img as usize] {
                        return None; // not injective: bogus hint
                    }
                    sigma[target] = target_img;
                    taken[target_img as usize] = true;
                    visited += 1;
                    stack.push(target as u32);
                } else if sigma[target] != target_img {
                    return None; // inconsistent propagation: bogus hint
                }
            }
        }
        if visited != n {
            return None;
        }
        Some(Partition::from_permutation_orbits(&sigma))
    }

    /// Transition fired by each CSR edge of the chain, in edge order (the
    /// enabled-set arrays double as this map: the BFS appends one enabled
    /// transition per chain edge, so `edge_transitions().len() ==
    /// ctmc.nnz()` and edge `e` was produced by firing transition
    /// `edge_transitions()[e]`).
    ///
    /// This is what makes the reachability structure reusable across rate
    /// tables: the chain of a *different* rate assignment over the same
    /// net structure is `ctmc.with_rates(edge rates looked up here)` — see
    /// [`MarkingGraph::ctmc_with_trans_rates`].
    pub fn edge_transitions(&self) -> &[u32] {
        &self.enabled_idx
    }

    /// The chain re-rated from per-transition rates: edge `e` gets
    /// `trans_rates[edge_transitions()[e]]`.  Bitwise identical to
    /// rebuilding the marking graph of a net with those rates (the BFS
    /// order depends only on structure), at `O(nnz)` instead of a full
    /// BFS + interning pass.  The new chain shares this graph's chain
    /// structure; only its rate arrays are allocated.
    ///
    /// # Panics
    /// Panics if `trans_rates` is shorter than the net's transition count
    /// or contains a non-positive rate.
    pub fn ctmc_with_trans_rates(&self, trans_rates: &[f64]) -> Ctmc {
        let mut chain = self.ctmc.bare();
        self.refill_trans_rates(&mut chain, trans_rates);
        chain
    }

    /// [`MarkingGraph::ctmc_with_trans_rates`] into the buffers of
    /// `chain`, a chain re-rated earlier from this graph: the same bits,
    /// with no allocation.
    ///
    /// # Panics
    /// Panics if `chain` does not share this graph's chain structure, or
    /// as [`MarkingGraph::ctmc_with_trans_rates`].
    pub fn refill_trans_rates(&self, chain: &mut Ctmc, trans_rates: &[f64]) {
        assert!(
            chain.shares_structure(&self.ctmc),
            "chain was not re-rated from this graph"
        );
        chain.refill(self.enabled_idx.iter().map(|&t| trans_rates[t as usize]));
    }

    /// Stationary firing rate of every transition:
    /// `rate(t) = Σ_s π(s) λ_t [t enabled in s]`.
    pub fn firing_rates(&self, net: &EventNet, pi: &[f64]) -> Vec<f64> {
        self.firing_rates_with(&net.rates, pi)
    }

    /// As [`MarkingGraph::firing_rates`], from a bare per-transition rate
    /// slice (the re-rated chains of [`MarkingGraph::ctmc_with_trans_rates`]
    /// have no `EventNet` to hand).
    pub fn firing_rates_with(&self, trans_rates: &[f64], pi: &[f64]) -> Vec<f64> {
        assert_eq!(pi.len(), self.n_states());
        let mut rates = vec![0.0f64; trans_rates.len()];
        for (s, &p) in pi.iter().enumerate() {
            for &t in self.enabled(s) {
                rates[t as usize] += p * trans_rates[t as usize];
            }
        }
        rates
    }

    /// Convenience: stationary distribution, then summed firing rate of a
    /// set of transitions (e.g. the TPN's last column → throughput).
    pub fn throughput_of(&self, net: &EventNet, transitions: &[usize]) -> f64 {
        self.throughput_with(&self.ctmc, &net.rates, transitions)
    }

    /// As [`MarkingGraph::throughput_of`] for a re-rated chain sharing
    /// this graph's structure (same op order as the owned-chain path, so
    /// refilled and cold solves agree bit for bit).
    pub fn throughput_with(&self, ctmc: &Ctmc, trans_rates: &[f64], transitions: &[usize]) -> f64 {
        self.throughput_solve(ctmc, trans_rates, transitions, SolverChoice::Auto)
            .0
    }

    /// As [`MarkingGraph::throughput_with`], solving the chain with an
    /// explicit [`SolverChoice`] and returning the [`SolveReport`] (which
    /// solver ran, its residual and iteration count) alongside the
    /// throughput.  [`SolverChoice::Auto`] reproduces
    /// [`MarkingGraph::throughput_with`] bit for bit.
    pub fn throughput_solve(
        &self,
        ctmc: &Ctmc,
        trans_rates: &[f64],
        transitions: &[usize],
        choice: SolverChoice,
    ) -> (f64, SolveReport) {
        let report = ctmc.stationary_solve(choice);
        let rates = self.firing_rates_with(trans_rates, &report.pi);
        (transitions.iter().map(|&t| rates[t]).sum(), report)
    }

    /// [`MarkingGraph::throughput_solve`] under a cooperative [`Budget`]:
    /// the stationary solve checks the budget at its checkpoints and
    /// surfaces an overrun as an [`Interrupt`].  Bitwise identical to the
    /// ungoverned path when no limit fires.
    pub fn throughput_solve_governed(
        &self,
        ctmc: &Ctmc,
        trans_rates: &[f64],
        transitions: &[usize],
        choice: SolverChoice,
        budget: &Budget,
    ) -> Result<(f64, SolveReport), Interrupt> {
        let report = ctmc.stationary_solve_governed(choice, budget)?;
        let rates = self.firing_rates_with(trans_rates, &report.pi);
        Ok((transitions.iter().map(|&t| rates[t]).sum(), report))
    }
}

/// The symmetry-reduced reachability graph of an [`EventNet`]: one state
/// per orbit of the reachable markings under a rate-preserving
/// automorphism, built **without materializing the full graph**.
///
/// # Why this equals full-then-lump bit for bit
///
/// The BFS interns every successor marking by its **canonical form** (the
/// lexicographically smallest member of its orbit) but stores the
/// **first-discovered** member as the orbit's representative, and it is
/// that representative's row that is explored.  Three facts make the
/// output coincide exactly with
/// [`Ctmc::quotient`]`(`[`MarkingGraph::orbit_partition`]`)`:
///
/// 1. **Numbering.** In the full BFS, a non-first member `σᵃ(x)` of an
///    orbit can never discover an orbit its first member `x` did not: its
///    row is the `σᵃ`-image of `x`'s row, hitting the same orbits, and
///    `x` is processed first.  So new orbits are first discovered only
///    from first members, in ascending transition order of their rows —
///    exactly the order this BFS visits (its representative *is* that
///    first member, by induction along the discovery sequence).  Orbit
///    ids here therefore equal the block ids of
///    [`MarkingGraph::orbit_partition`] (first appearance by full state
///    index).
/// 2. **Rates.** [`Ctmc::quotient`] reads each block's row off its first
///    member (every member agrees — that is lumpability), accumulating
///    edge rates per target block in CSR row order, which for the full
///    BFS is ascending enabled-transition order — the same scan order and
///    the same `f64` additions performed here.
/// 3. **Edges.** Both emit a block's targets in first-hit order of that
///    scan and drop intra-orbit edges (the quotient's self-loops).
///
/// # What the quotient preserves
///
/// Per-state quantities are only available per orbit: [`Self::enabled`]
/// lists the enabled transitions of the *representative*, and
/// [`Self::firing_rates_with`] returns orbit-aggregated totals — sums
/// over a transition set are the true full-chain sums **iff the set is
/// closed under the automorphism** (e.g. a whole TPN column, like the
/// last-column throughput set: the rotation permutes rows within a
/// column).  Uniform per-state probabilities come from [`Self::lift`].
#[derive(Debug, Clone)]
pub struct QuotientGraph {
    /// First-discovered member marking of every orbit (the block's
    /// representative, whose enabled set [`Self::enabled`] reports).
    pub reps: MarkingStore,
    /// The quotient CTMC: orbit-aggregated rates, intra-orbit edges
    /// dropped.
    pub ctmc: Ctmc,
    /// CSR layout of the representatives' enabled sets.
    enabled_ptr: Vec<u32>,
    enabled_idx: Vec<u32>,
    /// Quotient edge `e` aggregates the representative-row transitions
    /// `edge_trans[edge_ptr[e]..edge_ptr[e+1]]` (ascending within each
    /// edge) — the refill map of [`Self::ctmc_with_trans_rates`].
    edge_ptr: Vec<u32>,
    edge_trans: Vec<u32>,
    /// Orbit size (number of distinct markings) per quotient state.
    orbit_size: Vec<u32>,
    /// Storage accounting captured at the end of the build.
    arena_stats: ArenaStats,
}

/// Rotation-buffer budget of the optimized quotient path (bytes): above
/// this, `order · n_places` no longer fits a sane working set and the
/// per-firing canonicalization fallback runs instead (state budgets rule
/// such shapes out anyway — this guard only prevents a large up-front
/// allocation before the budget can fire).
const ROT_BUFFER_CAP: usize = 1 << 26;

/// Row-by-row accumulator of the quotient BFS outputs: aggregated CSR
/// rows, enabled sets, the edge→transitions refill map, and the
/// per-target scratch (all reused across rows, nothing allocated per
/// firing).
struct QuotientBuilder {
    csr: CsrBuilder,
    enabled_ptr: Vec<u32>,
    enabled_idx: Vec<u32>,
    edge_ptr: Vec<u32>,
    edge_trans: Vec<u32>,
    /// Aggregated rate into each target orbit of the current row.
    acc: Vec<f64>,
    /// Targets of the current row, in first-hit order.
    hit: Vec<u32>,
    /// Contributing transitions per target of the current row (reused
    /// allocations, drained at each row end).
    tbucket: Vec<Vec<u32>>,
    enabled_in_row: usize,
}

impl QuotientBuilder {
    fn new(expected_states: usize, nt: usize) -> Self {
        QuotientBuilder {
            csr: CsrBuilder::with_capacity(expected_states, expected_states * nt / 2),
            enabled_ptr: vec![0],
            enabled_idx: Vec::new(),
            edge_ptr: vec![0],
            edge_trans: Vec::new(),
            acc: Vec::new(),
            hit: Vec::new(),
            tbucket: Vec::new(),
            enabled_in_row: 0,
        }
    }

    /// Record that `t` is enabled in the current representative (every
    /// enabled transition is recorded, including intra-orbit firings that
    /// emit no quotient edge).
    #[inline]
    fn note_enabled(&mut self, t: usize) {
        self.enabled_idx.push(t as u32);
        self.enabled_in_row += 1;
    }

    /// Aggregate one firing of `t` from the current row (state `s`) into
    /// orbit `target`.  Intra-orbit firings are dropped — they are the
    /// quotient's self-loops.
    #[inline]
    fn fire(&mut self, s: u32, target: u32, t: usize, rate: f64) {
        if target == s {
            return;
        }
        if self.acc.len() <= target as usize {
            self.acc.resize(target as usize + 1, 0.0);
            self.tbucket.resize_with(target as usize + 1, Vec::new);
        }
        if self.acc[target as usize] == 0.0 {
            self.hit.push(target);
        }
        self.acc[target as usize] += rate;
        self.tbucket[target as usize].push(t as u32);
    }

    /// Close the current row, emitting its aggregated edges in first-hit
    /// order; `Err(Deadlock)` when no transition was enabled.
    fn end_row(&mut self) -> Result<(), MarkingError> {
        if self.enabled_in_row == 0 {
            return Err(MarkingError::Deadlock);
        }
        self.enabled_in_row = 0;
        for i in 0..self.hit.len() {
            let c = self.hit[i] as usize;
            self.csr.push(c, self.acc[c]);
            self.acc[c] = 0.0;
            self.edge_trans.append(&mut self.tbucket[c]);
            self.edge_ptr.push(self.edge_trans.len() as u32);
        }
        self.hit.clear();
        self.csr.end_row();
        self.enabled_ptr.push(self.enabled_idx.len() as u32);
        Ok(())
    }

    fn finish(
        self,
        reps: MarkingStore,
        orbit_size: Vec<u32>,
        arena_stats: ArenaStats,
    ) -> QuotientGraph {
        QuotientGraph {
            reps,
            ctmc: self.csr.finish(),
            enabled_ptr: self.enabled_ptr,
            enabled_idx: self.enabled_idx,
            edge_ptr: self.edge_ptr,
            edge_trans: self.edge_trans,
            orbit_size,
            arena_stats,
        }
    }
}

impl QuotientGraph {
    /// Explore the reachable orbits of `net` under `sym` directly in the
    /// quotient.  `opts.max_states` bounds the **interned
    /// representatives** (the full chain is `Σ orbit sizes`, up to `m`
    /// times larger), so shapes whose full chain busts the budget can
    /// still be analysed.
    ///
    /// # Panics
    /// Panics unless `sym` is a rate-preserving automorphism of `net`
    /// ([`EventNet::symmetry_valid`]) — aggregated rates are only exact
    /// under that contract, so callers must gate on it (heterogeneous
    /// rate tables take the full-chain path instead).
    pub fn build(
        net: &EventNet,
        sym: &NetSymmetry,
        opts: MarkingOptions,
    ) -> Result<Self, MarkingError> {
        assert!(
            net.symmetry_valid(sym),
            "QuotientGraph::build needs a validated rate-preserving automorphism"
        );
        let canon = match MarkingCanonicalizer::new(&sym.place_perm) {
            Some(c) => c,
            None => unreachable!("symmetry_valid guarantees a permutation"),
        };
        // Same 31-bit id clamp as the plain BFS (the parallel staging
        // flags chunk-local keys in the top bit).
        let opts = MarkingOptions {
            max_states: opts.max_states.min(NEW_BIT as usize - 1),
            ..opts
        };
        let cap = opts.capacity.unwrap_or(1).max(1);
        if net.n_places() <= 8 && cap <= 255 {
            Self::build_packed(net, &canon, opts, cap as u8)
        } else if (canon.order() as usize).saturating_mul(net.n_places()) <= ROT_BUFFER_CAP {
            Self::build_arena_rowrot(net, sym, &canon, opts, i64::from(cap))
        } else {
            Self::build_arena(net, &canon, opts, i64::from(cap))
        }
    }

    /// Optimized generic path: one rotation buffer per **row** instead of
    /// a full canonicalization per **firing**.
    ///
    /// The m rotations `σᵃ(cur)` of the row's marking are materialized
    /// once; a successor's rotations then follow from the automorphism
    /// identity `σᵃ(cur − •t + t•) = σᵃ(cur) − •σᵃ(t) + σᵃ(t)•`, i.e. an
    /// `O(|•t| + |t•|)` delta per rotation (applied in place, undone after
    /// the firing) instead of an `O(n_places)` permutation — on the
    /// Theorem 2 chains that cuts the canonicalization work ~`n_places /
    /// (|•t|+|t•|)`-fold.  The lexicographic minimum over the rotations
    /// (the same representative [`MarkingCanonicalizer`] elects) is the
    /// interning key; the scan stops at the successor's period, which is
    /// also the orbit size.
    fn build_arena_rowrot(
        net: &EventNet,
        sym: &NetSymmetry,
        canon: &MarkingCanonicalizer,
        opts: MarkingOptions,
        cap: i64,
    ) -> Result<Self, MarkingError> {
        let width = net.n_places();
        let nt = net.n_transitions();
        let order = canon.order() as usize;
        let strict_safe = opts.capacity.is_none();

        // Powers of the transition permutation: `tp_pow[a·nt + t] = σᵃ(t)`.
        let mut tp_pow = vec![0u32; order * nt];
        for (t, slot) in tp_pow[..nt].iter_mut().enumerate() {
            *slot = t as u32;
        }
        for a in 1..order {
            for t in 0..nt {
                tp_pow[a * nt + t] = sym.trans_perm[tp_pow[(a - 1) * nt + t] as usize] as u32;
            }
        }

        // Seed: canonical key of the initial marking via the plain path.
        let mut scratch = CanonScratch::new(width);
        let init = net.initial_marking();
        assert_eq!(init.len(), width);
        let period = canon.canonicalize_into(&init, &mut scratch);
        let spill_limit = opts.resolved_spill_limit();
        let mut reps = MarkingArena::with_spill(width, opts.arena_compression, spill_limit);
        reps.push(&init);
        let mut keys = MarkingArena::with_spill(width, opts.arena_compression, spill_limit);
        keys.push(scratch.key());
        let mut orbit_size: Vec<u32> = vec![period];
        let mut interner = ShardedInterner::for_opts(&opts);
        let (id0, fresh) = interner.intern(&keys, scratch.key(), 0);
        debug_assert!(fresh && id0 == 0);

        let mut out = QuotientBuilder::new(1024, nt);
        let mut cur = vec![0u8; width];
        // `rot[a·width..][..width]` holds `σᵃ(cur)`, transiently mutated
        // to `σᵃ(succ)` around each firing.
        let mut rot = vec![0u8; order * width];
        let mut frontier = 0usize;
        let mut n_states = 1usize;
        let mut level_end = 0usize;
        let mut levels = 0usize;

        while frontier < n_states {
            if frontier >= level_end {
                if let Some(e) = keys.take_poison().or_else(|| reps.take_poison()) {
                    return Err(e);
                }
                opts.budget.check(Progress {
                    phase: Phase::QuotientBfs,
                    states: n_states,
                    levels,
                    iterations: 0,
                    arena_bytes: keys.bytes() + reps.bytes() + interner.table_bytes(),
                })?;
                levels += 1;
                level_end = n_states;
                keys.begin_level();
                reps.begin_level();
            }
            let threads = bfs_threads(
                opts.threads,
                n_states - frontier,
                opts.min_states_per_worker,
            );
            if threads > 1 {
                // Parallel level (module docs): each worker canonicalizes
                // its chunk with a private rotation buffer against the
                // frozen interner; the merge replays in chunk order.
                let hi = n_states;
                let chunk = (hi - frontier).div_ceil(threads);
                let stages: Vec<ChunkStage> = std::thread::scope(|scope| {
                    let (interner, keys, reps) = (&interner, &keys, &reps);
                    let tp_pow = tp_pow.as_slice();
                    let handles: Vec<_> = (frontier..hi)
                        .step_by(chunk)
                        .map(|lo| {
                            scope.spawn(move || {
                                Self::explore_rowrot_chunk(
                                    net,
                                    sym,
                                    tp_pow,
                                    strict_safe,
                                    cap,
                                    reps,
                                    keys,
                                    interner,
                                    width,
                                    lo..(lo + chunk).min(hi),
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| match h.join() {
                            Ok(stage) => stage,
                            Err(p) => std::panic::resume_unwind(p),
                        })
                        .collect()
                });
                let mut base = frontier as u32;
                for stage in &stages {
                    // Chunk-boundary checkpoint: bounds the coast past a
                    // deadline to one chunk's replay on parallel levels.
                    opts.budget.check(Progress {
                        phase: Phase::QuotientBfs,
                        states: n_states,
                        levels,
                        iterations: 0,
                        arena_bytes: keys.bytes() + reps.bytes() + interner.table_bytes(),
                    })?;
                    Self::merge_quotient_chunk(
                        net,
                        stage,
                        base,
                        &mut interner,
                        &mut keys,
                        &mut reps,
                        &mut orbit_size,
                        width,
                        &mut n_states,
                        opts.max_states,
                        &mut out,
                    )?;
                    base += stage.row_ends.len() as u32;
                }
                frontier = hi;
                continue;
            }

            let s = frontier as u32;
            frontier += 1;
            // Mid-level checkpoint (see the plain BFS): per-level cadence
            // alone cannot honor deadline-plus-grace on million-state
            // levels.
            if s & 0xfff == 0xfff {
                if let Some(e) = keys.take_poison().or_else(|| reps.take_poison()) {
                    return Err(e);
                }
                opts.budget.check(Progress {
                    phase: Phase::QuotientBfs,
                    states: n_states,
                    levels,
                    iterations: 0,
                    arena_bytes: keys.bytes() + reps.bytes() + interner.table_bytes(),
                })?;
            }
            reps.copy_to(s as usize, &mut cur);
            rot[..width].copy_from_slice(&cur);
            for a in 1..order {
                let (prev, rest) = rot.split_at_mut(a * width);
                let prev = &prev[(a - 1) * width..];
                let dst = &mut rest[..width];
                for (p, &img) in sym.place_perm.iter().enumerate() {
                    dst[img] = prev[p];
                }
            }

            'trans: for t in 0..nt {
                for &p in net.inputs(t) {
                    if cur[p] == 0 {
                        continue 'trans;
                    }
                }
                if !strict_safe {
                    for &p in net.outputs(t) {
                        let is_self = net.places[p].0 == net.places[p].1;
                        if !is_self && i64::from(cur[p]) >= cap {
                            continue 'trans;
                        }
                    }
                }
                out.note_enabled(t);
                // rot[a] := σᵃ(succ), by the per-rotation firing delta.
                for a in 0..order {
                    let ta = tp_pow[a * nt + t] as usize;
                    let base = a * width;
                    for &p in net.inputs(ta) {
                        rot[base + p] -= 1;
                    }
                    for &p in net.outputs(ta) {
                        rot[base + p] += 1;
                    }
                }
                if strict_safe {
                    for &p in net.outputs(t) {
                        if rot[p] > 1 {
                            return Err(MarkingError::NotSafe { place: p });
                        }
                    }
                }
                // Lexicographic minimum over the orbit; the scan stops at
                // the successor's period (later rotations repeat).
                let (best, period) = lex_min_rotation(&rot, width, order);
                let probe_range = best * width..(best + 1) * width;
                let (id, is_new) =
                    interner.intern(&keys, &rot[probe_range.clone()], n_states as u32);
                if is_new {
                    if n_states >= opts.max_states {
                        return Err(keys
                            .take_poison()
                            .or_else(|| reps.take_poison())
                            .unwrap_or(MarkingError::TooManyStates(opts.max_states)));
                    }
                    keys.push(&rot[probe_range]);
                    reps.push(&rot[..width]);
                    orbit_size.push(period);
                    n_states += 1;
                }
                out.fire(s, id, t, net.rates[t]);
                // Undo the delta: rot[a] is σᵃ(cur) again.
                for a in 0..order {
                    let ta = tp_pow[a * nt + t] as usize;
                    let base = a * width;
                    for &p in net.outputs(ta) {
                        rot[base + p] -= 1;
                    }
                    for &p in net.inputs(ta) {
                        rot[base + p] += 1;
                    }
                }
            }
            out.end_row().map_err(|e| {
                keys.take_poison()
                    .or_else(|| reps.take_poison())
                    .unwrap_or(e)
            })?;
        }

        if let Some(e) = keys.take_poison().or_else(|| reps.take_poison()) {
            return Err(e);
        }
        let arena_stats = ArenaStats {
            keys_bytes: keys.bytes(),
            reps_bytes: reps.bytes(),
            interner_bytes: interner.table_bytes(),
            spill_bytes: keys.spill_bytes() + reps.spill_bytes(),
            compressed: keys.is_compressed() || reps.is_compressed(),
        };
        Ok(out.finish(MarkingStore::from_arena(reps), orbit_size, arena_stats))
    }

    /// Worker of the parallel rotation-buffer quotient BFS: identical
    /// per-row math to the sequential scan — rotation materialization,
    /// per-rotation firing deltas, lexicographic-minimum election — with
    /// per-thread `rot` scratch, staging each enabled firing with its
    /// orbit target resolved against the level-frozen interner or
    /// deduplicated chunk-locally (key, representative and period
    /// recorded for the merge to intern).
    #[allow(clippy::too_many_arguments)]
    fn explore_rowrot_chunk(
        net: &EventNet,
        sym: &NetSymmetry,
        tp_pow: &[u32],
        strict_safe: bool,
        cap: i64,
        reps: &MarkingArena,
        keys: &MarkingArena,
        interner: &ShardedInterner,
        width: usize,
        states: std::ops::Range<usize>,
    ) -> ChunkStage {
        let nt = net.n_transitions();
        let order = tp_pow.len() / nt.max(1);
        let mut stage = ChunkStage::new(width);
        let mut local = OffsetInterner::with_capacity(64);
        let mut n_local = 0u32;
        let mut rot = vec![0u8; order * width];
        let mut curbuf = vec![0u8; width];
        for s in states {
            let cur = reps.read_at(s, &mut curbuf);
            rot[..width].copy_from_slice(cur);
            for a in 1..order {
                let (prev, rest) = rot.split_at_mut(a * width);
                let prev = &prev[(a - 1) * width..];
                let dst = &mut rest[..width];
                for (p, &img) in sym.place_perm.iter().enumerate() {
                    dst[img] = prev[p];
                }
            }

            'trans: for t in 0..nt {
                for &p in net.inputs(t) {
                    if cur[p] == 0 {
                        continue 'trans;
                    }
                }
                if !strict_safe {
                    for &p in net.outputs(t) {
                        let is_self = net.places[p].0 == net.places[p].1;
                        if !is_self && i64::from(cur[p]) >= cap {
                            continue 'trans;
                        }
                    }
                }
                for a in 0..order {
                    let ta = tp_pow[a * nt + t] as usize;
                    let base = a * width;
                    for &p in net.inputs(ta) {
                        rot[base + p] -= 1;
                    }
                    for &p in net.outputs(ta) {
                        rot[base + p] += 1;
                    }
                }
                if strict_safe {
                    for &p in net.outputs(t) {
                        if rot[p] > 1 {
                            stage.error = Some(MarkingError::NotSafe { place: p });
                            stage.row_ends.push(stage.firings.len() as u32);
                            return stage;
                        }
                    }
                }
                let (best, period) = lex_min_rotation(&rot, width, order);
                let probe = &rot[best * width..(best + 1) * width];
                let code = match interner.find(keys, probe) {
                    Some(id) => id,
                    None => {
                        let (li, fresh) = local.intern(&stage.new_keys, probe, n_local);
                        if fresh {
                            stage.new_keys.push(probe);
                            stage.new_reps.extend_from_slice(&rot[..width]);
                            stage.new_periods.push(period);
                            n_local += 1;
                        }
                        NEW_BIT | li
                    }
                };
                stage.firings.push((t as u32, code));
                for a in 0..order {
                    let ta = tp_pow[a * nt + t] as usize;
                    let base = a * width;
                    for &p in net.outputs(ta) {
                        rot[base + p] -= 1;
                    }
                    for &p in net.inputs(ta) {
                        rot[base + p] += 1;
                    }
                }
            }
            stage.row_ends.push(stage.firings.len() as u32);
        }
        stage
    }

    /// Merge one staged quotient chunk (rows of states `base..`) in chunk
    /// order: replay every enabled firing through the aggregating
    /// [`QuotientBuilder`] — the same first-hit edge order and `f64`
    /// addition sequence as the sequential scan — interning each
    /// chunk-local key (with its representative and orbit period) at
    /// first use, so new orbits receive exactly the sequential ids.
    #[allow(clippy::too_many_arguments)]
    fn merge_quotient_chunk(
        net: &EventNet,
        stage: &ChunkStage,
        base: u32,
        interner: &mut ShardedInterner,
        keys: &mut MarkingArena,
        reps: &mut MarkingArena,
        orbit_size: &mut Vec<u32>,
        width: usize,
        n_states: &mut usize,
        max_states: usize,
        out: &mut QuotientBuilder,
    ) -> Result<(), MarkingError> {
        let n_local = stage.new_periods.len();
        let mut local_ids = vec![EMPTY; n_local];
        let mut f = 0usize;
        for (row, &end) in stage.row_ends.iter().enumerate() {
            let s = base + row as u32;
            for &(t, code) in &stage.firings[f..end as usize] {
                let id = if code & NEW_BIT == 0 {
                    code
                } else {
                    let li = (code & !NEW_BIT) as usize;
                    if local_ids[li] == EMPTY {
                        let key = stage.new_keys.get(li);
                        let (id, is_new) = interner.intern(keys, key, *n_states as u32);
                        if is_new {
                            if *n_states >= max_states {
                                return Err(keys
                                    .take_poison()
                                    .or_else(|| reps.take_poison())
                                    .unwrap_or(MarkingError::TooManyStates(max_states)));
                            }
                            keys.push(key);
                            reps.push(&stage.new_reps[li * width..(li + 1) * width]);
                            orbit_size.push(stage.new_periods[li]);
                            *n_states += 1;
                        }
                        local_ids[li] = id;
                    }
                    local_ids[li]
                };
                out.note_enabled(t as usize);
                out.fire(s, id, t as usize, net.rates[t as usize]);
            }
            f = end as usize;
            if row + 1 == stage.row_ends.len() {
                if let Some(e) = &stage.error {
                    return Err(e.clone());
                }
            }
            out.end_row().map_err(|e| {
                keys.take_poison()
                    .or_else(|| reps.take_poison())
                    .unwrap_or(e)
            })?;
        }
        Ok(())
    }

    /// Generic fallback path (also the oracle the rotation-buffer path is
    /// tested against): byte markings in two arenas (canonical keys for
    /// the interner, first-discovered representatives for the rows), one
    /// full canonicalization per firing.  Used when the rotation buffer
    /// of [`Self::build_arena_rowrot`] would exceed [`ROT_BUFFER_CAP`].
    fn build_arena(
        net: &EventNet,
        canon: &MarkingCanonicalizer,
        opts: MarkingOptions,
        cap: i64,
    ) -> Result<Self, MarkingError> {
        let width = net.n_places();
        let nt = net.n_transitions();
        let strict_safe = opts.capacity.is_none();

        // Reused canonicalization scratch (one per BFS; parallel builds
        // would hold one per worker thread).
        let mut scratch = CanonScratch::new(width);

        let init = net.initial_marking();
        assert_eq!(init.len(), width);
        let period = canon.canonicalize_into(&init, &mut scratch);
        let spill_limit = opts.resolved_spill_limit();
        let mut reps = MarkingArena::with_spill(width, opts.arena_compression, spill_limit);
        reps.push(&init);
        let mut keys = MarkingArena::with_spill(width, opts.arena_compression, spill_limit);
        keys.push(scratch.key());
        let mut orbit_size: Vec<u32> = vec![period];
        let mut interner = ShardedInterner::for_opts(&opts);
        let (id0, fresh) = interner.intern(&keys, scratch.key(), 0);
        debug_assert!(fresh && id0 == 0);

        let mut out = QuotientBuilder::new(1024, nt);
        let mut cur = vec![0u8; width];
        let mut succ = vec![0u8; width];
        let mut frontier = 0usize;
        let mut n_states = 1usize;
        let mut level_end = 0usize;
        let mut levels = 0usize;

        while frontier < n_states {
            if frontier >= level_end {
                if let Some(e) = keys.take_poison().or_else(|| reps.take_poison()) {
                    return Err(e);
                }
                opts.budget.check(Progress {
                    phase: Phase::QuotientBfs,
                    states: n_states,
                    levels,
                    iterations: 0,
                    arena_bytes: keys.bytes() + reps.bytes() + interner.table_bytes(),
                })?;
                levels += 1;
                level_end = n_states;
                keys.begin_level();
                reps.begin_level();
            }
            let s = frontier as u32;
            frontier += 1;
            // Mid-level checkpoint (see the plain BFS).
            if s & 0xfff == 0xfff {
                if let Some(e) = keys.take_poison().or_else(|| reps.take_poison()) {
                    return Err(e);
                }
                opts.budget.check(Progress {
                    phase: Phase::QuotientBfs,
                    states: n_states,
                    levels,
                    iterations: 0,
                    arena_bytes: keys.bytes() + reps.bytes() + interner.table_bytes(),
                })?;
            }
            reps.copy_to(s as usize, &mut cur);

            'trans: for t in 0..nt {
                for &p in net.inputs(t) {
                    if cur[p] == 0 {
                        continue 'trans;
                    }
                }
                if !strict_safe {
                    for &p in net.outputs(t) {
                        let is_self = net.places[p].0 == net.places[p].1;
                        if !is_self && i64::from(cur[p]) >= cap {
                            continue 'trans;
                        }
                    }
                }
                out.note_enabled(t);
                succ.copy_from_slice(&cur);
                for &p in net.inputs(t) {
                    succ[p] -= 1;
                }
                for &p in net.outputs(t) {
                    succ[p] += 1;
                    if strict_safe && succ[p] > 1 {
                        return Err(MarkingError::NotSafe { place: p });
                    }
                }
                let period = canon.canonicalize_into(&succ, &mut scratch);
                let (id, is_new) = interner.intern(&keys, scratch.key(), n_states as u32);
                if is_new {
                    if n_states >= opts.max_states {
                        return Err(keys
                            .take_poison()
                            .or_else(|| reps.take_poison())
                            .unwrap_or(MarkingError::TooManyStates(opts.max_states)));
                    }
                    keys.push(scratch.key());
                    reps.push(&succ);
                    orbit_size.push(period);
                    n_states += 1;
                }
                out.fire(s, id, t, net.rates[t]);
            }
            out.end_row().map_err(|e| {
                keys.take_poison()
                    .or_else(|| reps.take_poison())
                    .unwrap_or(e)
            })?;
        }

        if let Some(e) = keys.take_poison().or_else(|| reps.take_poison()) {
            return Err(e);
        }
        let arena_stats = ArenaStats {
            keys_bytes: keys.bytes(),
            reps_bytes: reps.bytes(),
            interner_bytes: interner.table_bytes(),
            spill_bytes: keys.spill_bytes() + reps.spill_bytes(),
            compressed: keys.is_compressed() || reps.is_compressed(),
        };
        Ok(out.finish(MarkingStore::from_arena(reps), orbit_size, arena_stats))
    }

    /// Packed path for ≤ 8 places: representatives and canonical keys are
    /// single `u64` words.
    fn build_packed(
        net: &EventNet,
        canon: &MarkingCanonicalizer,
        opts: MarkingOptions,
        cap: u8,
    ) -> Result<Self, MarkingError> {
        let width = net.n_places();
        let nt = net.n_transitions();
        let strict_safe = opts.capacity.is_none();
        let packed = PackedNet::build(net);

        let init = pack(&net.initial_marking());
        let (key0, period0) = canon.canonicalize_packed(init);
        let mut reps: Vec<u64> = vec![init];
        let mut orbit_size: Vec<u32> = vec![period0];
        let mut index: FxHashMap<u64, u32> = FxHashMap::default();
        index.insert(key0, 0);

        let mut out = QuotientBuilder::new(1024, nt);
        let mut frontier = 0usize;

        while frontier < reps.len() {
            // No level structure on the packed path: strided checks, as
            // in the plain packed BFS.
            if frontier & 0xfff == 0 {
                opts.budget.check(Progress {
                    phase: Phase::QuotientBfs,
                    states: reps.len(),
                    levels: 0,
                    iterations: frontier,
                    arena_bytes: reps.len() * std::mem::size_of::<u64>(),
                })?;
            }
            let s = frontier as u32;
            let cur = reps[frontier];
            frontier += 1;

            'trans: for t in 0..nt {
                if !packed.enabled(t, cur) {
                    continue;
                }
                if !strict_safe {
                    for &p in net.outputs(t) {
                        let is_self = net.places[p].0 == net.places[p].1;
                        if !is_self && byte(cur, p) >= cap {
                            continue 'trans;
                        }
                    }
                }
                out.note_enabled(t);
                let next = packed.fire(t, cur);
                if strict_safe {
                    for &p in net.outputs(t) {
                        if byte(next, p) > 1 {
                            return Err(MarkingError::NotSafe { place: p });
                        }
                    }
                }
                let (key, period) = canon.canonicalize_packed(next);
                let id = match index.get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = reps.len() as u32;
                        if id as usize >= opts.max_states {
                            return Err(MarkingError::TooManyStates(opts.max_states));
                        }
                        reps.push(next);
                        orbit_size.push(period);
                        index.insert(key, id);
                        id
                    }
                };
                out.fire(s, id, t, net.rates[t]);
            }
            out.end_row()?;
        }

        let mut data = Vec::with_capacity(reps.len() * width);
        for &w in &reps {
            data.extend_from_slice(&w.to_le_bytes()[..width]);
        }
        let arena_stats = ArenaStats {
            keys_bytes: 0,
            reps_bytes: reps.len() * std::mem::size_of::<u64>(),
            interner_bytes: index.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>()),
            spill_bytes: 0,
            compressed: false,
        };
        Ok(out.finish(
            MarkingStore::from_flat(width, data),
            orbit_size,
            arena_stats,
        ))
    }

    /// Number of orbits (quotient states).
    pub fn n_states(&self) -> usize {
        self.ctmc.n_states()
    }

    /// Number of full-chain states represented: `Σ orbit sizes`.  Equals
    /// the full reachable count whenever the automorphism maps the
    /// reachable set onto itself (always the case when the full-chain
    /// [`MarkingGraph::orbit_partition`] accepts the same hint).
    pub fn full_states(&self) -> usize {
        self.orbit_size.iter().map(|&k| k as usize).sum()
    }

    /// Orbit size of every quotient state.
    pub fn orbit_sizes(&self) -> &[u32] {
        &self.orbit_size
    }

    /// Byte accounting of the build's marking storage (the peak — arenas
    /// and interner only grow during the BFS).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena_stats
    }

    /// Transitions fireable in the representative of orbit `s`
    /// (ascending).
    pub fn enabled(&self, s: usize) -> &[u32] {
        &self.enabled_idx[self.enabled_ptr[s] as usize..self.enabled_ptr[s + 1] as usize]
    }

    /// The uniform lift of this quotient: block sizes only (per-block
    /// member probability `π̂(B)/|B|`), no full-state map — see
    /// [`Lift::from_block_sizes`].
    pub fn lift(&self) -> Lift {
        Lift::from_block_sizes(self.orbit_size.clone())
    }

    /// The quotient re-rated from per-transition rates: edge `e` gets
    /// `Σ trans_rates[t]` over its contributing transitions, summed in
    /// the order the BFS aggregated them — bitwise identical to building
    /// the quotient of a net with those rates (which must themselves be
    /// orbit-invariant, the caller's gate), at `O(nnz)`.
    ///
    /// # Panics
    /// Panics if `trans_rates` is shorter than the net's transition count
    /// or a summed edge rate is non-positive.
    pub fn ctmc_with_trans_rates(&self, trans_rates: &[f64]) -> Ctmc {
        let mut chain = self.ctmc.bare();
        self.refill_trans_rates(&mut chain, trans_rates);
        chain
    }

    /// [`QuotientGraph::ctmc_with_trans_rates`] into the buffers of
    /// `chain`, a chain re-rated earlier from this quotient: the same
    /// bits, with no allocation.
    ///
    /// # Panics
    /// Panics if `chain` does not share this quotient's chain structure,
    /// or as [`QuotientGraph::ctmc_with_trans_rates`].
    pub fn refill_trans_rates(&self, chain: &mut Ctmc, trans_rates: &[f64]) {
        assert!(
            chain.shares_structure(&self.ctmc),
            "chain was not re-rated from this quotient"
        );
        chain.refill(self.edge_rates(trans_rates));
    }

    /// Edge rates, in CSR edge order, of the quotient re-rated from
    /// per-transition rates: each edge sums its contributing transitions
    /// in the order the BFS aggregated them.
    fn edge_rates<'a>(&'a self, trans_rates: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        self.edge_ptr.windows(2).map(|w| {
            self.edge_trans[w[0] as usize..w[1] as usize]
                .iter()
                .map(|&t| trans_rates[t as usize])
                .sum()
        })
    }

    /// Orbit-aggregated stationary firing rates:
    /// `rate(t) = Σ_B π̂(B) λ_t [t enabled in rep(B)]`.  Entry `t` is
    /// **not** the full chain's per-transition rate (mass concentrates on
    /// the representatives' transitions), but the sum over any
    /// automorphism-closed transition set — a whole TPN column, the
    /// last-column throughput set — equals the full chain's sum exactly.
    pub fn firing_rates_with(&self, trans_rates: &[f64], pi: &[f64]) -> Vec<f64> {
        assert_eq!(pi.len(), self.n_states());
        let mut rates = vec![0.0f64; trans_rates.len()];
        for (s, &p) in pi.iter().enumerate() {
            for &t in self.enabled(s) {
                rates[t as usize] += p * trans_rates[t as usize];
            }
        }
        rates
    }

    /// Stationary distribution of the quotient, then the summed firing
    /// rate of an automorphism-closed transition set (e.g. the TPN's last
    /// column → system throughput).
    pub fn throughput_of(&self, net: &EventNet, transitions: &[usize]) -> f64 {
        self.throughput_with(&self.ctmc, &net.rates, transitions)
    }

    /// As [`QuotientGraph::throughput_of`] for a re-rated chain sharing
    /// this graph's structure (same op order as the owned-chain path, so
    /// refilled and cold solves agree bit for bit).
    pub fn throughput_with(&self, ctmc: &Ctmc, trans_rates: &[f64], transitions: &[usize]) -> f64 {
        self.throughput_solve(ctmc, trans_rates, transitions, SolverChoice::Auto)
            .0
    }

    /// As [`QuotientGraph::throughput_with`], solving the chain with an
    /// explicit [`SolverChoice`] and returning the [`SolveReport`] (which
    /// solver ran, its residual and iteration count) alongside the
    /// throughput.  [`SolverChoice::Auto`] reproduces
    /// [`QuotientGraph::throughput_with`] bit for bit.
    pub fn throughput_solve(
        &self,
        ctmc: &Ctmc,
        trans_rates: &[f64],
        transitions: &[usize],
        choice: SolverChoice,
    ) -> (f64, SolveReport) {
        let report = ctmc.stationary_solve(choice);
        let rates = self.firing_rates_with(trans_rates, &report.pi);
        (transitions.iter().map(|&t| rates[t]).sum(), report)
    }

    /// [`QuotientGraph::throughput_solve`] under a cooperative [`Budget`]:
    /// the stationary solve checks the budget at its checkpoints and
    /// surfaces an overrun as an [`Interrupt`].  Bitwise identical to the
    /// ungoverned path when no limit fires.
    pub fn throughput_solve_governed(
        &self,
        ctmc: &Ctmc,
        trans_rates: &[f64],
        transitions: &[usize],
        choice: SolverChoice,
        budget: &Budget,
    ) -> Result<(f64, SolveReport), Interrupt> {
        let report = ctmc.stationary_solve_governed(choice, budget)?;
        let rates = self.firing_rates_with(trans_rates, &report.pi);
        Ok((transitions.iter().map(|&t| rates[t]).sum(), report))
    }
}

/// Pack a byte marking into a little-endian `u64` word.
fn pack(marking: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..marking.len()].copy_from_slice(marking);
    u64::from_le_bytes(buf)
}

/// Byte `p` of a packed marking.
#[inline]
fn byte(word: u64, p: usize) -> u8 {
    (word >> (8 * p)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::comm_pattern;

    #[test]
    fn single_transition_self_loop() {
        // One transition with a marked self-loop: a Poisson clock.
        let net = EventNet::new(vec![2.0], vec![(0, 0, 1)]);
        let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
        assert_eq!(mg.n_states(), 1);
        let rates = mg.firing_rates(&net, &[1.0]);
        assert!((rates[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_transition_cycle() {
        // A ⇄ B with one token: alternating firings; each fires at rate
        // 1/(1/λa + 1/λb).
        let net = EventNet::new(vec![2.0, 3.0], vec![(0, 1, 1), (1, 0, 0)]);
        let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
        assert_eq!(mg.n_states(), 2);
        let pi = mg.ctmc.stationary();
        let rates = mg.firing_rates(&net, &pi);
        let expect = 1.0 / (1.0 / 2.0 + 1.0 / 3.0);
        assert!((rates[0] - expect).abs() < 1e-10, "{rates:?}");
        assert!((rates[1] - expect).abs() < 1e-10);
    }

    #[test]
    fn pattern_1x1_is_poisson() {
        let net = comm_pattern(1, 1, |_, _| 5.0);
        let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
        assert_eq!(mg.n_states(), 1);
        assert!((mg.throughput_of(&net, &[0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn unsafe_net_detected() {
        // Producer feeding a place with no consumer constraint forming
        // accumulation: t0 self-loop marked + place t0→t1, t1 needs also a
        // token that never comes back… simplest: t0 (free-running) feeds
        // t1 which is throttled by a slow self-loop — the middle place
        // accumulates.
        let net = EventNet::new(vec![1.0, 1.0], vec![(0, 0, 1), (0, 1, 0), (1, 1, 1)]);
        let err = MarkingGraph::build(&net, MarkingOptions::default()).unwrap_err();
        assert!(matches!(err, MarkingError::NotSafe { .. }), "{err}");
        // With a capacity it converges.
        let mg = MarkingGraph::build(
            &net,
            MarkingOptions {
                capacity: Some(4),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(mg.n_states() > 2);
        // Throughput of the sink transition is throttled by both clocks.
        let rho = mg.throughput_of(&net, &[1]);
        assert!(rho < 1.0 && rho > 0.4, "rho {rho}");
    }

    #[test]
    fn capacity_increases_throughput_monotonically() {
        let net = EventNet::new(vec![1.0, 1.0], vec![(0, 0, 1), (0, 1, 0), (1, 1, 1)]);
        let mut last = 0.0;
        for cap in [1, 2, 4, 8, 16] {
            let mg = MarkingGraph::build(
                &net,
                MarkingOptions {
                    capacity: Some(cap),
                    ..Default::default()
                },
            )
            .unwrap();
            let rho = mg.throughput_of(&net, &[1]);
            assert!(rho >= last - 1e-12, "cap {cap}: {rho} < {last}");
            last = rho;
        }
        // Tandem of two rate-1 exponential servers with infinite buffer
        // saturates at 1; with cap 16 we should be close.
        assert!(last > 0.8, "cap-16 throughput {last}");
    }

    #[test]
    fn state_budget_enforced() {
        let net = comm_pattern(4, 5, |_, _| 1.0);
        let err = MarkingGraph::build(
            &net,
            MarkingOptions {
                max_states: 10,
                capacity: None,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, MarkingError::TooManyStates(10)));
    }

    /// The packed-u64 and arena paths must build identical graphs.
    #[test]
    fn packed_and_arena_paths_agree() {
        // 3 places, so `build` dispatches to the packed path; the arena
        // path is forced on the *same* net by calling `build_arena`
        // directly, and every artifact of the two graphs must match.
        let net = EventNet::new(vec![1.0, 2.0], vec![(0, 0, 1), (0, 1, 0), (1, 1, 1)]);
        for cap in [1u32, 3, 7] {
            let opts = MarkingOptions {
                max_states: 1 << 16,
                capacity: Some(cap),
                ..Default::default()
            };
            let fast = MarkingGraph::build(&net, opts).unwrap();
            // Force the arena path on the *same* net.
            let slow = MarkingGraph::build_arena(&net, opts, i64::from(cap)).unwrap();
            assert_eq!(fast.n_states(), slow.n_states(), "cap {cap}");
            assert_eq!(fast.ctmc.nnz(), slow.ctmc.nnz(), "cap {cap}");
            for s in 0..fast.n_states() {
                assert_eq!(
                    fast.states.get(s),
                    slow.states.get(s),
                    "cap {cap} state {s}"
                );
                assert_eq!(fast.enabled(s), slow.enabled(s), "cap {cap} state {s}");
                assert_eq!(
                    fast.ctmc.row_targets(s),
                    slow.ctmc.row_targets(s),
                    "cap {cap} state {s}"
                );
            }
            let a = fast.throughput_of(&net, &[1]);
            let b = slow.throughput_of(&net, &[1]);
            assert!((a - b).abs() < 1e-12, "cap {cap}: {a} vs {b}");
        }
    }

    /// The three quotient build paths (packed, rotation-buffer arena,
    /// per-firing arena) must elect identical graphs: same
    /// representatives, same orbit sizes, same aggregated chain, same
    /// enabled sets and refill maps.
    #[test]
    fn quotient_paths_agree() {
        use crate::net::comm_pattern;
        use repstream_petri::canon::MarkingCanonicalizer;

        // The uniform u×v pattern net carries a row-shift automorphism
        // (transition k ↦ k+1 mod n maps both one-port cycle families
        // onto themselves); 1×4 has 8 places, so `build` dispatches to
        // the packed path while the arena paths are forced directly.
        let (u, v) = (1usize, 4);
        let n = u * v;
        let net = comm_pattern(u, v, |_, _| 1.5);
        let trans_perm: Vec<usize> = (0..n).map(|k| (k + 1) % n).collect();
        // Places: sender cycle k → k+u at index k, receiver cycle k → k+v
        // at index n+k; the shift maps place k ↦ k+1 within each family.
        let place_perm: Vec<usize> = (0..2 * n)
            .map(|p| {
                if p < n {
                    (p + 1) % n
                } else {
                    n + (p + 1 - n) % n
                }
            })
            .collect();
        let sym = NetSymmetry {
            trans_perm,
            place_perm,
        };
        assert!(net.symmetry_valid(&sym));
        let canon = MarkingCanonicalizer::new(&sym.place_perm).unwrap();
        let opts = MarkingOptions::default();

        let packed = QuotientGraph::build(&net, &sym, opts).unwrap();
        let rowrot = QuotientGraph::build_arena_rowrot(&net, &sym, &canon, opts, 1).unwrap();
        let perfiring = QuotientGraph::build_arena(&net, &canon, opts, 1).unwrap();

        for (label, other) in [("rowrot", &rowrot), ("perfiring", &perfiring)] {
            assert_eq!(packed.n_states(), other.n_states(), "{label}");
            assert_eq!(packed.ctmc.nnz(), other.ctmc.nnz(), "{label}");
            assert_eq!(packed.orbit_sizes(), other.orbit_sizes(), "{label}");
            assert_eq!(packed.edge_ptr, other.edge_ptr, "{label}");
            assert_eq!(packed.edge_trans, other.edge_trans, "{label}");
            for s in 0..packed.n_states() {
                assert_eq!(packed.reps.get(s), other.reps.get(s), "{label} rep {s}");
                assert_eq!(packed.enabled(s), other.enabled(s), "{label} state {s}");
                assert_eq!(
                    packed.ctmc.row_targets(s),
                    other.ctmc.row_targets(s),
                    "{label} state {s}"
                );
                for (a, b) in packed.ctmc.row_rates(s).iter().zip(other.ctmc.row_rates(s)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{label} state {s}");
                }
            }
        }
        // The quotient preserves the Theorem 4 closed form u·v·λ/(u+v−1).
        let all: Vec<usize> = (0..n).collect();
        let rho = packed.throughput_of(&net, &all);
        let expect = (u * v) as f64 * 1.5 / (u + v - 1) as f64;
        assert!((rho - expect).abs() < 1e-12, "rho {rho} vs {expect}");
    }

    /// Delta-arena roundtrip: every pushed marking reads back exactly,
    /// `matches` agrees with equality, and the Auto conversion mid-build
    /// changes nothing a reader can observe.
    #[test]
    fn marking_arena_roundtrip() {
        let width = 24usize;
        // Deterministic pseudo-random markings with level structure.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut markings: Vec<Vec<u8>> = Vec::new();
        let mut level_starts = vec![0usize];
        let mut base = vec![0u8; width];
        for level in 0..6 {
            for (p, b) in base.iter_mut().enumerate() {
                *b = ((level * 7 + p) % 3) as u8;
            }
            let n = 1 + (step() % 40) as usize;
            for _ in 0..n {
                let mut m = base.clone();
                // A few random place edits — the within-level delta.
                for _ in 0..(step() % 5) {
                    let p = (step() as usize) % width;
                    m[p] = (step() % 4) as u8;
                }
                if !markings.contains(&m) {
                    markings.push(m);
                }
            }
            level_starts.push(markings.len());
        }

        for compression in [
            ArenaCompression::Off,
            ArenaCompression::On,
            ArenaCompression::Auto,
        ] {
            let mut arena = MarkingArena::new(width, compression);
            // Force the Auto conversion mid-build by shrinking the
            // threshold below the total payload.
            if compression == ArenaCompression::Auto {
                arena.threshold = markings.len() * width / 2;
            }
            let mut next_level = 0usize;
            for (s, m) in markings.iter().enumerate() {
                if level_starts[next_level] == s {
                    arena.begin_level();
                    next_level += 1;
                }
                arena.push(m);
            }
            assert_eq!(arena.len(), markings.len());
            assert_eq!(
                arena.is_compressed(),
                compression != ArenaCompression::Off,
                "{compression:?}"
            );
            let mut buf = vec![0u8; width];
            for (s, m) in markings.iter().enumerate() {
                arena.copy_to(s, &mut buf);
                assert_eq!(&buf, m, "{compression:?} state {s}");
                assert_eq!(arena.read_at(s, &mut buf), &m[..]);
                assert!(arena.matches(s, m), "{compression:?} state {s}");
                // A probe differing in one byte must not match.
                let mut probe = m.clone();
                probe[s % width] ^= 0x40;
                assert!(!arena.matches(s, &probe), "{compression:?} state {s}");
                let mut scratch = Vec::new();
                assert_eq!(arena.hash_entry(s, &mut scratch), hash_marking(m));
            }
        }
    }

    /// Spilled-arena roundtrip: with the resident bound forced tiny,
    /// every pushed marking still reads back exactly, `matches` agrees
    /// with equality, hashes are unchanged, and the payload really does
    /// land in the spill file — in every compression mode, including an
    /// Auto conversion that has to read its flat payload back from disk.
    #[test]
    fn spilled_arena_roundtrip() {
        let width = 24usize;
        let mut x = 0x2545f4914f6cdd1du64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut markings: Vec<Vec<u8>> = Vec::new();
        let mut level_starts = vec![0usize];
        let mut base = vec![0u8; width];
        for level in 0..6 {
            for (p, b) in base.iter_mut().enumerate() {
                *b = ((level * 5 + p) % 3) as u8;
            }
            let n = 1 + (step() % 40) as usize;
            for _ in 0..n {
                let mut m = base.clone();
                for _ in 0..(step() % 5) {
                    let p = (step() as usize) % width;
                    m[p] = (step() % 4) as u8;
                }
                if !markings.contains(&m) {
                    markings.push(m);
                }
            }
            level_starts.push(markings.len());
        }

        for compression in [
            ArenaCompression::Off,
            ArenaCompression::On,
            ArenaCompression::Auto,
        ] {
            // A ~3-marking resident bound forces many flush cycles, and
            // entries straddle the file/memory boundary mid-marking.
            let mut arena = MarkingArena::with_spill(width, compression, width * 3 + 1);
            if compression == ArenaCompression::Auto {
                arena.threshold = markings.len() * width / 2;
            }
            let mut next_level = 0usize;
            for (s, m) in markings.iter().enumerate() {
                if level_starts[next_level] == s {
                    arena.begin_level();
                    next_level += 1;
                }
                arena.push(m);
            }
            assert_eq!(arena.len(), markings.len());
            assert!(arena.spill_bytes() > 0, "{compression:?} never spilled");
            let mut buf = vec![0u8; width];
            for (s, m) in markings.iter().enumerate() {
                arena.copy_to(s, &mut buf);
                assert_eq!(&buf, m, "{compression:?} state {s}");
                assert_eq!(arena.read_at(s, &mut buf), &m[..]);
                assert!(arena.matches(s, m), "{compression:?} state {s}");
                let mut probe = m.clone();
                probe[s % width] ^= 0x40;
                assert!(!arena.matches(s, &probe), "{compression:?} state {s}");
                let mut scratch = Vec::new();
                assert_eq!(arena.hash_entry(s, &mut scratch), hash_marking(m));
            }
        }
    }

    /// Chain-bit equality of the interning decisions across table
    /// layouts: the budget-presized sharded interner and the legacy
    /// fixed-1024-slot doubling table must return the identical
    /// `(id, is_new)` sequence for the same probe sequence — the id
    /// assignment is the caller's scan order, never the table's.
    #[test]
    fn sharded_interner_matches_legacy_growth_path() {
        let net = comm_pattern(3, 4, |i, j| 1.0 + (i + 3 * j) as f64);
        let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
        let width = mg.states.width();

        // Replay every stored marking (plus every marking again, to get
        // hit-paths) against three interner layouts over one arena.
        let mut arena = MarkingArena::new(width, ArenaCompression::Off);
        // Legacy: single shard, no budget jump (plain doubling from the
        // historical 2048-slot start).
        let mut legacy = OffsetInterner::with_capacity(1024);
        let mut sharded = ShardedInterner::new(16, mg.n_states());
        let mut single = ShardedInterner::new(1, 1 << 20);
        let mut n = 0u32;
        let mut probe = Vec::new();
        for pass in 0..2 {
            for s in 0..mg.n_states() {
                probe.clear();
                probe.extend_from_slice(mg.states.get(s));
                let h = hash_marking(&probe);
                let a = legacy.intern_hashed(&arena, h, &probe, n, 0);
                let b = sharded.intern(&arena, &probe, n);
                let c = single.intern(&arena, &probe, n);
                assert_eq!(a, b, "pass {pass} state {s}");
                assert_eq!(a, c, "pass {pass} state {s}");
                if a.1 {
                    arena.push(&probe);
                    n += 1;
                }
            }
        }
        assert_eq!(n as usize, mg.n_states());
    }

    /// A sharded + spilled + compressed build must be bitwise identical
    /// to the default build: the same states, chain bits and enabled
    /// sets — only the storage accounting differs.
    #[test]
    fn spilled_sharded_build_is_bitwise_identical() {
        let net = comm_pattern(2, 3, |i, j| 1.0 + (i + 2 * j) as f64);
        let reference = MarkingGraph::build_arena(
            &net,
            MarkingOptions {
                interner_shards: 1,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let spilled = MarkingGraph::build_arena(
            &net,
            MarkingOptions {
                arena_compression: ArenaCompression::On,
                interner_shards: 16,
                interner_spill: true,
                spill_limit: 64,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        assert!(spilled.arena_stats().spill_bytes > 0, "never spilled");
        assert_eq!(reference.n_states(), spilled.n_states());
        assert_eq!(reference.ctmc.nnz(), spilled.ctmc.nnz());
        let mut buf = Vec::new();
        for s in 0..reference.n_states() {
            assert_eq!(
                reference.states.get(s),
                spilled.states.read_into(s, &mut buf)
            );
            assert_eq!(reference.enabled(s), spilled.enabled(s));
            assert_eq!(reference.ctmc.row_targets(s), spilled.ctmc.row_targets(s));
            for (a, b) in reference
                .ctmc
                .row_rates(s)
                .iter()
                .zip(spilled.ctmc.row_rates(s))
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// A forced-compressed plain build must be bitwise identical to the
    /// flat build: same states, chain, enabled sets — only the storage
    /// accounting differs.
    #[test]
    fn compressed_plain_build_is_bitwise_identical() {
        let net = comm_pattern(2, 3, |i, j| 1.0 + (i + 2 * j) as f64);
        let flat = MarkingGraph::build_arena(
            &net,
            MarkingOptions {
                arena_compression: ArenaCompression::Off,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let packed = MarkingGraph::build_arena(
            &net,
            MarkingOptions {
                arena_compression: ArenaCompression::On,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        assert!(!flat.states.is_compressed());
        assert!(packed.states.is_compressed());
        assert!(packed.arena_stats().compressed);
        assert_eq!(flat.n_states(), packed.n_states());
        assert_eq!(flat.ctmc.nnz(), packed.ctmc.nnz());
        let mut buf = Vec::new();
        for s in 0..flat.n_states() {
            assert_eq!(flat.states.get(s), packed.states.read_into(s, &mut buf));
            assert_eq!(flat.enabled(s), packed.enabled(s));
            assert_eq!(flat.ctmc.row_targets(s), packed.ctmc.row_targets(s));
            for (a, b) in flat.ctmc.row_rates(s).iter().zip(packed.ctmc.row_rates(s)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Safe pattern nets route through the arena path (> 8 places) and
    /// must reproduce the Theorem 3 state count.
    #[test]
    fn arena_pattern_states_match_closed_form() {
        let net = comm_pattern(2, 3, |_, _| 1.0);
        let mg = MarkingGraph::build(&net, MarkingOptions::default()).unwrap();
        assert_eq!(mg.n_states(), 12); // S(2,3) = C(4,1)·3
        assert_eq!(mg.states.width(), net.n_places());
        // Every stored marking is 0/1 (safe net).
        for m in mg.states.iter() {
            assert!(m.iter().all(|&b| b <= 1));
        }
    }
}
