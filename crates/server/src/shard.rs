//! The sharded in-process serving core.
//!
//! A [`ShardedStore`] statically partitions the logical word address
//! space across N independent [`EnvyStore`] instances, shared-nothing,
//! modeling §6's multiple-controller organization. A shard is a
//! **passive object** — one lock around its store and a count of the
//! threads waiting for it — and owns no thread: every request runs to
//! completion on the thread that submits it, one at a time per shard,
//! as each of the paper's controllers serves one host access at a time.
//! Clients talk to the shards through a cheap, cloneable
//! [`ShardHandle`]:
//!
//! * **Run to completion**: a submitter that finds the shard idle takes
//!   its lock, executes the request and posts the completion before
//!   `submit` returns — no queue hop, no sleep, no wake.
//! * **Bounded admission**: a submitter that finds the lock taken waits
//!   for it, unless `queue_capacity` requests are already waiting; then
//!   it is refused at once with [`Busy`] carrying a `retry_after` hint.
//! * **Typed completions**: every admitted request produces exactly one
//!   [`Response`] on the completion channel supplied at submit time,
//!   posted while the shard is still held — so completions leave a
//!   shard in execution order on every channel.
//! * **Deadlines**: a request whose deadline passed while it waited for
//!   the lock completes with [`ServeError::DeadlineExceeded`] instead of
//!   executing.
//!
//! Within a shard, requests execute in the order they take its lock, on
//! the shard's own simulated clock (`now = store.now()`, back-to-back),
//! so a shard's simulated-time metrics depend only on the request
//! subsequence it received — the determinism anchor the differential
//! tests pin.

use envy_core::{EnvyConfig, EnvyError, EnvyStats, EnvyStore, TraceEvent, TxnMemory};
use envy_sim::time::Ns;
use std::fmt;
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// Fallback per-request service estimate before the first measurement.
const EST_INIT_NS: u64 = 2_000;
/// Bounds on the [`Busy::retry_after`] hint.
const RETRY_MIN: Duration = Duration::from_micros(1);
const RETRY_MAX: Duration = Duration::from_millis(100);
/// Two wall-clock reads cost as much as a small request, so a shard
/// takes them (for the service estimate behind the
/// [`Busy::retry_after`] hint) on one run in this many.
const CLOCK_EVERY: u64 = 16;

// ---------------------------------------------------------------------
// Requests, replies, errors
// ---------------------------------------------------------------------

/// One serving request against the global sharded address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read `len` bytes at global address `addr`.
    Read {
        /// Global byte address.
        addr: u64,
        /// Bytes to read.
        len: u32,
    },
    /// Write bytes at global address `addr`.
    Write {
        /// Global byte address.
        addr: u64,
        /// Payload.
        bytes: Vec<u8>,
    },
    /// Drain the target shard's write buffer to Flash. Routed by `shard`
    /// (a flush is per-controller, not per-address).
    Flush {
        /// Shard to flush.
        shard: u32,
    },
    /// Liveness probe; completes without touching the store.
    Ping {
        /// Shard to bounce the probe off.
        shard: u32,
    },
    /// Open a transaction on one shard. Up to the configured number of
    /// transaction slots may be open concurrently per controller
    /// (default 1, the paper's §6 single hardware transaction), each
    /// isolated by its per-page write set. Replies
    /// [`Reply::TxnStarted`] with the id every subsequent transactional
    /// request must carry.
    TxnBegin {
        /// Shard to open the transaction on.
        shard: u32,
    },
    /// Write bytes at global address `addr` under the open transaction
    /// `txn`. Routed by address like [`Request::Write`]; the target
    /// shard must be the one that started `txn`, or the request fails
    /// with [`ServeError::NoSuchTxn`].
    TxnWrite {
        /// Global byte address.
        addr: u64,
        /// Payload.
        bytes: Vec<u8>,
        /// The transaction id from [`Reply::TxnStarted`].
        txn: u64,
    },
    /// Commit the open transaction: all of its writes become durable
    /// atomically (see `docs/TRANSACTIONS.md`).
    TxnCommit {
        /// Shard that owns the transaction.
        shard: u32,
        /// The transaction id.
        txn: u64,
    },
    /// Abort the open transaction: every page it touched reverts to its
    /// pre-transaction image.
    TxnAbort {
        /// Shard that owns the transaction.
        shard: u32,
        /// The transaction id.
        txn: u64,
    },
    /// Look up a key in the target shard's KV region (see
    /// `docs/KV.md`). Routed by `shard`: the key space is partitioned
    /// by the client (key → shard), not by byte address.
    KvGet {
        /// Shard whose KV region holds the key.
        shard: u32,
        /// The key.
        key: u64,
    },
    /// Insert or replace a key in the target shard's KV region.
    KvPut {
        /// Shard whose KV region holds the key.
        shard: u32,
        /// The key.
        key: u64,
        /// Open transaction to run under (`0` = standalone: the put is
        /// its own atomic unit). A nonzero id must come from
        /// [`Reply::TxnStarted`] on the same shard.
        txn: u64,
        /// The value (at most [`envy_kv::MAX_VALUE`] bytes).
        value: Vec<u8>,
    },
    /// Delete a key from the target shard's KV region.
    KvDelete {
        /// Shard whose KV region holds the key.
        shard: u32,
        /// The key.
        key: u64,
        /// Open transaction to run under (`0` = standalone).
        txn: u64,
    },
    /// Ordered range read: up to `limit` records with key ≥ `start`,
    /// ascending, from the target shard's KV region. `limit` is capped
    /// at [`KV_SCAN_LIMIT`] server-side so a reply always fits a wire
    /// frame.
    KvScan {
        /// Shard whose KV region to scan.
        shard: u32,
        /// First key of the range (inclusive).
        start: u64,
        /// Maximum records to return.
        limit: u32,
    },
}

/// A successful completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Read data.
    Data(Vec<u8>),
    /// Write completed; `latency` is the simulated access latency.
    Done {
        /// Simulated latency of the write.
        latency: Ns,
    },
    /// The shard's write buffer was flushed to Flash.
    Flushed,
    /// Ping answer.
    Pong,
    /// A transaction opened; carry this id in every
    /// [`Request::TxnWrite`] / commit / abort for it.
    TxnStarted {
        /// The new transaction's id.
        txn: u64,
    },
    /// The transaction committed — all of its writes are durable.
    Committed {
        /// The committed transaction's id.
        txn: u64,
    },
    /// The transaction rolled back — none of its writes survive.
    Aborted {
        /// The aborted transaction's id.
        txn: u64,
    },
    /// Answer to [`Request::KvGet`]: the value, or `None` on a miss.
    KvValue(Option<Vec<u8>>),
    /// Answer to [`Request::KvPut`]: the record is stored (durably so
    /// only once the owning transaction — or the standalone op — has
    /// committed through the journal).
    KvPutDone,
    /// Answer to [`Request::KvDelete`].
    KvDeleted {
        /// Whether the key existed before the delete.
        existed: bool,
    },
    /// Answer to [`Request::KvScan`]: `(key, value)` records in
    /// ascending key order.
    KvRange(Vec<(u64, Vec<u8>)>),
}

/// A typed serving failure (always delivered as a completion or a
/// submit-time rejection — requests never disappear).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request's deadline passed while it waited for its shard.
    DeadlineExceeded,
    /// The byte range spans two shard slices; a request must be served
    /// by exactly one controller.
    CrossesShard {
        /// Offending global address.
        addr: u64,
        /// Access length.
        len: u64,
    },
    /// The address falls outside the global logical array.
    OutOfBounds {
        /// Offending global address.
        addr: u64,
        /// Global logical size in bytes.
        size: u64,
    },
    /// Every transaction slot on the target shard is occupied; commit
    /// or abort one first. Carries no id: transaction ids are
    /// capability-like (knowing one is enough to write under it), so a
    /// refusal never leaks a foreign transaction's id.
    TxnBusy,
    /// The transaction id is not open on the target shard (never
    /// started there, already committed, or already aborted).
    NoSuchTxn {
        /// The offending id.
        txn: u64,
    },
    /// The page is in another open transaction's write set. An abort
    /// decision, not a busy-wait: retry the whole transaction (or the
    /// plain write) after backing off. Carries no id — see
    /// [`ServeError::TxnBusy`] on why refusals never name the holder.
    TxnConflict,
    /// The front end is shutting down and no longer admits requests.
    ShuttingDown,
    /// The shard's controller failed the operation — or a request
    /// panicked while holding the shard, which poisons it for good.
    Store(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before dispatch"),
            ServeError::CrossesShard { addr, len } => {
                write!(f, "range {addr:#x}+{len} crosses a shard boundary")
            }
            ServeError::OutOfBounds { addr, size } => {
                write!(f, "address {addr:#x} outside sharded array of {size} bytes")
            }
            ServeError::ShuttingDown => write!(f, "front end is shutting down"),
            ServeError::TxnBusy => {
                write!(f, "all transaction slots on this shard are occupied")
            }
            ServeError::NoSuchTxn { txn } => {
                write!(f, "no open transaction {txn} on this shard")
            }
            ServeError::TxnConflict => {
                write!(f, "page is in another open transaction's write set")
            }
            ServeError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Explicit backpressure: as many requests as the target shard admits
/// ([`ServeConfig::queue_capacity`]) are already waiting for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// The saturated shard.
    pub shard: u32,
    /// Suggested wait before retrying: the shard's estimated per-request
    /// service time times the requests waiting for it, clamped to sane
    /// bounds.
    pub retry_after: Duration,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Shard saturated — retry after the hint. The request was **not**
    /// admitted and will produce no completion.
    Busy(Busy),
    /// Rejected outright (bad range, shutdown); no completion follows.
    Rejected(ServeError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy(b) => {
                write!(f, "shard {} busy, retry after {:?}", b.shard, b.retry_after)
            }
            SubmitError::Rejected(e) => write!(f, "rejected: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A typed completion, delivered on the channel supplied at submit time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The id returned by [`ShardHandle::submit`].
    pub id: u64,
    /// The shard that served the request.
    pub shard: u32,
    /// Outcome.
    pub result: Result<Reply, ServeError>,
}

// ---------------------------------------------------------------------
// Sharding function
// ---------------------------------------------------------------------

/// The static sharding function: shard `i` owns the contiguous slice
/// `[i * shard_bytes, (i + 1) * shard_bytes)` of the global logical
/// byte-address space. Slices are whole numbers of pages (a shard's
/// logical array), so a word access can only cross a shard boundary by
/// actually spanning two slices — which is rejected, never split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: u32,
    shard_bytes: u64,
}

impl ShardPlan {
    /// A plan of `shards` slices of `shard_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(shards: u32, shard_bytes: u64) -> ShardPlan {
        assert!(shards > 0, "at least one shard");
        assert!(shard_bytes > 0, "shards must be non-empty");
        ShardPlan {
            shards,
            shard_bytes,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Bytes per shard slice.
    pub fn shard_bytes(&self) -> u64 {
        self.shard_bytes
    }

    /// Total logical bytes across all shards.
    pub fn total_bytes(&self) -> u64 {
        self.shard_bytes * self.shards as u64
    }

    /// Base global address of a shard's slice.
    pub fn base_of(&self, shard: u32) -> u64 {
        self.shard_bytes * shard as u64
    }

    /// Route a byte range: `(shard, local address)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::OutOfBounds`] if the range exceeds the global
    /// array, [`ServeError::CrossesShard`] if it spans two slices.
    pub fn locate(&self, addr: u64, len: u64) -> Result<(u32, u64), ServeError> {
        let size = self.total_bytes();
        if addr >= size || len > size - addr {
            return Err(ServeError::OutOfBounds { addr, size });
        }
        let shard = addr / self.shard_bytes;
        let last = addr + len.saturating_sub(1);
        if last / self.shard_bytes != shard {
            return Err(ServeError::CrossesShard { addr, len });
        }
        Ok((shard as u32, addr - shard * self.shard_bytes))
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// How read-only requests are executed: always [`ReadPath::Timed`].
///
/// Kept only because `benchmark/` still names it; the next benchmark
/// change deletes it together with [`ServeConfig::read_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// Reads take the shard's lock like writes and run the timing model.
    #[default]
    Timed,
}

/// Configuration of a [`ShardedStore`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shards (independent controllers).
    pub shards: u32,
    /// Per-shard store configuration (every shard is identical).
    pub store: EnvyConfig,
    /// How many requests may wait for a held shard; one more is
    /// refused with [`Busy`].
    pub queue_capacity: usize,
    /// Read by nothing: a shard runs one request at a time. Kept only
    /// because `benchmark/` still sets it; the next benchmark change
    /// deletes it.
    pub batch_max: usize,
    /// Artificial per-request service delay (wall clock) — a pacing and
    /// test knob modeling a slower device; `None` in production.
    pub service_delay: Option<Duration>,
    /// Read by nothing: every read is [`ReadPath::Timed`]. Kept only
    /// because `benchmark/` still sets it; the next benchmark change
    /// deletes it.
    pub read_path: ReadPath,
}

impl ServeConfig {
    /// A small functional configuration (the `small_test` store per
    /// shard) — unit tests, examples, smoke runs.
    pub fn small(shards: u32) -> ServeConfig {
        ServeConfig {
            shards,
            store: EnvyConfig::small_test(),
            queue_capacity: 256,
            batch_max: 32,
            service_delay: None,
            read_path: ReadPath::Timed,
        }
    }

    /// A scaled serving configuration: each shard is a scaled-down
    /// timing array ([`EnvyConfig::scaled_timing`]: 8 banks, 64 segments
    /// of 2 048 × 256-byte pages, state-only payload, a 64-bit host bus)
    /// — the per-controller building block of the §6 multi-controller
    /// organization.
    pub fn scaled(shards: u32) -> ServeConfig {
        ServeConfig {
            shards,
            store: EnvyConfig::scaled_timing(8, 64, 2_048, 256).with_utilization(0.8),
            queue_capacity: 1_024,
            batch_max: 64,
            service_delay: None,
            read_path: ReadPath::Timed,
        }
    }

    /// Set how many requests may wait for a held shard (builder-style).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Set the artificial per-request service delay (builder-style).
    #[must_use]
    pub fn with_service_delay(mut self, delay: Duration) -> ServeConfig {
        self.service_delay = Some(delay);
        self
    }

    /// Set the number of concurrent transaction slots per shard
    /// (builder-style). The default of 1 is the paper-faithful
    /// configuration; raising it lets several transactions interleave
    /// on one controller, isolated by per-page write sets.
    #[must_use]
    pub fn with_txn_slots(mut self, slots: u32) -> ServeConfig {
        self.store.txn_slots = slots;
        self
    }
}

// ---------------------------------------------------------------------
// Shard state
// ---------------------------------------------------------------------

/// What a request that panics gets for an answer, and every request to
/// its shard after it: the store may be half-written, so nothing runs
/// on it again.
fn poisoned(shard: u32) -> ServeError {
    ServeError::Store(format!("shard {shard} is poisoned: a request panicked"))
}

/// Record serve events on a store's trace ring, stamped with its
/// simulated clock like every controller event (free unless tracing
/// was enabled: the events are not even built).
fn trace(store: &mut EnvyStore, events: impl Iterator<Item = TraceEvent>) {
    if store.trace().is_enabled() {
        let now = store.now();
        let ring = store.engine_mut().trace_mut();
        ring.set_now(now);
        events.for_each(|event| ring.push(event));
    }
}

/// One shard. Whoever holds `core` is, for that long, the shard's
/// single writer; everyone else waits for it, up to `capacity` at once.
struct ShardLink {
    shard: u32,
    /// `None` once [`ShardedStore::shutdown`] has taken the outcome.
    core: Mutex<Option<ShardCore>>,
    /// Threads waiting for `core` right now; never more than `capacity`
    /// ([`ServeConfig::queue_capacity`]).
    waiters: AtomicUsize,
    capacity: usize,
    /// EWMA of the wall-clock service time per request.
    est_ns: AtomicU64,
}

/// What a shard's lock guards: its store and dispatch counters — the
/// [`ShardOutcome`] in the making — and how to run a request.
struct ShardCore {
    out: ShardOutcome,
    service_delay: Option<Duration>,
}

/// A shard's lock, held, and the deadline the request that took it
/// must still meet (`None` for one that found the shard idle).
type Held<'a> = (MutexGuard<'a, Option<ShardCore>>, Option<Instant>);

impl ShardLink {
    /// `core` if nobody holds it. The lock cannot be left poisoned by a
    /// request (`execute` contains those panics), and what it guards
    /// stays usable if the bookkeeping around one ever panics: recover
    /// the guard.
    fn try_core(&self) -> Option<MutexGuard<'_, Option<ShardCore>>> {
        match self.core.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Wait for `core`, which another thread holds — unless `capacity`
    /// requests already wait for it: then refuse with [`Busy`] at once.
    /// The deadline runs from here. Out of line and cold: only a caller
    /// that found its shard held gets here.
    #[cold]
    #[inline(never)]
    fn wait(&self, deadline: Option<Duration>) -> Result<Held<'_>, SubmitError> {
        if self.waiters.fetch_add(1, Ordering::Relaxed) >= self.capacity {
            self.waiters.fetch_sub(1, Ordering::Relaxed);
            let retry_after = self.retry_hint();
            return Err(SubmitError::Busy(Busy {
                shard: self.shard,
                retry_after,
            }));
        }
        let deadline = deadline.map(|d| Instant::now() + d);
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        if let Some(core) = guard.as_mut() {
            core.out.waited += 1;
        }
        Ok((guard, deadline))
    }

    /// Start running request `seq`: count it, trace admission +
    /// dispatch and, if `timed`, read the wall clock for
    /// [`settle`](ShardLink::settle).
    /// Forced inline, as [`execute`](ShardLink::execute) is: `admit`
    /// has three callers, and an outlined copy of either costs the
    /// in-process path (`docs/PERFORMANCE.md`, inventory).
    #[inline(always)]
    fn begin(&self, core: &mut ShardCore, seq: u64, timed: bool) -> Option<Instant> {
        let (shard, out) = (self.shard, &mut core.out);
        out.batches += 1;
        let t0 = timed.then(Instant::now);
        let enqueued = TraceEvent::ServeEnqueue { shard, seq };
        let dispatched = TraceEvent::ServeDispatch { shard, batch: 1 };
        trace(&mut out.store, [enqueued, dispatched].into_iter());
        t0
    }

    /// Execute one request (`run`, which is [`apply`] outside tests) and
    /// count its completion — unless its deadline lapsed while it
    /// waited, or an earlier request panicked. A panic stops here
    /// instead of unwinding the submitter's thread.
    #[inline(always)]
    fn execute(
        &self,
        core: &mut ShardCore,
        seq: u64,
        deadline: Option<Instant>,
        run: impl FnOnce(&mut EnvyStore) -> Result<Reply, ServeError>,
    ) -> Result<Reply, ServeError> {
        let (shard, out) = (self.shard, &mut core.out);
        let result = if let Some(failure) = &out.failure {
            Err(failure.clone())
        } else if deadline.is_some_and(|d| Instant::now() > d) {
            out.timed_out += 1;
            Err(ServeError::DeadlineExceeded)
        } else {
            if let Some(delay) = core.service_delay {
                std::thread::sleep(delay);
            }
            let run = panic::AssertUnwindSafe(|| run(&mut out.store));
            panic::catch_unwind(run).unwrap_or_else(|_| {
                out.failure = Some(poisoned(shard));
                Err(poisoned(shard))
            })
        };
        let completed = TraceEvent::ServeComplete { shard, seq };
        trace(&mut out.store, std::iter::once(completed));
        out.served += 1;
        result
    }

    /// Fold a request begun at `t0` into the per-request service
    /// estimate: EWMA (3 old + 1 new) / 4, kept in integers.
    fn settle(&self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let per_op = (t0.elapsed().as_nanos() as u64).max(1);
            let old = self.est_ns.load(Ordering::Relaxed);
            let est = (old.saturating_mul(3) + per_op) / 4;
            self.est_ns.store(est, Ordering::Relaxed);
        }
    }

    /// The backpressure hint: estimated per-request service time times
    /// the requests waiting, clamped to `[1 µs, 100 ms]`.
    fn retry_hint(&self) -> Duration {
        let est = self.est_ns.load(Ordering::Relaxed).max(1);
        let waiting = self.waiters.load(Ordering::Relaxed).max(1) as u64;
        Duration::from_nanos(est.saturating_mul(waiting)).clamp(RETRY_MIN, RETRY_MAX)
    }

    /// Shutdown's half: wait out whoever is inside and give up the
    /// outcome. A request still waiting finds the shard gone and is
    /// refused, never admitted.
    fn close(&self) -> ShardOutcome {
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        guard.take().expect("a shard is shut down once").out
    }
}

/// Shared close flag: set once by [`ShardedStore::shutdown`]; checked by
/// submitters, who reject new work once it is up.
type Closed = Arc<AtomicBool>;

/// What one shard hands back at shutdown.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: u32,
    /// The shard's store (final contents, stats, simulated clock).
    pub store: EnvyStore,
    /// Requests answered (including typed failures).
    pub served: u64,
    /// Requests whose deadline lapsed while they waited for the shard.
    pub timed_out: u64,
    /// Dispatches: one per request run, so always equal to `served`.
    /// Kept only because `benchmark/` still reads it; the next benchmark
    /// change deletes it.
    pub batches: u64,
    /// Requests that found the shard held and waited for it (0 wherever
    /// nothing contends).
    pub waited: u64,
    /// Set when a request panicked on this shard: that request and
    /// every later one completed with this error instead of running,
    /// and `store` is whatever the panic left — possibly mid-operation.
    pub failure: Option<ServeError>,
}

/// Everything a [`ShardedStore::shutdown`] returns: per-shard outcomes,
/// in shard order.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-shard outcomes.
    pub shards: Vec<ShardOutcome>,
}

impl ServeOutcome {
    /// Aggregate controller statistics across all shards (see
    /// [`EnvyStats::merge`]).
    pub fn aggregate_stats(&self) -> EnvyStats {
        let mut all = EnvyStats::default();
        for s in &self.shards {
            all.merge(s.store.stats());
        }
        all
    }

    /// The slowest shard's simulated clock — the fleet's simulated
    /// makespan for its share of the workload.
    pub fn max_sim_time(&self) -> Ns {
        self.shards
            .iter()
            .map(|s| s.store.now())
            .max()
            .unwrap_or(Ns::ZERO)
    }

    /// Total completions posted across shards.
    pub fn total_served(&self) -> u64 {
        self.shards.iter().map(|s| s.served).sum()
    }

    /// Total deadline expiries across shards.
    pub fn total_timed_out(&self) -> u64 {
        self.shards.iter().map(|s| s.timed_out).sum()
    }
}

// ---------------------------------------------------------------------
// The sharded store
// ---------------------------------------------------------------------

/// A cheap, cloneable submission handle to a [`ShardedStore`].
///
/// Handles may outlive the store: once [`ShardedStore::shutdown`]
/// begins, every submission through any clone is rejected with
/// [`ServeError::ShuttingDown`].
#[derive(Clone)]
pub struct ShardHandle {
    plan: ShardPlan,
    links: Arc<Vec<ShardLink>>,
    next_id: Arc<AtomicU64>,
    closed: Closed,
}

impl fmt::Debug for ShardHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardHandle")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// The sharded serving front end; see the [module docs](self) for the
/// contract. It owns no thread.
#[derive(Debug)]
pub struct ShardedStore {
    handle: ShardHandle,
}

impl ShardedStore {
    /// Build and launch: one prefilled store per shard, forked from a
    /// single baseline so every shard starts byte-identical.
    ///
    /// # Errors
    ///
    /// [`EnvyError`] if the per-shard configuration is invalid or the
    /// prefill fails.
    pub fn launch(config: ServeConfig) -> Result<ShardedStore, EnvyError> {
        let mut baseline = EnvyStore::new(config.store.clone())?;
        baseline.prefill()?;
        let stores = (0..config.shards).map(|_| baseline.fork()).collect();
        Ok(ShardedStore::launch_from(stores, &config))
    }

    /// Launch over caller-built stores (e.g. forks of a churned
    /// steady-state baseline). All stores must have the same logical
    /// size; `config.shards` is ignored in favor of `stores.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `stores` is empty or the stores disagree on size.
    pub fn launch_from(stores: Vec<EnvyStore>, config: &ServeConfig) -> ShardedStore {
        assert!(!stores.is_empty(), "at least one shard store");
        let shard_bytes = stores[0].size();
        assert!(
            stores.iter().all(|s| s.size() == shard_bytes),
            "every shard must own an identical slice"
        );
        let plan = ShardPlan::new(stores.len() as u32, shard_bytes);
        let closed: Closed = Arc::new(AtomicBool::new(false));
        let mut links = Vec::with_capacity(stores.len());
        for (i, mut store) in stores.into_iter().enumerate() {
            // Caller-built stores (forks of a shared baseline) carry the
            // baseline's slot table; the serve config is authoritative.
            store.set_txn_slots(config.store.txn_slots);
            // Disjoint id residues per shard: shard i issues ids
            // i+1, i+1+N, ... so a transaction id can never match on
            // the wrong shard (a misrouted TxnWrite is refused with
            // NoSuchTxn instead of silently joining a foreign
            // transaction). A single shard degenerates to 1, 2, 3, ...
            // — identical to a monolithic store, which the digest
            // anchors rely on.
            store.seed_txn_ids(i as u64 + 1, plan.shards() as u64);
            let out = ShardOutcome {
                shard: i as u32,
                store,
                served: 0,
                timed_out: 0,
                batches: 0,
                waited: 0,
                failure: None,
            };
            links.push(ShardLink {
                shard: i as u32,
                core: Mutex::new(Some(ShardCore {
                    out,
                    service_delay: config.service_delay,
                })),
                waiters: AtomicUsize::new(0),
                capacity: config.queue_capacity,
                est_ns: AtomicU64::new(EST_INIT_NS),
            });
        }
        ShardedStore {
            handle: ShardHandle {
                plan,
                links: Arc::new(links),
                next_id: Arc::new(AtomicU64::new(0)),
                closed,
            },
        }
    }

    /// The sharding function.
    pub fn plan(&self) -> &ShardPlan {
        &self.handle.plan
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ShardHandle {
        self.handle.clone()
    }

    /// Graceful shutdown: stop admitting (every [`ShardHandle`] clone
    /// now rejects with [`ServeError::ShuttingDown`]), take each shard's
    /// lock in turn — waiting out whoever is inside, so every
    /// already-admitted request completes — and return the per-shard
    /// outcomes. A request still waiting for a shard when its outcome is
    /// taken is refused with [`ServeError::ShuttingDown`].
    pub fn shutdown(self) -> ServeOutcome {
        self.handle.closed.store(true, Ordering::SeqCst);
        let shards = self.handle.links.iter().map(ShardLink::close).collect();
        ServeOutcome { shards }
    }
}

impl ShardHandle {
    /// The sharding function.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Requests waiting for a shard right now (0 while nothing contends
    /// for it: those requests run without waiting).
    pub fn queue_depth(&self, shard: u32) -> usize {
        self.links[shard as usize].waiters.load(Ordering::Relaxed)
    }

    /// Route a request to its shard without submitting it.
    ///
    /// # Errors
    ///
    /// The same range errors as [`ShardPlan::locate`].
    #[inline] // part of `localize`, which every submit inlines
    pub fn route(&self, req: &Request) -> Result<u32, ServeError> {
        match *req {
            Request::Read { addr, len } => self.plan.locate(addr, len as u64).map(|(s, _)| s),
            Request::Write { addr, ref bytes }
            | Request::TxnWrite {
                addr, ref bytes, ..
            } => self.plan.locate(addr, bytes.len() as u64).map(|(s, _)| s),
            Request::Flush { shard }
            | Request::Ping { shard }
            | Request::TxnBegin { shard }
            | Request::TxnCommit { shard, .. }
            | Request::TxnAbort { shard, .. }
            | Request::KvGet { shard, .. }
            | Request::KvPut { shard, .. }
            | Request::KvDelete { shard, .. }
            | Request::KvScan { shard, .. } => {
                if shard < self.plan.shards() {
                    Ok(shard)
                } else {
                    Err(ServeError::OutOfBounds {
                        addr: self.plan.total_bytes(),
                        size: self.plan.total_bytes(),
                    })
                }
            }
        }
    }

    /// Submit a request. On admission the request id is returned and
    /// exactly one [`Response`] with that id is on `reply` by then: the
    /// request runs on the calling thread, at once on an idle shard, or
    /// once the thread that holds the shard lets go of it. On
    /// [`SubmitError`] nothing was admitted and no completion will
    /// follow — the caller owns the retry.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the shard is held and as many requests
    /// as it admits already wait for it, [`SubmitError::Rejected`] for
    /// range errors or shutdown.
    pub fn submit(
        &self,
        req: Request,
        deadline: Option<Duration>,
        reply: &Sender<Response>,
    ) -> Result<u64, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.submit_with_id(id, req, deadline, reply)?;
        Ok(id)
    }

    /// [`submit`](ShardHandle::submit) with a caller-chosen request id —
    /// the wire layer echoes each client's own ids so completions can be
    /// matched without a translation table. Ids need only be unique per
    /// completion channel.
    ///
    /// # Errors
    ///
    /// As [`submit`](ShardHandle::submit).
    pub fn submit_with_id(
        &self,
        id: u64,
        req: Request,
        deadline: Option<Duration>,
        reply: &Sender<Response>,
    ) -> Result<(), SubmitError> {
        let (shard, req) = self.localize(req).map_err(SubmitError::Rejected)?;
        // Posted while the shard is still held, so completions leave a
        // shard in execution order. A dropped receiver (dead client) is
        // that client's loss, never the shard's.
        let post = |result| {
            let _ = reply.send(Response { id, shard, result });
        };
        self.admit(shard, id, &req, deadline, post)
    }

    /// The event loop's submit: run one request to completion and
    /// return its `(shard, result)` — at once on an idle shard, or once
    /// the thread that holds it lets go. `id` names the request in the
    /// shard's trace (the loop passes the client's wire id).
    ///
    /// # Errors
    ///
    /// As [`submit`](ShardHandle::submit): nothing was admitted.
    pub(crate) fn run(
        &self,
        id: u64,
        req: Request,
        deadline: Option<Duration>,
    ) -> Result<(u32, Result<Reply, ServeError>), SubmitError> {
        let (shard, req) = self.localize(req).map_err(SubmitError::Rejected)?;
        let result = self.admit(shard, id, &req, deadline, |result| result)?;
        Ok((shard, result))
    }

    /// Blocking convenience: submit with no deadline, retrying through
    /// [`Busy`] backpressure (sleeping each `retry_after`), and return
    /// the result. No channel is made.
    ///
    /// # Errors
    ///
    /// The completion's [`ServeError`], or [`ServeError::ShuttingDown`]
    /// if the front end stops before answering.
    pub fn call(&self, req: Request) -> Result<Reply, ServeError> {
        let (shard, req) = self.localize(req)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        loop {
            match self.admit(shard, id, &req, None, |result| result) {
                Ok(result) => return result,
                // Not admitted; back off for the hinted interval and retry.
                Err(SubmitError::Busy(b)) => std::thread::sleep(b.retry_after),
                Err(SubmitError::Rejected(e)) => return Err(e),
            }
        }
    }

    /// Admission's front half: refuse once shutdown has begun, route
    /// the request, and rebase its address onto the owning shard.
    #[inline(always)]
    fn localize(&self, mut req: Request) -> Result<(u32, Request), ServeError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let shard = self.route(&req)?;
        if let Request::Read { addr, .. }
        | Request::Write { addr, .. }
        | Request::TxnWrite { addr, .. } = &mut req
        {
            *addr -= self.plan.base_of(shard);
        }
        Ok((shard, req))
    }

    /// Admit one shard-local request: take its shard's lock — at once if
    /// it is free, else by [`waiting`](ShardLink::wait) for it — run the
    /// request and hand the result to `done` before letting go.
    #[inline(always)]
    fn admit<R>(
        &self,
        shard: u32,
        id: u64,
        req: &Request,
        deadline: Option<Duration>,
        done: impl FnOnce(Result<Reply, ServeError>) -> R,
    ) -> Result<R, SubmitError> {
        let link = &self.links[shard as usize];
        let (mut guard, deadline) = match link.try_core() {
            Some(guard) => (guard, None),
            None => link.wait(deadline)?,
        };
        let Some(core) = guard.as_mut() else {
            return Err(SubmitError::Rejected(ServeError::ShuttingDown));
        };
        let timed = core.out.batches % CLOCK_EVERY == 0;
        let t0 = link.begin(core, id, timed);
        let result = link.execute(core, id, deadline, |store| apply(store, req));
        link.settle(t0);
        Ok(done(result))
    }
}

// ---------------------------------------------------------------------
// Request execution (shared with the differential tests)
// ---------------------------------------------------------------------

/// Execute one shard-local request against a store, exactly as a shard
/// does under its lock: timed accesses issued back-to-back on the shard's own
/// simulated clock. Public so differential tests can replay a shard's
/// request subsequence against a monolithic store and demand identical
/// bytes, clocks, and statistics.
///
/// # Errors
///
/// Typed [`ServeError`]s; the store itself is left consistent.
pub fn apply(store: &mut EnvyStore, req: &Request) -> Result<Reply, ServeError> {
    let size = store.size();
    match req {
        Request::Read { addr, len } => {
            let mut buf = vec![0u8; *len as usize];
            store
                .read_at(store.now(), *addr, &mut buf)
                .map_err(map_store_err(size))?;
            Ok(Reply::Data(buf))
        }
        Request::Write { addr, bytes } => {
            let access = store
                .write_at(store.now(), *addr, bytes)
                .map_err(map_store_err(size))?;
            Ok(Reply::Done {
                latency: access.latency,
            })
        }
        Request::Flush { .. } => {
            store.flush_all().map_err(map_store_err(size))?;
            Ok(Reply::Flushed)
        }
        Request::Ping { .. } => Ok(Reply::Pong),
        Request::TxnBegin { .. } => {
            let txn = store.txn_begin().map_err(map_store_err(size))?;
            Ok(Reply::TxnStarted { txn })
        }
        Request::TxnWrite { addr, bytes, txn } => {
            // The store checks ownership itself: an unknown id (foreign
            // shard or already closed) is NoSuchTxn before any bytes
            // move, and a page in another open transaction's write set
            // is a conflict refusal.
            let access = store
                .txn_write_at(store.now(), *txn, *addr, bytes)
                .map_err(map_store_err(size))?;
            Ok(Reply::Done {
                latency: access.latency,
            })
        }
        Request::TxnCommit { txn, .. } => {
            store.txn_commit(*txn).map_err(map_store_err(size))?;
            Ok(Reply::Committed { txn: *txn })
        }
        Request::TxnAbort { txn, .. } => {
            store.txn_abort(*txn).map_err(map_store_err(size))?;
            Ok(Reply::Aborted { txn: *txn })
        }
        Request::KvGet { key, .. } => {
            let kv = kv_open(store)?;
            let value = kv.get(store, *key).map_err(map_kv_err(size))?;
            Ok(Reply::KvValue(value))
        }
        Request::KvPut {
            key, txn, value, ..
        } => {
            let mut kv = kv_open(store)?;
            if *txn == 0 {
                kv.put(store, *key, value).map_err(map_kv_err(size))?;
            } else {
                // All index and record writes of this put join the
                // transaction's write set: they revert together on
                // abort and conflict like any other transactional page.
                let mut mem = TxnMemory::new(store, *txn);
                kv.put(&mut mem, *key, value).map_err(map_kv_err(size))?;
            }
            Ok(Reply::KvPutDone)
        }
        Request::KvDelete { key, txn, .. } => {
            let mut kv = kv_open(store)?;
            let existed = if *txn == 0 {
                kv.delete(store, *key).map_err(map_kv_err(size))?
            } else {
                let mut mem = TxnMemory::new(store, *txn);
                kv.delete(&mut mem, *key).map_err(map_kv_err(size))?
            };
            Ok(Reply::KvDeleted { existed })
        }
        Request::KvScan { start, limit, .. } => {
            let kv = kv_open(store)?;
            let limit = (*limit).min(KV_SCAN_LIMIT) as usize;
            let items = kv.scan(store, *start, limit).map_err(map_kv_err(size))?;
            Ok(Reply::KvRange(items))
        }
    }
}

/// Server-side cap on [`Request::KvScan`] result counts: 128 records of
/// [`envy_kv::MAX_VALUE`] bytes is ~526 KiB of reply body, safely under
/// the wire protocol's 1 MiB frame limit.
pub const KV_SCAN_LIMIT: u32 = 128;

/// Open the shard's KV region (the whole logical array, region base 0),
/// creating it on first touch. Erased Flash reads back as `0xFF`, so a
/// fresh shard can never alias the magic and the create is reached on
/// exactly the first KV request — deterministically, in both the worker
/// and the monolithic-replay execution paths.
fn kv_open(store: &mut EnvyStore) -> Result<envy_kv::KvStore, ServeError> {
    let size = store.size();
    match envy_kv::KvStore::open(store, 0) {
        Ok(kv) => Ok(kv),
        Err(envy_kv::KvError::BadMagic) => {
            envy_kv::KvStore::create(store, 0, size).map_err(map_kv_err(size))
        }
        Err(e) => Err(map_kv_err(size)(e)),
    }
}

/// The typed refusal a controller error stands for on a store of
/// `size` bytes, if it has one; anything else is only a message.
fn typed_refusal(e: &EnvyError, size: u64) -> Option<ServeError> {
    Some(match *e {
        EnvyError::OutOfBounds { addr, .. } => ServeError::OutOfBounds { addr, size },
        EnvyError::TxnSlotsFull { .. } => ServeError::TxnBusy,
        EnvyError::NoSuchTxn { txn } => ServeError::NoSuchTxn { txn },
        // The holder's id stops here: it is controller-side diagnostic
        // state, never echoed to a peer that does not own it.
        EnvyError::TxnConflict { .. } => ServeError::TxnConflict,
        _ => return None,
    })
}

fn map_store_err(size: u64) -> impl Fn(EnvyError) -> ServeError {
    move |e| typed_refusal(&e, size).unwrap_or_else(|| ServeError::Store(e.to_string()))
}

fn map_kv_err(size: u64) -> impl Fn(envy_kv::KvError) -> ServeError {
    move |e| {
        // Transaction machinery surfaces through the memory layer when
        // the KV store runs over TxnMemory: the same typed refusals as
        // the raw transactional ops.
        let typed = match &e {
            envy_kv::KvError::Memory(m) => typed_refusal(m, size),
            _ => None,
        };
        typed.unwrap_or_else(|| ServeError::Store(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn plan_locates_and_rejects() {
        let plan = ShardPlan::new(4, 1_000);
        assert_eq!(plan.total_bytes(), 4_000);
        assert_eq!(plan.locate(0, 8).unwrap(), (0, 0));
        assert_eq!(plan.locate(2_500, 8).unwrap(), (2, 500));
        assert_eq!(plan.locate(999, 1).unwrap(), (0, 999));
        assert!(matches!(
            plan.locate(996, 8),
            Err(ServeError::CrossesShard { .. })
        ));
        assert!(matches!(
            plan.locate(4_000, 1),
            Err(ServeError::OutOfBounds { .. })
        ));
        assert!(matches!(
            plan.locate(3_999, 2),
            Err(ServeError::OutOfBounds { .. })
        ));
        // Zero-length accesses route without crossing.
        assert_eq!(plan.locate(1_000, 0).unwrap(), (1, 0));
    }

    #[test]
    fn roundtrip_through_two_shards() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        let base = h.plan().shard_bytes();
        h.call(Request::Write {
            addr: 64,
            bytes: b"shard-zero".to_vec(),
        })
        .unwrap();
        h.call(Request::Write {
            addr: base + 64,
            bytes: b"shard-one!".to_vec(),
        })
        .unwrap();
        match h.call(Request::Read { addr: 64, len: 10 }).unwrap() {
            Reply::Data(d) => assert_eq!(d, b"shard-zero"),
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::Read {
                addr: base + 64,
                len: 10,
            })
            .unwrap()
        {
            Reply::Data(d) => assert_eq!(d, b"shard-one!"),
            other => panic!("unexpected {other:?}"),
        }
        let outcome = store.shutdown();
        assert_eq!(outcome.total_served(), 4);
        // Writes landed on different controllers (host_writes counts
        // word-granularity accesses, so just assert presence).
        assert!(outcome.shards[0].store.stats().host_writes.get() > 0);
        assert!(outcome.shards[1].store.stats().host_writes.get() > 0);
    }

    #[test]
    fn kv_roundtrip_through_shards() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        // First KV touch auto-creates each shard's KV region.
        h.call(Request::KvPut {
            shard: 0,
            key: 7,
            txn: 0,
            value: b"zero".to_vec(),
        })
        .unwrap();
        h.call(Request::KvPut {
            shard: 1,
            key: 7,
            txn: 0,
            value: b"one".to_vec(),
        })
        .unwrap();
        // Same key, independent per-shard keyspaces.
        match h.call(Request::KvGet { shard: 0, key: 7 }).unwrap() {
            Reply::KvValue(Some(v)) => assert_eq!(v, b"zero"),
            other => panic!("unexpected {other:?}"),
        }
        match h.call(Request::KvGet { shard: 1, key: 7 }).unwrap() {
            Reply::KvValue(Some(v)) => assert_eq!(v, b"one"),
            other => panic!("unexpected {other:?}"),
        }
        match h.call(Request::KvGet { shard: 0, key: 8 }).unwrap() {
            Reply::KvValue(None) => {}
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::KvDelete {
                shard: 0,
                key: 7,
                txn: 0,
            })
            .unwrap()
        {
            Reply::KvDeleted { existed } => assert!(existed),
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::KvScan {
                shard: 1,
                start: 0,
                limit: 10,
            })
            .unwrap()
        {
            Reply::KvRange(items) => assert_eq!(items, vec![(7, b"one".to_vec())]),
            other => panic!("unexpected {other:?}"),
        }
        // Out-of-range shard is a typed refusal, same as the other
        // shard-addressed ops.
        let err = h.call(Request::KvGet { shard: 9, key: 1 }).unwrap_err();
        assert!(matches!(err, ServeError::OutOfBounds { .. }));
        store.shutdown();
    }

    #[test]
    fn kv_txn_commit_and_abort() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        let h = store.handle();
        h.call(Request::KvPut {
            shard: 0,
            key: 1,
            txn: 0,
            value: b"base".to_vec(),
        })
        .unwrap();
        // Abort path: the replacement and the insert both vanish.
        let txn = match h.call(Request::TxnBegin { shard: 0 }).unwrap() {
            Reply::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        h.call(Request::KvPut {
            shard: 0,
            key: 1,
            txn,
            value: b"spec".to_vec(),
        })
        .unwrap();
        h.call(Request::KvPut {
            shard: 0,
            key: 2,
            txn,
            value: b"new".to_vec(),
        })
        .unwrap();
        h.call(Request::TxnAbort { shard: 0, txn }).unwrap();
        match h.call(Request::KvGet { shard: 0, key: 1 }).unwrap() {
            Reply::KvValue(Some(v)) => assert_eq!(v, b"base"),
            other => panic!("unexpected {other:?}"),
        }
        match h.call(Request::KvGet { shard: 0, key: 2 }).unwrap() {
            Reply::KvValue(None) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Commit path: the delete survives.
        let txn = match h.call(Request::TxnBegin { shard: 0 }).unwrap() {
            Reply::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        match h
            .call(Request::KvDelete {
                shard: 0,
                key: 1,
                txn,
            })
            .unwrap()
        {
            Reply::KvDeleted { existed } => assert!(existed),
            other => panic!("unexpected {other:?}"),
        }
        h.call(Request::TxnCommit { shard: 0, txn }).unwrap();
        match h.call(Request::KvGet { shard: 0, key: 1 }).unwrap() {
            Reply::KvValue(None) => {}
            other => panic!("unexpected {other:?}"),
        }
        // A KV write under a dead transaction is the usual typed error.
        let err = h
            .call(Request::KvPut {
                shard: 0,
                key: 3,
                txn,
                value: b"x".to_vec(),
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::NoSuchTxn { .. }));
        store.shutdown();
    }

    #[test]
    fn kv_scan_limit_is_clamped() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        let h = store.handle();
        for key in 0..200u64 {
            h.call(Request::KvPut {
                shard: 0,
                key,
                txn: 0,
                value: vec![key as u8; 16],
            })
            .unwrap();
        }
        match h
            .call(Request::KvScan {
                shard: 0,
                start: 0,
                limit: u32::MAX,
            })
            .unwrap()
        {
            Reply::KvRange(items) => {
                assert_eq!(items.len(), KV_SCAN_LIMIT as usize);
                assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
            }
            other => panic!("unexpected {other:?}"),
        }
        store.shutdown();
    }

    #[test]
    fn cross_shard_request_is_rejected_typed() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        let base = h.plan().shard_bytes();
        let err = h
            .call(Request::Write {
                addr: base - 4,
                bytes: vec![0u8; 8],
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::CrossesShard { .. }));
        store.shutdown();
    }

    #[test]
    fn pipelined_submissions_complete_out_of_band() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        let (tx, rx) = mpsc::channel();
        let mut ids = Vec::new();
        for i in 0..64u64 {
            let req = Request::Write {
                addr: i * 256,
                bytes: vec![i as u8; 8],
            };
            loop {
                match h.submit(req.clone(), None, &tx) {
                    Ok(id) => {
                        ids.push(id);
                        break;
                    }
                    Err(SubmitError::Busy(b)) => std::thread::sleep(b.retry_after),
                    Err(SubmitError::Rejected(e)) => panic!("rejected: {e}"),
                }
            }
        }
        let mut got: Vec<u64> = (0..64).map(|_| rx.recv().unwrap().id).collect();
        got.sort_unstable();
        ids.sort_unstable();
        assert_eq!(got, ids);
        let outcome = store.shutdown();
        assert_eq!(outcome.total_served(), 64);
        assert!(outcome.aggregate_stats().host_writes.get() >= 64);
    }

    #[test]
    fn serve_trace_events_recorded() {
        let cfg = ServeConfig::small(1);
        let mut traced = EnvyStore::new(cfg.store.clone()).unwrap();
        traced.prefill().unwrap();
        traced.enable_trace(4_096);
        let store = ShardedStore::launch_from(vec![traced], &cfg);
        let h = store.handle();
        for i in 0..8u64 {
            h.call(Request::Write {
                addr: i * 256,
                bytes: vec![1u8; 4],
            })
            .unwrap();
        }
        let outcome = store.shutdown();
        let evs: Vec<TraceEvent> = outcome.shards[0]
            .store
            .trace()
            .records()
            .map(|r| r.event)
            .collect();
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::ServeEnqueue { .. })));
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::ServeDispatch { .. })));
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::ServeComplete { .. })));
    }

    #[test]
    fn retry_hint_is_clamped() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        let h = store.handle();
        let hint = h.links[0].retry_hint();
        assert!(hint >= RETRY_MIN && hint <= RETRY_MAX);
        store.shutdown();
    }

    /// Make shard `shard` run a request that panics, the way `admit`
    /// would; returns what its submitter is told.
    fn panic_inside(h: &ShardHandle, shard: usize) -> Result<Reply, ServeError> {
        let link = &h.links[shard];
        let mut guard = link.try_core().expect("idle shard");
        let core = guard.as_mut().expect("live shard");
        link.execute(core, u64::MAX, None, |_| {
            panic!("injected: request panicked")
        })
    }

    fn is_poisoned(result: Result<Reply, ServeError>, shard: u32) -> bool {
        result == Err(poisoned(shard))
    }

    #[test]
    fn a_panicking_request_fails_its_shard_with_typed_errors() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        let base = h.plan().shard_bytes();
        h.call(Request::Ping { shard: 0 }).unwrap();
        // The panic stops at the shard: its submitter gets a typed
        // error, on its own thread, which lives on.
        assert!(is_poisoned(panic_inside(&h, 0), 0));
        // Every later submit is answered with the same typed error —
        // through `call`, through `submit`, and for queued jobs alike —
        // and nothing touches the store again.
        assert!(is_poisoned(h.call(Request::Ping { shard: 0 }), 0));
        let (tx, rx) = mpsc::channel();
        let write = Request::Write {
            addr: 64,
            bytes: vec![1; 8],
        };
        let id = h.submit(write, None, &tx).expect("admitted, then refused");
        let resp = rx.try_recv().expect("completed inline");
        assert_eq!(resp.id, id);
        assert!(is_poisoned(resp.result, 0));
        // The other shard is untouched.
        let write = Request::Write {
            addr: base + 64,
            bytes: b"fine".to_vec(),
        };
        h.call(write).unwrap();
        assert_eq!(read_bytes(&h, base + 64, 4), b"fine");
        // Shutdown reports the failure instead of panicking.
        let outcome = store.shutdown();
        assert_eq!(outcome.shards[0].failure, Some(poisoned(0)));
        assert_eq!(outcome.shards[0].store.stats().host_writes.get(), 0);
        assert_eq!(outcome.shards[1].failure, None);
        // The ping, the panic, and the two refusals all completed.
        assert_eq!(outcome.shards[0].served, 4);
    }

    #[test]
    fn a_panicked_shard_never_takes_the_event_loop_down() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        let h = store.handle();
        let listener = crate::net::Listener::bind_tcp("127.0.0.1:0").unwrap();
        let server = crate::net::serve(listener, store).unwrap();
        let mut client = crate::net::Client::connect_tcp(server.addr()).unwrap();
        client.ping(0).unwrap();
        assert!(is_poisoned(panic_inside(&h, 0), 0));
        // The loop thread runs this request itself, on the poisoned
        // shard: a typed error frame, not a dead daemon.
        match client.ping(0) {
            Err(crate::net::ClientError::Serve(e)) => assert_eq!(e, poisoned(0)),
            other => panic!("expected the typed poison error, got {other:?}"),
        }
        // And the daemon still shuts down in order, reporting it.
        let summary = server.shutdown();
        assert_eq!(summary.outcome.shards[0].failure, Some(poisoned(0)));
        assert_eq!(summary.outcome.total_served(), 3);
    }

    fn read_bytes(h: &ShardHandle, addr: u64, len: u32) -> Vec<u8> {
        match h.call(Request::Read { addr, len }).unwrap() {
            Reply::Data(d) => d,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn txn_commit_roundtrip_across_shards() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        let base = h.plan().shard_bytes();
        // Independent transactions on each shard. Ids are globally
        // unique (each shard draws from a disjoint residue class), so
        // concurrent transactions can never alias across shards.
        let t0 = match h.call(Request::TxnBegin { shard: 0 }).unwrap() {
            Reply::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        let t1 = match h.call(Request::TxnBegin { shard: 1 }).unwrap() {
            Reply::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(t0, t1, "transaction ids must be unique across shards");
        // A write that routes to shard 1 but carries shard 0's id must
        // be refused — it must not join shard 1's open transaction.
        match h
            .call(Request::TxnWrite {
                addr: base + 128,
                bytes: vec![0xAB; 4],
                txn: t0,
            })
            .unwrap_err()
        {
            ServeError::NoSuchTxn { txn } => assert_eq!(txn, t0),
            other => panic!("unexpected {other:?}"),
        }
        h.call(Request::TxnWrite {
            addr: 64,
            bytes: b"zero".to_vec(),
            txn: t0,
        })
        .unwrap();
        h.call(Request::TxnWrite {
            addr: base + 64,
            bytes: b"one!".to_vec(),
            txn: t1,
        })
        .unwrap();
        assert!(matches!(
            h.call(Request::TxnCommit { shard: 0, txn: t0 }).unwrap(),
            Reply::Committed { .. }
        ));
        assert!(matches!(
            h.call(Request::TxnAbort { shard: 1, txn: t1 }).unwrap(),
            Reply::Aborted { .. }
        ));
        assert_eq!(read_bytes(&h, 64, 4), b"zero");
        // Shard 1's write rolled back to the prefill contents.
        assert_ne!(read_bytes(&h, base + 64, 4), b"one!");
        store.shutdown();
    }

    #[test]
    fn txn_ownership_errors_are_typed() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        let h = store.handle();
        let txn = match h.call(Request::TxnBegin { shard: 0 }).unwrap() {
            Reply::TxnStarted { txn } => txn,
            other => panic!("unexpected {other:?}"),
        };
        // A second begin on the same shard is refused — and the refusal
        // does not leak the holder's id (ids are capability-like).
        assert!(matches!(
            h.call(Request::TxnBegin { shard: 0 }).unwrap_err(),
            ServeError::TxnBusy
        ));
        // A write under the wrong id never reaches the store.
        match h
            .call(Request::TxnWrite {
                addr: 0,
                bytes: vec![1u8; 4],
                txn: txn + 1,
            })
            .unwrap_err()
        {
            ServeError::NoSuchTxn { txn: t } => assert_eq!(t, txn + 1),
            other => panic!("unexpected {other:?}"),
        }
        // Commit under the wrong id likewise.
        assert!(matches!(
            h.call(Request::TxnCommit {
                shard: 0,
                txn: txn + 1
            })
            .unwrap_err(),
            ServeError::NoSuchTxn { .. }
        ));
        // The real commit still succeeds after the failed attempts.
        h.call(Request::TxnWrite {
            addr: 128,
            bytes: b"kept".to_vec(),
            txn,
        })
        .unwrap();
        h.call(Request::TxnCommit { shard: 0, txn }).unwrap();
        assert_eq!(read_bytes(&h, 128, 4), b"kept");
        // Nothing is open any more.
        assert!(matches!(
            h.call(Request::TxnAbort { shard: 0, txn }).unwrap_err(),
            ServeError::NoSuchTxn { .. }
        ));
        store.shutdown();
    }

    #[test]
    fn concurrent_txn_slots_isolate_write_sets() {
        let store = ShardedStore::launch(ServeConfig::small(1).with_txn_slots(2)).unwrap();
        let h = store.handle();
        let begin =
            |h: &crate::shard::ShardHandle| match h.call(Request::TxnBegin { shard: 0 }).unwrap() {
                Reply::TxnStarted { txn } => txn,
                other => panic!("unexpected {other:?}"),
            };
        let t0 = begin(&h);
        let t1 = begin(&h);
        assert_ne!(t0, t1);
        // Both slots taken: a third begin is refused without an id.
        assert!(matches!(
            h.call(Request::TxnBegin { shard: 0 }).unwrap_err(),
            ServeError::TxnBusy
        ));
        h.call(Request::TxnWrite {
            addr: 0,
            bytes: b"zero".to_vec(),
            txn: t0,
        })
        .unwrap();
        // t1 hitting t0's page is a typed conflict, with no foreign id.
        assert!(matches!(
            h.call(Request::TxnWrite {
                addr: 0,
                bytes: b"one!".to_vec(),
                txn: t1,
            })
            .unwrap_err(),
            ServeError::TxnConflict
        ));
        // A plain write to that page is refused the same way (the old
        // behavior silently joined it to the open transaction).
        assert!(matches!(
            h.call(Request::Write {
                addr: 0,
                bytes: b"plny".to_vec(),
            })
            .unwrap_err(),
            ServeError::TxnConflict
        ));
        // t1 writes its own page; both resolve independently.
        h.call(Request::TxnWrite {
            addr: 512,
            bytes: b"one!".to_vec(),
            txn: t1,
        })
        .unwrap();
        h.call(Request::TxnAbort { shard: 0, txn: t0 }).unwrap();
        h.call(Request::TxnCommit { shard: 0, txn: t1 }).unwrap();
        assert_ne!(read_bytes(&h, 0, 4), b"zero", "t0 rolled back");
        assert_eq!(read_bytes(&h, 512, 4), b"one!", "t1 committed");
        store.shutdown();
    }

    #[test]
    fn txn_requests_route_like_their_kin() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let h = store.handle();
        // TxnWrite routes by address like Write.
        assert_eq!(
            h.route(&Request::TxnWrite {
                addr: h.plan().shard_bytes() + 8,
                bytes: vec![0u8; 4],
                txn: 1,
            })
            .unwrap(),
            1
        );
        // Shard-addressed ops validate the shard index.
        assert!(matches!(
            h.route(&Request::TxnBegin { shard: 9 }).unwrap_err(),
            ServeError::OutOfBounds { .. }
        ));
        assert!(matches!(
            h.route(&Request::TxnCommit { shard: 9, txn: 1 })
                .unwrap_err(),
            ServeError::OutOfBounds { .. }
        ));
        store.shutdown();
    }
}
