//! The public eNVy storage interface: a byte-addressable, non-volatile
//! linear array with in-place update semantics.
//!
//! Two access paths are provided:
//!
//! * **Untimed** ([`EnvyStore::read`] / [`EnvyStore::write`]): performs
//!   every state transition (copy-on-write, flushing, cleaning, wear
//!   leveling) but treats background device time as instantaneous. Used
//!   for functional code (B-Trees, filesystems) and the cleaning-cost
//!   studies, where only program-operation counts matter.
//! * **Timed** ([`EnvyStore::read_at`] / [`EnvyStore::write_at`]): the
//!   caller supplies the simulated arrival time of each access, and both
//!   directions take one timed walk. The range is split into page
//!   chunks; the direction moves each chunk's bytes and prices its
//!   words — a read by where the page was found, a write by its
//!   buffer-full stall and copy-on-write transfer, both carried by the
//!   chunk's first word. Every host-bus word then pays one rule: bus
//!   overhead plus device time, an SRAM page-table lookup when the
//!   chunk's first word misses the MMU, and the suspend penalty when it
//!   collides with a long Flash operation on its bank, with background
//!   work replayed against the clock up to that word. A word or less
//!   inside one page — every access a word-level workload issues — is
//!   priced by the same per-chunk step without the chunk iterator. Each
//!   access returns its latency — the model behind Figures 13–15.

use crate::addr::Chunk;
use crate::config::EnvyConfig;
use crate::engine::{Engine, FaultPlan, ReadSource, RecoveryReport, WriteKind};
use crate::error::EnvyError;
use crate::memory::{check_range, Memory};
use crate::params::SRAM_ACCESS;
use crate::stats::EnvyStats;
use crate::timing::{BgOp, TimingState};
use crate::trace::{TraceEvent, TraceRing};
use envy_sim::stats::TimeSeries;
use envy_sim::time::Ns;

/// Columns of the store's periodic time series (see
/// [`EnvyStore::enable_sampler`]): per-window host word counts and
/// controller activity, the per-window cleaning cost, and instantaneous
/// backlog and buffer occupancy at the sample point.
pub const SAMPLER_COLUMNS: &[&str] = &[
    "host_reads",
    "host_writes",
    "pages_flushed",
    "clean_programs",
    "erases",
    "cleaning_cost",
    "backlog_us",
    "buffer_pages",
];

/// Periodic sampler state: the series plus the counter values at the end
/// of the previous window (so each row holds per-window deltas).
#[derive(Debug)]
struct Sampler {
    series: TimeSeries,
    last_reads: u64,
    last_writes: u64,
    last_flushes: u64,
    last_cleans: u64,
    last_erases: u64,
}

/// What one host-bus word costs on top of bus overhead, as
/// [`EnvyStore::move_chunk`] prices it for its direction.
#[derive(Debug, Clone, Copy)]
struct WordCost {
    /// Device time, including any copy-on-write transfer and stall.
    device: Ns,
    /// The bank the word touches, if any: the one it can collide with.
    bank: Option<u32>,
    /// The part of `device` spent waiting out a full write buffer.
    stall: Ns,
}

impl WordCost {
    fn at(device: Ns, bank: Option<u32>) -> WordCost {
        WordCost {
            device,
            bank,
            stall: Ns::ZERO,
        }
    }
}

/// The bytes a timed access moves: into the caller's buffer, or out of
/// the caller's bytes (inside transaction `.1` when it is set).
enum Transfer<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8], Option<u64>),
}

/// Timing of one host access (a byte range split into word accesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedAccess {
    /// Simulated completion time.
    pub completed: Ns,
    /// Total latency from issue to completion.
    pub latency: Ns,
    /// Number of host-bus word accesses performed.
    pub words: u32,
}

/// An eNVy storage system: Flash array + controller + SRAM, presented as
/// linear non-volatile memory.
///
/// # Example
///
/// ```
/// use envy_core::{EnvyConfig, EnvyStore};
///
/// # fn main() -> Result<(), envy_core::EnvyError> {
/// let mut store = EnvyStore::new(EnvyConfig::small_test())?;
/// store.write(4096, b"hello")?;
/// let mut buf = [0u8; 5];
/// store.read(4096, &mut buf)?;
/// assert_eq!(&buf, b"hello");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EnvyStore {
    engine: Engine,
    timing: TimingState,
    clock: Ns,
    ops: Vec<BgOp>,
    sampler: Option<Sampler>,
}

impl EnvyStore {
    /// Build a store from a configuration.
    ///
    /// # Errors
    ///
    /// [`EnvyError::BadConfig`] if the configuration is inconsistent.
    pub fn new(config: EnvyConfig) -> Result<EnvyStore, EnvyError> {
        let timing = TimingState::new(config.parallel_ops, config.resume_gap);
        let engine = Engine::new(config)?;
        Ok(EnvyStore {
            engine,
            timing,
            clock: Ns::ZERO,
            ops: Vec::new(),
            sampler: None,
        })
    }

    /// Snapshot the store for an independent experiment run.
    ///
    /// The fork inherits the full device state — Flash contents and wear,
    /// buffered pages, page table, cleaning-policy state — but all
    /// statistics are reset, the simulated clock restarts at zero, and no
    /// background work is pending. A sweep that varies only workload
    /// parameters (arrival rate, seed, threshold) can therefore build,
    /// prefill and churn one baseline store and fork it per point.
    ///
    /// Forking with background operations still in flight (a timed run
    /// that was not drained) would silently drop that work, so the device
    /// state is snapshotted as-is; callers fork from an untimed or
    /// drained baseline.
    #[must_use]
    pub fn fork(&self) -> EnvyStore {
        let config = self.engine.config();
        EnvyStore {
            engine: self.engine.fork(),
            timing: TimingState::new(config.parallel_ops, config.resume_gap),
            clock: Ns::ZERO,
            ops: Vec::new(),
            sampler: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EnvyConfig {
        self.engine.config()
    }

    /// Resize the transaction slot table (see
    /// [`crate::EnvyConfig::txn_slots`]). Lets a fork of a shared
    /// baseline serve a different concurrency level without rebuilding
    /// and re-churning the device state.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or below the number of currently open
    /// transactions.
    pub fn set_txn_slots(&mut self, slots: u32) {
        self.engine.set_txn_slots(slots);
    }

    /// Controller statistics.
    pub fn stats(&self) -> &EnvyStats {
        self.engine.stats()
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Start recording controller trace events into a bounded ring of
    /// `capacity` records. Tracing is behavior-neutral: it changes no
    /// statistic, timing decision, or device state.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.engine.trace_mut().enable(capacity);
    }

    /// The controller trace ring (empty unless [`EnvyStore::enable_trace`]
    /// was called).
    pub fn trace(&self) -> &TraceRing {
        self.engine.trace()
    }

    /// Start periodic telemetry sampling: every `window` of simulated
    /// time, one row of [`SAMPLER_COLUMNS`] values is recorded, keeping
    /// at most `max_rows` recent rows. Samples are taken as timed
    /// accesses and [`EnvyStore::idle_until`] advance the clock.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `max_rows` is zero.
    pub fn enable_sampler(&mut self, window: Ns, max_rows: usize) {
        let stats = self.engine.stats();
        self.sampler = Some(Sampler {
            series: TimeSeries::new(window, SAMPLER_COLUMNS, max_rows),
            last_reads: stats.host_reads.get(),
            last_writes: stats.host_writes.get(),
            last_flushes: stats.pages_flushed.get(),
            last_cleans: stats.clean_programs.get(),
            last_erases: stats.erases.get(),
        });
    }

    /// The sampled time series (`None` unless
    /// [`EnvyStore::enable_sampler`] was called).
    pub fn time_series(&self) -> Option<&TimeSeries> {
        self.sampler.as_ref().map(|s| &s.series)
    }

    /// Record a sampler row if the current window has elapsed.
    #[inline]
    fn sample_if_due(&mut self) {
        let Some(sampler) = self.sampler.as_mut() else {
            return;
        };
        if !sampler.series.due(self.clock) {
            return;
        }
        let stats = &self.engine.stats;
        let reads = stats.host_reads.get();
        let writes = stats.host_writes.get();
        let flushes = stats.pages_flushed.get();
        let cleans = stats.clean_programs.get();
        let erases = stats.erases.get();
        let d_flush = flushes - sampler.last_flushes;
        let d_clean = cleans - sampler.last_cleans;
        // Per-window cleaning cost, same definition as the aggregate
        // [`crate::stats::EnvyStats::cleaning_cost`]: cleaner programs
        // per flushed page.
        let cost = if d_flush == 0 {
            0.0
        } else {
            d_clean as f64 / d_flush as f64
        };
        sampler.series.record(
            self.clock,
            vec![
                (reads - sampler.last_reads) as f64,
                (writes - sampler.last_writes) as f64,
                d_flush as f64,
                d_clean as f64,
                (erases - sampler.last_erases) as f64,
                cost,
                self.timing.backlog().as_nanos() as f64 / 1_000.0,
                self.engine.buffer.len() as f64,
            ],
        );
        sampler.last_reads = reads;
        sampler.last_writes = writes;
        sampler.last_flushes = flushes;
        sampler.last_cleans = cleans;
        sampler.last_erases = erases;
    }

    /// The underlying controller engine (wear reports, invariants, …).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the engine for advanced scenarios (interrupted
    /// cleans, direct policy inspection). Background time emitted by
    /// operations invoked this way is not replayed by the timing model.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Size of the logical array in bytes.
    pub fn size(&self) -> u64 {
        self.engine.config().logical_bytes()
    }

    /// Pre-populate the logical array at the configured utilization (the
    /// paper's steady-state starting point).
    ///
    /// # Errors
    ///
    /// See [`Engine::prefill`].
    pub fn prefill(&mut self) -> Result<(), EnvyError> {
        self.engine.prefill()
    }

    #[inline]
    fn words_in(&self, len: usize) -> u32 {
        let w = self.engine.config().word_bytes as usize;
        // Word-or-smaller accesses (the vast majority of a word-level
        // workload) skip the division.
        if len <= w {
            1
        } else {
            (len.div_ceil(w)) as u32
        }
    }

    // ------------------------------------------------------------------
    // Untimed path
    // ------------------------------------------------------------------

    /// Read a byte range (untimed).
    ///
    /// # Errors
    ///
    /// [`EnvyError::OutOfBounds`] if the range exceeds the logical array.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EnvyError> {
        check_range(addr, buf.len(), self.size())?;
        let mut cursor = 0;
        // ChunkIter copies the (plain-value) address map, so iterating
        // holds no borrow on the engine and needs no temporary Vec.
        for c in self.engine.addr_map.chunks(addr, buf.len()) {
            self.engine
                .read_page_bytes(c.page, c.offset, &mut buf[cursor..cursor + c.len])?;
            self.engine
                .stats
                .host_reads
                .add(self.words_in(c.len) as u64);
            cursor += c.len;
        }
        Ok(())
    }

    /// Write a byte range (untimed). Background work (flushes, cleans)
    /// executes logically but its device time is treated as instantaneous.
    ///
    /// # Errors
    ///
    /// [`EnvyError::OutOfBounds`], cleaning errors, or
    /// [`EnvyError::TxnConflict`] when the range hits an open
    /// transaction's write set.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), EnvyError> {
        self.write_as(addr, bytes, None)
    }

    /// Write a byte range (untimed) inside transaction `txn`: each
    /// touched page joins the transaction's write set (its pre-image is
    /// pinned as a shadow).
    ///
    /// # Errors
    ///
    /// As [`EnvyStore::write`], plus [`EnvyError::NoSuchTxn`] if `txn`
    /// is not open.
    pub fn txn_write(&mut self, txn: u64, addr: u64, bytes: &[u8]) -> Result<(), EnvyError> {
        self.write_as(addr, bytes, Some(txn))
    }

    fn write_as(&mut self, addr: u64, bytes: &[u8], writer: Option<u64>) -> Result<(), EnvyError> {
        check_range(addr, bytes.len(), self.size())?;
        let mut cursor = 0;
        for c in self.engine.addr_map.chunks(addr, bytes.len()) {
            self.ops.clear();
            self.engine.write_page_bytes(
                c.page,
                c.offset,
                &bytes[cursor..cursor + c.len],
                writer,
                &mut self.ops,
            )?;
            self.engine
                .stats
                .host_writes
                .add(self.words_in(c.len) as u64);
            cursor += c.len;
        }
        self.ops.clear();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Timed path
    // ------------------------------------------------------------------

    /// Read a byte range with full timing: the access starts at `now` (or
    /// when the previous access completed, whichever is later) and is
    /// split into sequential host-bus word accesses.
    ///
    /// # Errors
    ///
    /// [`EnvyError::OutOfBounds`].
    #[inline(always)]
    pub fn read_at(
        &mut self,
        now: Ns,
        addr: u64,
        buf: &mut [u8],
    ) -> Result<TimedAccess, EnvyError> {
        self.timed_access(now, addr, Transfer::Read(buf))
    }

    /// Write a byte range with full timing. The first word of each page
    /// run carries the copy-on-write transfer when one occurs; if the
    /// write buffer's un-executed flush backlog exceeds its headroom, the
    /// write stalls while the controller catches up — the paper's
    /// post-saturation latency jump (Figure 15).
    ///
    /// # Errors
    ///
    /// [`EnvyError::OutOfBounds`], cleaning errors, or
    /// [`EnvyError::TxnConflict`] when the range hits an open
    /// transaction's write set.
    #[inline(always)]
    pub fn write_at(&mut self, now: Ns, addr: u64, bytes: &[u8]) -> Result<TimedAccess, EnvyError> {
        self.timed_access(now, addr, Transfer::Write(bytes, None))
    }

    /// Write a byte range with full timing inside transaction `txn` —
    /// the timed counterpart of [`EnvyStore::txn_write`]. Timing is
    /// identical to [`EnvyStore::write_at`] for the same device state.
    ///
    /// # Errors
    ///
    /// As [`EnvyStore::write_at`], plus [`EnvyError::NoSuchTxn`] if
    /// `txn` is not open.
    #[inline]
    pub fn txn_write_at(
        &mut self,
        now: Ns,
        txn: u64,
        addr: u64,
        bytes: &[u8],
    ) -> Result<TimedAccess, EnvyError> {
        self.timed_access(now, addr, Transfer::Write(bytes, Some(txn)))
    }

    /// A timed access: one word inside one page — every access a
    /// word-level workload issues — is priced here as its single chunk
    /// ([`EnvyStore::timed_chunk`]); anything wider goes through
    /// [`EnvyStore::timed_walk`], which prices each chunk the same way.
    #[inline(always)]
    fn timed_access(
        &mut self,
        now: Ns,
        addr: u64,
        mut data: Transfer<'_>,
    ) -> Result<TimedAccess, EnvyError> {
        let len = match &data {
            Transfer::Read(buf) => buf.len(),
            Transfer::Write(bytes, _) => bytes.len(),
        };
        let map = self.engine.addr_map;
        let offset = map.offset_of(addr);
        if len == 0
            || len > self.engine.config().word_bytes as usize
            || (offset + len) as u64 > map.page_bytes()
        {
            return self.timed_walk(now, addr, len, data);
        }
        check_range(addr, len, self.size())?;
        let start = now.max(self.clock);
        self.engine.trace.set_now(start);
        let c = Chunk {
            page: map.page_of(addr),
            offset,
            len,
        };
        let t = self.timed_chunk(&mut data, c, 0, start, 1)?;
        Ok(self.finish_timed(start, t, 1))
    }

    /// The general timed access: split the range at `addr` into page
    /// chunks and price each with [`EnvyStore::timed_chunk`].
    #[inline(never)]
    fn timed_walk(
        &mut self,
        now: Ns,
        addr: u64,
        len: usize,
        mut data: Transfer<'_>,
    ) -> Result<TimedAccess, EnvyError> {
        check_range(addr, len, self.size())?;
        let start = now.max(self.clock);
        self.engine.trace.set_now(start);
        let (mut t, mut words, mut cursor) = (start, 0, 0);
        for c in self.engine.addr_map.chunks(addr, len) {
            let n = self.words_in(c.len);
            t = self.timed_chunk(&mut data, c, cursor, t, n)?;
            cursor += c.len;
            words += n;
        }
        Ok(self.finish_timed(start, t, words))
    }

    /// Chunk `c` of a timed access, reached at `t`: move its bytes
    /// ([`EnvyStore::move_chunk`]), then charge each of its `n` host-bus
    /// words the host-visible rule (PAPER.md §1.7) — bus overhead plus
    /// device time, a page-table lookup in SRAM when the first word
    /// misses the MMU, and the suspend penalty when a word collides with
    /// a long Flash operation on its bank. Returns when the last word
    /// completes.
    #[inline(always)]
    fn timed_chunk(
        &mut self,
        data: &mut Transfer<'_>,
        c: Chunk,
        cursor: usize,
        mut t: Ns,
        n: u32,
    ) -> Result<Ns, EnvyError> {
        let (mut word, rest) = self.move_chunk(data, c, cursor, t)?;
        let cfg = self.engine.config();
        let (bus, suspend) = (cfg.bus_overhead, cfg.suspend_penalty);
        let mut miss = !self.engine.mmu.access(c.page);
        for _ in 0..n {
            let collided = self
                .timing
                .host_access(t, word.bank, &mut self.engine.stats);
            let mut lat = bus + word.device;
            if miss {
                lat += SRAM_ACCESS; // page-table lookup in SRAM
            }
            if collided {
                lat += suspend;
                self.engine.trace.set_now(t);
                self.engine.trace.emit(TraceEvent::Suspend {
                    bank: word.bank.expect("collisions require a bank"),
                });
            }
            let s = &mut self.engine.stats;
            let (count, latency, time) = match data {
                Transfer::Read(_) => (&mut s.host_reads, &mut s.read_latency, &mut s.time_reads),
                Transfer::Write(..) => {
                    (&mut s.host_writes, &mut s.write_latency, &mut s.time_writes)
                }
            };
            count.incr();
            latency.record(lat);
            // A stall's interval was already attributed to the
            // background work it executed; charge only the
            // host-productive part here.
            *time += lat - word.stall;
            t += lat;
            // Only a chunk's first word can miss the MMU, wait out a
            // stall or carry a copy-on-write transfer.
            miss = false;
            word = rest;
        }
        Ok(t)
    }

    /// Move chunk `c` (at `cursor` in the caller's bytes) of a timed
    /// access reaching it at `t`, and price its first and its remaining
    /// words. A read's words cost where the page was found. A write
    /// first waits out a full buffer, then its first word carries that
    /// stall and, on a copy-on-write, the wide-bus Flash→SRAM page
    /// transfer from the source bank.
    #[inline(always)]
    fn move_chunk(
        &mut self,
        data: &mut Transfer<'_>,
        c: Chunk,
        cursor: usize,
        t: Ns,
    ) -> Result<(WordCost, WordCost), EnvyError> {
        let flash_t = self.engine.config().timings.read;
        let (bytes, writer) = match data {
            Transfer::Read(buf) => {
                let dst = &mut buf[cursor..cursor + c.len];
                let word = match self.engine.read_page_bytes(c.page, c.offset, dst)? {
                    ReadSource::Flash { bank } => WordCost::at(flash_t, Some(bank)),
                    ReadSource::Sram | ReadSource::Unmapped => WordCost::at(SRAM_ACCESS, None),
                };
                return Ok((word, word));
            }
            Transfer::Write(bytes, writer) => (&bytes[cursor..cursor + c.len], *writer),
        };
        // Buffer-full condition: pages logically flushed but whose
        // program time has not executed still occupy (virtual) frames.
        // Post-saturation (Figure 15): the blocked write waits for
        // exactly one buffer slot — one flush program plus its
        // amortized share of the cleaning and erasing queued ahead.
        let cfg = self.engine.config();
        let headroom = cfg.buffer_pages - cfg.flush_threshold;
        let mut stall = Ns::ZERO;
        if self.timing.pending_flushes() >= headroom {
            stall = self
                .timing
                .drain_flushes(headroom - 1, &mut self.engine.stats);
            if stall > Ns::ZERO {
                self.engine.trace.set_now(t);
                self.engine.trace.emit(TraceEvent::Stall { waited: stall });
            }
        }
        self.ops.clear();
        let result =
            self.engine
                .write_page_bytes(c.page, c.offset, bytes, writer, &mut self.ops)?;
        self.timing.enqueue(&self.ops);
        self.ops.clear();
        let (transfer, bank) = match result.kind {
            WriteKind::CopyOnWrite { bank } => (flash_t, Some(bank)),
            _ => (Ns::ZERO, None),
        };
        let first = WordCost {
            device: SRAM_ACCESS + transfer + stall,
            bank,
            stall,
        };
        Ok((first, WordCost::at(SRAM_ACCESS, None)))
    }

    /// Complete a timed access that started at `start` and ended at `t`.
    fn finish_timed(&mut self, start: Ns, t: Ns, words: u32) -> TimedAccess {
        self.clock = t;
        self.sample_if_due();
        TimedAccess {
            completed: t,
            latency: t - start,
            words,
        }
    }

    /// Let background work execute up to `now` without a host access
    /// (e.g. between transactions).
    pub fn idle_until(&mut self, now: Ns) {
        self.clock = self.clock.max(now);
        self.timing.run_until(now, &mut self.engine.stats);
        self.engine.trace.set_now(self.clock);
        self.sample_if_due();
    }

    /// The store's internal clock (completion time of the latest access).
    pub fn now(&self) -> Ns {
        self.clock
    }

    /// Un-executed background device time.
    pub fn backlog(&self) -> Ns {
        self.timing.backlog()
    }

    // ------------------------------------------------------------------
    // Transactions, recovery, maintenance
    // ------------------------------------------------------------------

    /// Open a hardware transaction (§6). See [`Engine::txn_begin`].
    ///
    /// # Errors
    ///
    /// See [`Engine::txn_begin`].
    pub fn txn_begin(&mut self) -> Result<u64, EnvyError> {
        self.ops.clear();
        let mut ops = std::mem::take(&mut self.ops);
        let id = self.engine.txn_begin(&mut ops);
        ops.clear();
        self.ops = ops;
        id
    }

    /// Partition the transaction-id space for multi-controller
    /// deployments. See [`Engine::seed_txn_ids`].
    ///
    /// # Panics
    ///
    /// See [`Engine::seed_txn_ids`].
    pub fn seed_txn_ids(&mut self, first: u64, stride: u64) {
        self.engine.seed_txn_ids(first, stride);
    }

    /// Commit a transaction.
    ///
    /// # Errors
    ///
    /// See [`Engine::txn_commit`].
    pub fn txn_commit(&mut self, txn: u64) -> Result<(), EnvyError> {
        self.engine.txn_commit(txn)
    }

    /// Roll a transaction back to its shadow copies.
    ///
    /// # Errors
    ///
    /// See [`Engine::txn_abort`].
    pub fn txn_abort(&mut self, txn: u64) -> Result<(), EnvyError> {
        self.engine.txn_abort(txn)
    }

    /// Drain the write buffer to Flash.
    ///
    /// # Errors
    ///
    /// Propagates cleaning errors.
    pub fn flush_all(&mut self) -> Result<(), EnvyError> {
        self.ops.clear();
        let mut ops = std::mem::take(&mut self.ops);
        let r = self.engine.flush_all(&mut ops);
        ops.clear();
        self.ops = ops;
        r
    }

    /// Simulate a power failure (volatile state lost).
    ///
    /// Besides the engine's volatile state (MMU cache, wear-swap flag),
    /// the store drops its own: queued-but-unexecuted background
    /// operations and the in-flight timing of the devices. The simulated
    /// clock is kept — it models wall time, which a power cut does not
    /// rewind.
    pub fn power_failure(&mut self) {
        self.engine.power_failure();
        self.ops.clear();
        let config = self.engine.config();
        self.timing = TimingState::new(config.parallel_ops, config.resume_gap);
    }

    /// Arm a deterministic [`FaultPlan`] on the underlying engine
    /// (power-failure injection points, program/erase verify failures,
    /// torn programs). An empty plan disarms everything.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.engine.arm_faults(plan);
    }

    /// Recover after a power failure.
    ///
    /// # Errors
    ///
    /// See [`Engine::recover`].
    pub fn recover(&mut self) -> Result<RecoveryReport, EnvyError> {
        self.ops.clear();
        let mut ops = std::mem::take(&mut self.ops);
        let r = self.engine.recover(&mut ops);
        ops.clear();
        self.ops = ops;
        r
    }

    /// An untimed, side-effect-free view of this store's bytes (see
    /// [`ReadView`](crate::ReadView)). Kept only for `benchmark/`'s
    /// `core.view_read_ns` row; the next benchmark change deletes it.
    pub fn read_view(&self) -> crate::view::ReadView<'_> {
        crate::view::ReadView::new(self)
    }

    /// Verify all cross-structure invariants (test support).
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.engine.check_invariants()
    }
}

impl Memory for EnvyStore {
    fn size(&self) -> u64 {
        EnvyStore::size(self)
    }

    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EnvyError> {
        EnvyStore::read(self, addr, buf)
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), EnvyError> {
        EnvyStore::write(self, addr, bytes)
    }
}

/// A [`Memory`] view that routes every write through an open
/// transaction's write set ([`EnvyStore::txn_write`]).
///
/// Plain writes never join an open transaction (they are refused with
/// [`EnvyError::TxnConflict`] if they hit a page a transaction owns),
/// so [`Memory`]-generic structures — the heap allocator, the B-Tree,
/// the functional TPC-A database — opt into transactional semantics by
/// running against this view instead of the bare store. Reads pass
/// straight through: transactional writes land in place (the shadow
/// directory holds the pre-images), so the transaction observes its own
/// in-flight data.
#[derive(Debug)]
pub struct TxnMemory<'a> {
    store: &'a mut EnvyStore,
    txn: u64,
}

impl<'a> TxnMemory<'a> {
    /// Wrap `store` so writes execute under the open transaction `txn`
    /// (from [`EnvyStore::txn_begin`]). The borrow ends when the view is
    /// dropped; commit or abort the transaction on the store itself.
    pub fn new(store: &'a mut EnvyStore, txn: u64) -> TxnMemory<'a> {
        TxnMemory { store, txn }
    }

    /// The wrapped transaction id.
    pub fn txn(&self) -> u64 {
        self.txn
    }
}

impl Memory for TxnMemory<'_> {
    fn size(&self) -> u64 {
        self.store.size()
    }

    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EnvyError> {
        self.store.read(addr, buf)
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), EnvyError> {
        self.store.txn_write(self.txn, addr, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;

    fn store() -> EnvyStore {
        let mut s = EnvyStore::new(EnvyConfig::small_test()).unwrap();
        s.prefill().unwrap();
        s
    }

    /// Send-safety audit for the sharded serving layer: a store (and its
    /// fork) must be movable into a worker thread. Every constituent is
    /// owned data — no `Rc`, no raw pointers, no thread-affine interior
    /// mutability — so this is a compile-time fact; the assertion keeps
    /// it from regressing silently.
    #[test]
    fn envy_store_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<EnvyStore>();
        assert_send::<Engine>();
        assert_send::<EnvyStats>();
        assert_send::<TraceRing>();
        let s = store();
        let forked = s.fork();
        std::thread::spawn(move || drop(forked)).join().unwrap();
    }

    #[test]
    fn byte_range_roundtrip_across_pages() {
        let mut s = store();
        let data: Vec<u8> = (0..1000).map(|i| (i * 7) as u8).collect();
        s.write(100, &data).unwrap(); // spans 4+ 256-byte pages
        let mut out = vec![0u8; 1000];
        s.read(100, &mut out).unwrap();
        assert_eq!(out, data);
        s.check_invariants().unwrap();
    }

    #[test]
    fn out_of_bounds_ranges_rejected() {
        let mut s = store();
        let size = s.size();
        assert!(s.write(size - 2, &[0u8; 4]).is_err());
        let mut buf = [0u8; 4];
        assert!(s.read(size, &mut buf).is_err());
        // Exactly at the end is fine.
        s.write(size - 4, &[1, 2, 3, 4]).unwrap();
    }

    #[test]
    fn ranges_ending_past_u64_max_rejected() {
        let mut s = store();
        let addr = u64::MAX - 3;
        let oob = |r: Result<_, EnvyError>| matches!(r, Err(EnvyError::OutOfBounds { .. }));
        assert!(oob(s.read_at(Ns::ZERO, addr, &mut [0u8; 16]).map(drop)));
        assert!(oob(s.write_at(Ns::ZERO, addr, &[0u8; 16]).map(drop)));
        assert!(oob(s.read(addr, &mut [0u8; 16])));
        assert!(oob(s.write(addr, &[0u8; 16])));
    }

    #[test]
    fn memory_trait_object() {
        let mut s = store();
        let mem: &mut dyn Memory = &mut s;
        mem.write(0, b"abc").unwrap();
        let mut out = [0u8; 3];
        mem.read(0, &mut out).unwrap();
        assert_eq!(&out, b"abc");
    }

    #[test]
    fn timed_read_latency_near_paper_values() {
        let mut s = store();
        // Flash-resident page, cold MMU: 60 + 100 (PT) + 100 (flash).
        let mut b = [0u8; 4];
        let a = s.read_at(Ns::from_micros(1), 0, &mut b).unwrap();
        assert_eq!(a.words, 1);
        assert_eq!(a.latency, Ns::from_nanos(260));
        // Warm MMU: 60 + 100.
        let a2 = s.read_at(a.completed, 0, &mut b).unwrap();
        assert_eq!(a2.latency, Ns::from_nanos(160));
    }

    #[test]
    fn timed_write_cow_then_sram_hits() {
        let mut s = store();
        // First write: COW (60 + 100 transfer + 100 sram + 100 PT miss).
        let a = s.write_at(Ns::from_micros(1), 0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(a.words, 1);
        assert_eq!(a.latency, Ns::from_nanos(360));
        // Second write to the same page: SRAM hit, warm MMU: 160ns.
        let a2 = s.write_at(a.completed, 4, &[5, 6, 7, 8]).unwrap();
        assert_eq!(a2.latency, Ns::from_nanos(160));
    }

    #[test]
    fn timed_multi_word_access_sums_words() {
        let mut s = store();
        let mut buf = [0u8; 64];
        let a = s.read_at(Ns::ZERO, 0, &mut buf).unwrap();
        assert_eq!(a.words, 16); // 64 bytes / 4-byte words
                                 // 1 cold + 15 warm words.
        assert_eq!(a.latency, Ns::from_nanos(260 + 15 * 160));
    }

    #[test]
    fn clock_is_monotonic_even_with_stale_now() {
        let mut s = store();
        let mut b = [0u8; 4];
        let a1 = s.read_at(Ns::from_micros(100), 0, &mut b).unwrap();
        // An "earlier" arrival cannot start before the previous completion.
        let a2 = s.read_at(Ns::ZERO, 256, &mut b).unwrap();
        assert!(a2.completed > a1.completed);
        assert_eq!(s.now(), a2.completed);
    }

    #[test]
    fn background_backlog_drains_when_idle() {
        let mut s = store();
        // Generate flush work by writing more pages than the threshold.
        let threshold = s.config().flush_threshold as u64;
        let mut t = Ns::ZERO;
        for lp in 0..(threshold + 8) {
            let a = s.write_at(t, lp * 256, &[1]).unwrap();
            t = a.completed;
        }
        assert!(s.backlog() > Ns::ZERO, "flushes must be pending");
        s.idle_until(t + Ns::from_secs(1));
        assert_eq!(s.backlog(), Ns::ZERO);
        assert!(s.stats().time_flush > Ns::ZERO);
    }

    #[test]
    fn saturation_spikes_write_latency() {
        // Hammer writes back-to-back with no idle time: the flush backlog
        // exceeds the buffer headroom and writes stall (Figure 15).
        let config = EnvyConfig::small_test().with_buffer_pages(16);
        let mut s = EnvyStore::new(config).unwrap();
        s.prefill().unwrap();
        let mut t = Ns::ZERO;
        let mut worst = Ns::ZERO;
        let pages = s.config().logical_pages;
        for i in 0..2_000u64 {
            let lp = (i * 7) % pages;
            let a = s.write_at(t, lp * 256, &[1]).unwrap();
            t = a.completed;
            worst = worst.max(a.latency);
        }
        assert!(
            worst >= Ns::from_micros(4),
            "saturated write latency should reach program time, got {worst}"
        );
        assert!(s.stats().suspensions.get() < s.stats().host_writes.get());
    }

    #[test]
    fn txn_api_through_store() {
        let mut s = store();
        s.write(512, &[7; 16]).unwrap();
        let txn = s.txn_begin().unwrap();
        s.txn_write(txn, 512, &[9; 16]).unwrap();
        // A plain write to the page in the open write set is refused —
        // never silently joined to the transaction.
        assert!(matches!(
            s.write(512, &[8; 16]),
            Err(EnvyError::TxnConflict { .. })
        ));
        s.txn_abort(txn).unwrap();
        let mut out = [0u8; 16];
        s.read(512, &mut out).unwrap();
        assert_eq!(out, [7; 16]);

        let txn = s.txn_begin().unwrap();
        s.txn_write(txn, 512, &[1; 16]).unwrap();
        s.txn_commit(txn).unwrap();
        s.read(512, &mut out).unwrap();
        assert_eq!(out, [1; 16]);
    }

    #[test]
    fn seeded_txn_ids_stride_and_stay_unique() {
        let mut s = store();
        s.seed_txn_ids(2, 4);
        let a = s.txn_begin().unwrap();
        s.txn_commit(a).unwrap();
        let b = s.txn_begin().unwrap();
        // An id from a different residue class is never this store's
        // transaction, even while one is open.
        assert!(matches!(
            s.txn_commit(b + 1),
            Err(EnvyError::NoSuchTxn { .. })
        ));
        s.txn_abort(b).unwrap();
        assert_eq!((a, b), (2, 6));
    }

    #[test]
    fn recovery_through_store() {
        let mut s = store();
        s.write(0, &[0xEE; 8]).unwrap();
        s.power_failure();
        let report = s.recover().unwrap();
        assert!(!report.resumed_clean);
        let mut out = [0u8; 8];
        s.read(0, &mut out).unwrap();
        assert_eq!(out, [0xEE; 8]);
    }

    #[test]
    fn power_failure_drops_pending_background_work() {
        let mut s = store();
        // Rapid timed writes queue background device time (flushes,
        // cleans) faster than it executes.
        let mut now = Ns::ZERO;
        let mut i = 0u64;
        while s.backlog() == Ns::ZERO && i < 50_000 {
            let a = s
                .write_at(now, (i * 256) % (s.size() - 256), &[i as u8; 4])
                .unwrap();
            now = a.completed;
            i += 1;
        }
        assert!(s.backlog() > Ns::ZERO, "no backlog after {i} writes");
        s.power_failure();
        // In-flight device work is volatile; the clock (wall time) is not.
        assert_eq!(s.backlog(), Ns::ZERO);
        assert_eq!(s.now(), now);
        s.recover().unwrap();
        s.check_invariants().unwrap();
    }

    #[test]
    fn faults_armable_through_store() {
        let mut s = store();
        s.write(0, &[0x42; 4]).unwrap();
        s.arm_faults(FaultPlan::crash_at(
            crate::engine::InjectionPoint::FlushAfterProgram,
            1,
        ));
        match s.flush_all() {
            Err(EnvyError::PowerLoss) => {}
            other => panic!("expected PowerLoss, got {other:?}"),
        }
        s.power_failure();
        let report = s.recover().unwrap();
        assert_eq!(report.scavenged_pages, 1);
        let mut out = [0u8; 4];
        s.read(0, &mut out).unwrap();
        assert_eq!(out, [0x42; 4]);
    }

    #[test]
    fn stats_accessible_and_consistent() {
        let mut s = store();
        s.write(0, &[1; 4]).unwrap();
        let mut b = [0u8; 4];
        s.read(0, &mut b).unwrap();
        assert_eq!(s.stats().host_writes.get(), 1);
        assert_eq!(s.stats().host_reads.get(), 1);
        assert_eq!(s.stats().cow_ops.get(), 1);
    }

    #[test]
    fn tracing_is_behavior_neutral_and_captures_events() {
        // Identical workloads with and without tracing: every statistic
        // must match (tracing observes, never perturbs), and the traced
        // run must have captured the controller's transitions.
        let run = |traced: bool| {
            let mut s = store();
            if traced {
                s.enable_trace(4096);
            }
            let pages = s.config().logical_pages;
            let mut t = Ns::ZERO;
            for i in 0..3_000u64 {
                let lp = (i * 13) % pages;
                let a = s.write_at(t, lp * 256, &[i as u8]).unwrap();
                t = a.completed;
            }
            s
        };
        let plain = run(false);
        let traced = run(true);
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(plain.now(), traced.now());
        assert!(plain.trace().is_empty());
        assert!(!traced.trace().is_empty());
        let evs: Vec<_> = traced.trace().records().map(|r| r.event).collect();
        assert!(evs.iter().any(|e| matches!(e, TraceEvent::Flush { .. })));
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::CleanStart { .. })));
        // Timestamps are monotone.
        let times: Vec<_> = traced.trace().records().map(|r| r.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sampler_records_per_window_rows() {
        let mut s = store();
        s.enable_sampler(Ns::from_micros(100), 64);
        let pages = s.config().logical_pages;
        let mut t = Ns::ZERO;
        for i in 0..2_000u64 {
            let lp = (i * 7) % pages;
            let a = s.write_at(t, lp * 256, &[1]).unwrap();
            t = a.completed;
        }
        s.idle_until(t + Ns::from_millis(1));
        let series = s.time_series().expect("sampler enabled");
        assert_eq!(series.columns(), SAMPLER_COLUMNS);
        assert!(series.rows().len() >= 2, "windows elapsed");
        // Host write deltas across rows cannot exceed the total.
        let writes_col = 1;
        let total: f64 = series.rows().iter().map(|(_, v)| v[writes_col]).sum();
        assert!(total <= s.stats().host_writes.get() as f64);
        assert!(total > 0.0);
    }

    #[test]
    fn greedy_policy_via_store_heavy_churn() {
        let config = EnvyConfig::small_test().with_policy(PolicyKind::Greedy);
        let mut s = EnvyStore::new(config).unwrap();
        s.prefill().unwrap();
        let pages = s.config().logical_pages;
        for i in 0..20_000u64 {
            let lp = (i * 31) % pages;
            s.write(lp * 256 + (i % 64), &[i as u8]).unwrap();
        }
        assert!(s.stats().cleaning_cost() > 0.0);
        s.check_invariants().unwrap();
    }
}
