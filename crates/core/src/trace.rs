//! Low-overhead structured controller tracing.
//!
//! The engine can record a bounded ring of typed events — every state
//! transition the paper's evaluation reasons about (copy-on-write, buffer
//! hits, flushes, cleans with victim and live-page count, sheds, erases,
//! wear swaps, suspensions, stalls, injected faults) — stamped with the
//! simulated time at which it happened. Tracing is **off by default** and
//! behavior-neutral: it touches no statistic, no timing decision and no
//! device state, so enabling it cannot change a run's results, and when
//! disabled the only cost per event site is one branch on a bool.
//!
//! The ring is bounded ([`TraceRing::enable`] sets the capacity): a long
//! run keeps the most recent events at a fixed memory ceiling, which is
//! what post-hoc latency forensics need — "what was the controller doing
//! just before the spike".

use envy_sim::time::Ns;
use std::collections::VecDeque;
use std::fmt;

/// One traced controller event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Copy-on-write: a Flash-resident page was pulled into SRAM
    /// (§3.1–3.2).
    Cow {
        /// Logical page written.
        lp: u64,
        /// Physical segment the original copy lived in.
        segment: u32,
    },
    /// First write to a never-written page: fresh SRAM allocation.
    FreshAlloc {
        /// Logical page written.
        lp: u64,
    },
    /// Write absorbed in place by a page already in the SRAM buffer.
    BufferHit {
        /// Logical page written.
        lp: u64,
    },
    /// Page flushed from the write buffer into Flash.
    Flush {
        /// Logical page flushed.
        lp: u64,
        /// Destination physical segment.
        segment: u32,
    },
    /// Cleaning began.
    CleanStart {
        /// Segment position being cleaned.
        position: u32,
        /// Physical victim segment.
        victim: u32,
        /// Live pages the cleaner must copy.
        live_pages: u32,
    },
    /// Cleaning finished; the victim was erased and became the spare.
    CleanEnd {
        /// The erased victim (now the spare).
        victim: u32,
    },
    /// A page was shed to a neighbouring partition by locality
    /// gathering (§4.3).
    Shed {
        /// Logical page shed.
        lp: u64,
        /// Destination physical segment.
        to_segment: u32,
    },
    /// A segment was erased.
    Erase {
        /// The erased physical segment.
        segment: u32,
        /// Its lifetime erase-cycle count after this erase.
        cycles: u64,
    },
    /// Wear leveling swapped the most- and least-worn segments' data
    /// (§4.3).
    WearSwap {
        /// Most-worn physical segment (parked under cold data).
        worn: u32,
        /// Least-worn physical segment.
        young: u32,
    },
    /// A host access suspended an in-progress background operation on
    /// its bank (§3.4).
    Suspend {
        /// The contended bank.
        bank: u32,
    },
    /// A host write stalled on the un-executed flush backlog (the
    /// buffer-full path behind Figure 15's post-saturation jump).
    Stall {
        /// Device time the write waited for.
        waited: Ns,
    },
    /// An injected program verify failure was observed (the controller
    /// retries on the next erased page).
    ProgramFault {
        /// Segment whose program failed.
        segment: u32,
    },
    /// An injected erase verify failure was observed (the controller
    /// reissues the erase).
    EraseFault {
        /// Segment whose erase failed.
        segment: u32,
    },
    /// Retries exhausted a flush target's erased pages; the program was
    /// remapped to a different segment.
    Remap {
        /// The exhausted segment.
        segment: u32,
    },
    /// A serving front end admitted a request to a shard (recorded by
    /// the thread that runs it, once it holds the shard's lock).
    ServeEnqueue {
        /// Shard the request was routed to.
        shard: u32,
        /// Request id assigned by the front end.
        seq: u64,
    },
    /// A shard started running what it admitted: one request, since a
    /// shard runs one at a time.
    ServeDispatch {
        /// The dispatching shard.
        shard: u32,
        /// Requests dispatched together (always 1).
        batch: u32,
    },
    /// A shard finished executing a request and handed over its
    /// completion.
    ServeComplete {
        /// The executing shard.
        shard: u32,
        /// Request id assigned by the front end.
        seq: u64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Cow { lp, segment } => write!(f, "cow lp={lp} from seg={segment}"),
            TraceEvent::FreshAlloc { lp } => write!(f, "fresh-alloc lp={lp}"),
            TraceEvent::BufferHit { lp } => write!(f, "buffer-hit lp={lp}"),
            TraceEvent::Flush { lp, segment } => write!(f, "flush lp={lp} to seg={segment}"),
            TraceEvent::CleanStart {
                position,
                victim,
                live_pages,
            } => write!(
                f,
                "clean-start pos={position} victim={victim} live={live_pages}"
            ),
            TraceEvent::CleanEnd { victim } => write!(f, "clean-end victim={victim}"),
            TraceEvent::Shed { lp, to_segment } => write!(f, "shed lp={lp} to seg={to_segment}"),
            TraceEvent::Erase { segment, cycles } => {
                write!(f, "erase seg={segment} cycles={cycles}")
            }
            TraceEvent::WearSwap { worn, young } => {
                write!(f, "wear-swap worn={worn} young={young}")
            }
            TraceEvent::Suspend { bank } => write!(f, "suspend bank={bank}"),
            TraceEvent::Stall { waited } => write!(f, "stall waited={waited}"),
            TraceEvent::ProgramFault { segment } => write!(f, "program-fault seg={segment}"),
            TraceEvent::EraseFault { segment } => write!(f, "erase-fault seg={segment}"),
            TraceEvent::Remap { segment } => write!(f, "remap from seg={segment}"),
            TraceEvent::ServeEnqueue { shard, seq } => {
                write!(f, "serve-enqueue shard={shard} seq={seq}")
            }
            TraceEvent::ServeDispatch { shard, batch } => {
                write!(f, "serve-dispatch shard={shard} batch={batch}")
            }
            TraceEvent::ServeComplete { shard, seq } => {
                write!(f, "serve-complete shard={shard} seq={seq}")
            }
        }
    }
}

/// A timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time the event was recorded at.
    pub at: Ns,
    /// Monotone sequence number (index into the stream of all events
    /// ever emitted, including those the ring has since dropped).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded ring buffer of [`TraceRecord`]s; disabled by default.
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    enabled: bool,
    capacity: usize,
    now: Ns,
    seq: u64,
    ring: VecDeque<TraceRecord>,
}

impl TraceRing {
    /// Enable tracing with a ring of `capacity` records (older records
    /// are dropped as new ones arrive).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable(&mut self, capacity: usize) {
        assert!(capacity > 0, "trace capacity must be positive");
        self.enabled = true;
        self.capacity = capacity;
        self.ring.truncate(0);
        self.ring.reserve(capacity.min(4096));
    }

    /// Disable tracing and drop all buffered records.
    pub fn disable(&mut self) {
        self.enabled = false;
        self.ring = VecDeque::new();
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Advance the simulated timestamp subsequent events are stamped
    /// with. Timestamps are monotone: an earlier `now` is ignored.
    pub fn set_now(&mut self, now: Ns) {
        self.now = self.now.max(now);
    }

    /// Record one event from an embedding layer (a serving front end, a
    /// replay harness) that stamps its own [`TraceRing::set_now`]
    /// timestamps. No-op when disabled, like every emit site.
    pub fn push(&mut self, event: TraceEvent) {
        self.emit(event);
    }

    /// Record one event (no-op when disabled).
    #[inline]
    pub(crate) fn emit(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceRecord {
            at: self.now,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// The most recent `n` records, oldest first.
    pub fn last(&self, n: usize) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter().skip(self.ring.len().saturating_sub(n))
    }

    /// Number of buffered records (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events emitted since tracing was enabled, including records
    /// the ring has since dropped.
    pub fn total_emitted(&self) -> u64 {
        self.seq
    }

    /// Drop all buffered records (capacity and enablement unchanged).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_records_nothing() {
        let mut t = TraceRing::default();
        assert!(!t.is_enabled());
        t.emit(TraceEvent::FreshAlloc { lp: 1 });
        assert!(t.is_empty());
        assert_eq!(t.total_emitted(), 0);
    }

    #[test]
    fn ring_bounds_and_sequences() {
        let mut t = TraceRing::default();
        t.enable(3);
        for lp in 0..5u64 {
            t.set_now(Ns::from_micros(lp));
            t.emit(TraceEvent::BufferHit { lp });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_emitted(), 5);
        let recs: Vec<_> = t.records().collect();
        assert_eq!(recs[0].seq, 2);
        assert_eq!(recs[2].seq, 4);
        assert_eq!(recs[2].at, Ns::from_micros(4));
        let last: Vec<_> = t.last(2).collect();
        assert_eq!(last[0].seq, 3);
        // Timestamps are monotone even if set_now goes backwards.
        t.set_now(Ns::ZERO);
        t.emit(TraceEvent::FreshAlloc { lp: 9 });
        assert_eq!(t.records().last().unwrap().at, Ns::from_micros(4));
    }

    #[test]
    fn disable_drops_records() {
        let mut t = TraceRing::default();
        t.enable(8);
        t.emit(TraceEvent::Suspend { bank: 1 });
        assert_eq!(t.len(), 1);
        t.disable();
        assert!(t.is_empty());
        t.emit(TraceEvent::Suspend { bank: 1 });
        assert!(t.is_empty());
    }

    #[test]
    fn event_display_is_compact() {
        let e = TraceEvent::CleanStart {
            position: 3,
            victim: 7,
            live_pages: 100,
        };
        assert_eq!(e.to_string(), "clean-start pos=3 victim=7 live=100");
        assert_eq!(
            TraceEvent::Stall {
                waited: Ns::from_micros(4)
            }
            .to_string(),
            "stall waited=4.000us"
        );
    }
}
