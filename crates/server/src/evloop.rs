//! Readiness-driven serving: one event-loop thread multiplexes every
//! connection over epoll(7) (Linux) or poll(2) (portable fallback).
//!
//! Each connection is a **state machine** driven by readiness events,
//! not a thread, so 10 000 mostly-idle connections cost a few hundred
//! bytes and one descriptor each:
//!
//! ```text
//!            readable                admitted              result
//! [reading] ──────────> FrameDecoder ────────> shard (run) ─────────┐
//!     ^                                                             │
//!     │           write (one buffer, partial-write continuation)    v
//!     └────────────────────────────────────────────────── [write queue]
//! ```
//!
//! A shard is a passive object (see [`shard`](crate::shard)), so the
//! loop runs each request to completion before it takes the next frame,
//! on its own thread: at once on an idle shard, or, on a shard another
//! thread holds (only possible when a caller kept a [`ShardHandle`]
//! beside the server), once that thread lets go of it. Either way the
//! result comes back from the submit and goes straight into the
//! connection's write queue, so:
//!
//! * **Per-connection reply order** — replies, and the ones the loop
//!   writes itself (`ERR` id 0 for a malformed frame, `Busy`, a
//!   rejection, the shutdown ack), are queued in request order.
//! * **No per-request buffer allocation** — frames are parsed out of
//!   one compacting buffer per connection
//!   ([`FrameDecoder`](crate::proto::FrameDecoder)), and replies are
//!   framed onto the end of one output buffer per connection by the
//!   frame writer the client's requests go through.
//! * **One output FIFO** — a flush writes that buffer's unwritten bytes
//!   with plain `write`s until the socket would block, so pipelined
//!   replies leave together, and continues mid-frame under `EPOLLOUT`
//!   interest. Written bytes are dropped before a reply lands behind a
//!   mostly written backlog, and capacity above 16 KiB is released once
//!   everything is written.
//! * **Bounded output** — once a connection's unwritten output passes
//!   [`OUTPUT_HIGH_WATER`], the loop takes no more frames from its
//!   decoder and stops reading its socket. The flush that brings the
//!   backlog back under the mark runs the frames already decoded, then
//!   reading resumes. A client that pipelines without reading holds the
//!   mark plus one reply in the server, not its whole reply stream.
//!
//! Both poller backends run this same loop. `tests/driver_diff.rs`
//! holds each to the answer a socket-free, in-order replay of the same
//! frames through the shard gives, byte for byte. `Busy` backpressure
//! leaves the retry to the client, and a disconnect's cleanup aborts
//! run after every request it admitted, so an admitted commit always
//! wins over the disconnect.

use crate::net::{Listener, NetConfig, ServeSummary, Stream};
use crate::proto::{self, WireBody, WireOutcome, WireRequest, WireResponse};
use crate::shard::{Reply, Request, ServeError, ShardHandle, ShardedStore, SubmitError};
use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle tick: how long `epoll_wait`/`poll` parks before re-checking
/// the stop flag and the idle sweep.
const EVLOOP_TICK: Duration = Duration::from_millis(25);
/// Drain tick once shutdown has begun.
const DRAIN_TICK: Duration = Duration::from_millis(1);
/// Socket-read chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// Per-connection read budget per event, for fairness.
const READ_BUDGET: usize = 256 * 1024;
/// Output-buffer capacity a connection keeps once its replies are all
/// written.
const OUT_BUF_CAP: usize = 16 * 1024;
/// Unwritten output, in bytes, above which a connection is held: no
/// frame is taken from its decoder and its read interest is dropped
/// until a flush brings the backlog back under the mark. Above
/// [`proto::MAX_FRAME`], so a held connection is always owed more than
/// one reply of any size.
pub const OUTPUT_HIGH_WATER: usize = 2 * proto::MAX_FRAME;

const TOK_LISTENER: u64 = 0;
const TOK_BASE: u64 = 1;

// ---------------------------------------------------------------------
// Raw syscalls
//
// The workspace has no external crates; std already links libc, so the
// handful of syscalls the loop needs are declared directly.
// ---------------------------------------------------------------------

mod sys {
    use std::os::raw::{c_int, c_ulong};

    /// `struct pollfd` for `poll(2)`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "linux")]
    pub use linux::*;

    #[cfg(target_os = "linux")]
    mod linux {
        use std::os::raw::c_int;

        /// `struct epoll_event`; packed on x86 so the layout matches
        /// the kernel ABI.
        #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
        #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLL_CLOEXEC: c_int = 0x80000;

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout_ms: c_int,
            ) -> c_int;
        }
    }

    #[cfg(target_os = "linux")]
    pub const RLIMIT_NOFILE: c_int = 7;
    #[cfg(not(target_os = "linux"))]
    pub const RLIMIT_NOFILE: c_int = 8;

    /// `struct rlimit` (LP64).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }
}

fn last_err() -> io::Error {
    io::Error::last_os_error()
}

/// Raise the process's open-file soft limit to at least `target`
/// descriptors (the 10k-connection load axis needs ~2 fds per
/// connection when client and server share a process). Returns the
/// resulting soft limit; the hard limit is raised too when the process
/// may (root), otherwise the soft limit is clamped to the hard limit.
///
/// # Errors
///
/// The underlying `getrlimit`/`setrlimit` failure if the limit could
/// not be read or raised at all.
pub fn raise_nofile(target: u64) -> io::Result<u64> {
    let mut lim = sys::RLimit { cur: 0, max: 0 };
    if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(last_err());
    }
    if lim.cur >= target {
        return Ok(lim.cur);
    }
    let want = sys::RLimit {
        cur: target,
        max: lim.max.max(target),
    };
    if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) } == 0 {
        return Ok(want.cur);
    }
    // No privilege to raise the hard limit: settle for it.
    let clamped = sys::RLimit {
        cur: target.min(lim.max),
        max: lim.max,
    };
    if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &clamped) } == 0 {
        return Ok(clamped.cur);
    }
    Err(last_err())
}

/// Whether an `accept` failure says the process or the kernel is short
/// of a resource (`EMFILE`, `ENFILE`, `ENOBUFS`, `ENOMEM`) or the queued
/// peer gave up (`ECONNABORTED`). The listener itself is still good, so
/// the server sheds load and looks again shortly rather than shutting
/// down. std has no stable `ErrorKind` for the first three.
fn accept_backpressure(e: &io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    #[cfg(target_os = "linux")]
    const ENOBUFS: i32 = 105;
    #[cfg(not(target_os = "linux"))]
    const ENOBUFS: i32 = 55;
    matches!(
        e.kind(),
        io::ErrorKind::OutOfMemory | io::ErrorKind::ConnectionAborted
    ) || matches!(e.raw_os_error(), Some(ENFILE | EMFILE | ENOBUFS))
}

// ---------------------------------------------------------------------
// Poller
// ---------------------------------------------------------------------

/// Which readiness backend the loop runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// epoll(7); Linux only.
    #[cfg(target_os = "linux")]
    Epoll,
    /// poll(2); compiles everywhere, O(n) per tick.
    Poll,
}

/// One readiness event, normalized across backends. Error/hangup
/// conditions surface as `readable` so the read path observes the
/// EOF/error; `hup` additionally flags a peer that is fully gone.
#[derive(Debug, Clone, Copy)]
struct Ev {
    token: u64,
    readable: bool,
    writable: bool,
    hup: bool,
}

enum Poller {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
        events: Vec<sys::EpollEvent>,
    },
    Poll {
        fds: Vec<sys::PollFd>,
        tokens: Vec<u64>,
    },
}

impl Poller {
    fn new(backend: Backend) -> io::Result<Poller> {
        match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => {
                let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(last_err());
                }
                Ok(Poller::Epoll {
                    epfd,
                    events: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
                })
            }
            Backend::Poll => Ok(Poller::Poll {
                fds: Vec::new(),
                tokens: Vec::new(),
            }),
        }
    }

    #[cfg(target_os = "linux")]
    fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: mask,
            data: token,
        };
        if unsafe { sys::epoll_ctl(epfd, op, fd, &mut ev) } != 0 {
            return Err(last_err());
        }
        Ok(())
    }

    fn register(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd, .. } => Self::epoll_ctl(
                *epfd,
                sys::EPOLL_CTL_ADD,
                fd,
                epoll_mask(read, write),
                token,
            ),
            Poller::Poll { fds, tokens } => {
                fds.push(sys::PollFd {
                    fd,
                    events: poll_mask(read, write),
                    revents: 0,
                });
                tokens.push(token);
                Ok(())
            }
        }
    }

    fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd, .. } => Self::epoll_ctl(
                *epfd,
                sys::EPOLL_CTL_MOD,
                fd,
                epoll_mask(read, write),
                token,
            ),
            Poller::Poll { fds, .. } => {
                if let Some(f) = fds.iter_mut().find(|f| f.fd == fd) {
                    f.events = poll_mask(read, write);
                }
                Ok(())
            }
        }
    }

    fn deregister(&mut self, fd: RawFd) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd, .. } => {
                let _ = Self::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
            }
            Poller::Poll { fds, tokens } => {
                if let Some(i) = fds.iter().position(|f| f.fd == fd) {
                    fds.swap_remove(i);
                    tokens.swap_remove(i);
                }
            }
        }
    }

    /// One blocking wait; readiness events are appended to `out`.
    fn wait(&mut self, timeout: Duration, out: &mut Vec<Ev>) -> io::Result<()> {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll { epfd, events } => {
                let n =
                    unsafe { sys::epoll_wait(*epfd, events.as_mut_ptr(), events.len() as i32, ms) };
                if n < 0 {
                    let e = last_err();
                    return if e.kind() == io::ErrorKind::Interrupted {
                        Ok(())
                    } else {
                        Err(e)
                    };
                }
                let n = n as usize;
                for e in &events[..n] {
                    let mask = e.events;
                    out.push(Ev {
                        token: e.data,
                        readable: mask
                            & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP)
                            != 0,
                        writable: mask & sys::EPOLLOUT != 0,
                        hup: mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    });
                }
                // A full buffer may mean more events are pending.
                if n == events.len() {
                    events.resize(n * 2, sys::EpollEvent { events: 0, data: 0 });
                }
                Ok(())
            }
            Poller::Poll { fds, tokens } => {
                for f in fds.iter_mut() {
                    f.revents = 0;
                }
                let n =
                    unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, ms) };
                if n < 0 {
                    let e = last_err();
                    return if e.kind() == io::ErrorKind::Interrupted {
                        Ok(())
                    } else {
                        Err(e)
                    };
                }
                for (f, tok) in fds.iter().zip(tokens.iter()) {
                    let re = f.revents;
                    if re != 0 {
                        out.push(Ev {
                            token: *tok,
                            readable: re
                                & (sys::POLLIN | sys::POLLERR | sys::POLLHUP | sys::POLLNVAL)
                                != 0,
                            writable: re & sys::POLLOUT != 0,
                            hup: re & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
                        });
                    }
                }
                Ok(())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Poller::Epoll { epfd, .. } = self {
            unsafe {
                sys::close(*epfd);
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_mask(read: bool, write: bool) -> u32 {
    let mut mask = 0;
    if read {
        mask |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if write {
        mask |= sys::EPOLLOUT;
    }
    mask
}

fn poll_mask(read: bool, write: bool) -> i16 {
    let mut mask = 0;
    if read {
        mask |= sys::POLLIN;
    }
    if write {
        mask |= sys::POLLOUT;
    }
    mask
}

// ---------------------------------------------------------------------
// Write queue
// ---------------------------------------------------------------------

/// Per-connection outgoing bytes as one FIFO: each reply is framed
/// straight onto the end of `buf`, and a flush writes `buf[head..]`,
/// continuing mid-frame after a partial write. Steady state allocates
/// nothing per reply.
#[derive(Default)]
struct WriteQueue {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already written to the socket.
    head: usize,
}

impl WriteQueue {
    /// Bytes framed but not yet written.
    fn backlog(&self) -> usize {
        self.buf.len() - self.head
    }

    fn is_empty(&self) -> bool {
        self.backlog() == 0
    }

    fn push(&mut self, resp: &WireResponse) {
        // Behind a backlog that is more written than not, drop the
        // written bytes first: the buffer holds at most about twice its
        // unwritten backlog, and fewer bytes are moved than written.
        if self.head > self.buf.len() - self.head {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        // Cannot fail: the only reply that could outgrow a frame is
        // refused as a request (`proto::check_answerable`).
        proto::push_response_frame(&mut self.buf, resp);
    }

    /// Drop every byte, and capacity above `OUT_BUF_CAP`.
    fn clear(&mut self) {
        self.buf.clear();
        self.buf.shrink_to(OUT_BUF_CAP);
        self.head = 0;
    }

    /// Flush as much as the socket accepts; `Ok(true)` when emptied,
    /// `Ok(false)` when the socket would block mid-buffer.
    fn flush(&mut self, stream: &mut Stream) -> io::Result<bool> {
        while !self.is_empty() {
            match stream.write(&self.buf[self.head..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.head += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.clear();
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Connection state machine.
struct Conn {
    stream: Stream,
    fd: RawFd,
    decoder: proto::FrameDecoder,
    wq: WriteQueue,
    /// Transactions this connection opened and has not yet resolved,
    /// keyed by (owning shard, txn id) so that an id completing on
    /// another shard can never resolve the wrong entry.
    open_txns: HashSet<(u32, u64)>,
    /// Read side is done: EOF, error, wire shutdown, idle timeout, or
    /// server drain. No more frames are parsed.
    read_closed: bool,
    /// Socket is unusable for writes too; outgoing data is discarded.
    dead: bool,
    /// Disconnect cleanup (orphan aborts) has run.
    cleaned: bool,
    /// Listed in `EventLoop::dirty` for this tick's flush.
    dirty: bool,
    /// The output backlog passed [`OUTPUT_HIGH_WATER`]: frames wait in
    /// the decoder and the socket is not read until a flush releases it.
    held: bool,
    reg_read: bool,
    reg_write: bool,
    last_activity: Instant,
}

/// The readiness-driven server core. Built on the caller's thread (so
/// poller setup errors surface from `serve_with`), then moved
/// into the serving thread and [`run`](EventLoop::run).
pub(crate) struct EventLoop {
    listener: Listener,
    store: Option<ShardedStore>,
    handle: ShardHandle,
    idle_timeout: Option<Duration>,
    stop: Arc<AtomicBool>,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    free_pending: Vec<usize>,
    live: usize,
    dirty: Vec<usize>,
    finalize: Vec<usize>,
    events: Vec<Ev>,
    scratch: Vec<u8>,
    connections: u64,
    requests: u64,
    /// Largest unwritten output any connection held before a flush.
    max_output_backlog: usize,
    draining_all: bool,
    accepting: bool,
    /// When `accept` last failed under resource pressure; the listener
    /// is not polled again until a tick has passed.
    accept_paused: Option<Instant>,
}

enum Step {
    Req(WireRequest),
    Malformed,
}

impl EventLoop {
    pub(crate) fn new(
        listener: Listener,
        store: ShardedStore,
        cfg: NetConfig,
        stop: Arc<AtomicBool>,
    ) -> io::Result<EventLoop> {
        let backend = cfg.backend();
        let mut poller = Poller::new(backend)?;
        poller.register(listener.as_raw(), TOK_LISTENER, true, false)?;
        let handle = store.handle();
        Ok(EventLoop {
            listener,
            store: Some(store),
            handle,
            idle_timeout: cfg.idle_timeout,
            stop,
            poller,
            conns: Vec::new(),
            free: Vec::new(),
            free_pending: Vec::new(),
            live: 0,
            dirty: Vec::new(),
            finalize: Vec::new(),
            events: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
            connections: 0,
            requests: 0,
            max_output_backlog: 0,
            draining_all: false,
            accepting: true,
            accept_paused: None,
        })
    }

    pub(crate) fn run(mut self) -> ServeSummary {
        loop {
            if self.stop.load(Ordering::SeqCst) && !self.draining_all {
                self.begin_drain();
            }
            if self.draining_all && self.live == 0 {
                break;
            }
            if self.accepting
                && self
                    .accept_paused
                    .is_some_and(|since| since.elapsed() >= EVLOOP_TICK)
            {
                self.poll_listener(true);
            }
            let tick = if self.draining_all {
                DRAIN_TICK
            } else {
                EVLOOP_TICK
            };
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            if self.poller.wait(tick, &mut events).is_err() {
                // Fatal poller failure: drain and shut down, like a
                // fatal listener error.
                self.stop.store(true, Ordering::SeqCst);
            }
            for &ev in &events {
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    t => self.conn_event((t - TOK_BASE) as usize, ev),
                }
            }
            self.events = events;
            self.idle_sweep();
            self.run_finalize();
            self.flush_dirty();
            // Slots freed this tick become reusable only next tick, so
            // a stale event can never reach a fresh connection.
            self.free.append(&mut self.free_pending);
        }
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        let outcome = self
            .store
            .take()
            .expect("store present until shutdown")
            .shutdown();
        ServeSummary {
            connections: self.connections,
            requests: self.requests,
            max_output_backlog: self.max_output_backlog,
            outcome,
        }
    }

    fn begin_drain(&mut self) {
        self.draining_all = true;
        if self.accepting {
            self.poller.deregister(self.listener.as_raw());
            self.accepting = false;
        }
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close_read_side(slot);
            }
        }
    }

    /// Start or stop polling the listener. A poller that cannot be told
    /// is as fatal as one that cannot wait.
    fn poll_listener(&mut self, on: bool) {
        if self
            .poller
            .modify(self.listener.as_raw(), TOK_LISTENER, on, false)
            .is_err()
        {
            self.stop.store(true, Ordering::SeqCst);
        }
        self.accept_paused = (!on).then(Instant::now);
    }

    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok(stream) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let fd = stream.as_raw();
                    let conn = Conn {
                        stream,
                        fd,
                        decoder: proto::FrameDecoder::new(),
                        wq: WriteQueue::default(),
                        open_txns: HashSet::new(),
                        read_closed: false,
                        dead: false,
                        cleaned: false,
                        dirty: false,
                        held: false,
                        reg_read: true,
                        reg_write: false,
                        last_activity: Instant::now(),
                    };
                    let slot = match self.free.pop() {
                        Some(s) => {
                            self.conns[s] = Some(conn);
                            s
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.conns.len() - 1
                        }
                    };
                    if self
                        .poller
                        .register(fd, TOK_BASE + slot as u64, true, false)
                        .is_err()
                    {
                        self.conns[slot] = None;
                        self.free_pending.push(slot);
                        continue;
                    }
                    self.connections += 1;
                    self.live += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Shed load: the backlog stays with the kernel and the
                // listener goes unpolled for a tick — both pollers are
                // level-triggered, so a listener left readable would
                // spin the loop.
                Err(e) if accept_backpressure(&e) => {
                    self.poll_listener(false);
                    break;
                }
                // Fatal listener error stops the server gracefully.
                Err(_) => {
                    self.stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
    }

    fn conn_event(&mut self, slot: usize, ev: Ev) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if ev.hup && conn.read_closed {
            // Peer fully gone while we were only holding the write
            // side open: stop trying to flush.
            conn.dead = true;
            conn.wq.clear();
            if !conn.cleaned {
                self.finalize.push(slot);
            }
            self.mark_dirty(slot);
            return;
        }
        if ev.readable {
            self.read_conn(slot);
        }
        if ev.writable {
            self.mark_dirty(slot);
        }
    }

    fn mark_dirty(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].as_mut() {
            if !conn.dirty {
                conn.dirty = true;
                self.dirty.push(slot);
            }
        }
    }

    fn read_conn(&mut self, slot: usize) {
        let mut budget = READ_BUDGET;
        // EOF is recorded locally and applied only after the frames, so
        // every complete frame that arrived before the EOF is still
        // processed.
        let mut saw_eof = false;
        {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.read_closed {
                return;
            }
            // A held connection's socket waits for the flush that
            // releases it; the flush below still notices a dead peer.
            while !conn.held {
                match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        // EOF — also how a half-closed socket (peer
                        // shut down its write side) announces itself;
                        // open transactions get aborted exactly as on
                        // a full disconnect.
                        saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.push(&self.scratch[..n]);
                        conn.last_activity = Instant::now();
                        budget = budget.saturating_sub(n);
                        // A short read emptied the socket. Both pollers
                        // are level-triggered, so whatever arrives next
                        // (an EOF included) is reported again: reading
                        // on until EAGAIN only buys a failed syscall.
                        if budget == 0 || n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        saw_eof = true;
                        conn.dead = true;
                        break;
                    }
                }
            }
        }
        self.take_frames(slot);
        if saw_eof {
            if let Some(conn) = self.conns[slot].as_mut() {
                // A held connection keeps its undecoded frames; the EOF
                // is read again once reading resumes.
                if !conn.held || conn.dead {
                    conn.read_closed = true;
                }
            }
        }
        self.after_read(slot);
    }

    /// Run the complete frames in a connection's decoder until it runs
    /// dry or the connection is held: its unwritten output has passed
    /// [`OUTPUT_HIGH_WATER`]. Each frame adds at most one reply, so the
    /// backlog stays within the mark plus one reply.
    fn take_frames(&mut self, slot: usize) {
        loop {
            let step = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    return;
                };
                if conn.read_closed || conn.dead {
                    break;
                }
                conn.held = conn.wq.backlog() > OUTPUT_HIGH_WATER;
                if conn.held {
                    break;
                }
                match conn.decoder.next_frame() {
                    Ok(Some(payload)) => match proto::decode_request(payload) {
                        Ok(wreq) => Step::Req(wreq),
                        // Lengths were consistent, so framing is still
                        // in sync: answer id 0, keep the connection.
                        Err(_) => Step::Malformed,
                    },
                    Ok(None) => break,
                    Err(_) => {
                        // Over-large announcement: the stream cannot
                        // be resynchronized; drop the connection.
                        conn.read_closed = true;
                        conn.dead = true;
                        break;
                    }
                }
            };
            match step {
                Step::Req(wreq) => self.process_request(slot, wreq),
                Step::Malformed => self.enqueue(
                    slot,
                    WireResponse {
                        id: 0,
                        shard: 0,
                        outcome: WireOutcome::Err(ServeError::Store("malformed request".into())),
                    },
                ),
            }
        }
    }

    /// Post-read bookkeeping: adjust poller interest and queue the
    /// connection for finalize/flush as needed.
    fn after_read(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.read_closed && !conn.cleaned {
            self.finalize.push(slot);
        }
        self.mark_dirty(slot);
    }

    /// Run one request to completion and queue its reply, or the
    /// refusal that stands for it.
    fn process_request(&mut self, slot: usize, wreq: WireRequest) {
        let id = wreq.id;
        let deadline = wreq.deadline();
        let req = match wreq.body {
            WireBody::Req(req) => req,
            WireBody::Shutdown => {
                let outcome = WireOutcome::ShutdownAck;
                self.enqueue(
                    slot,
                    WireResponse {
                        id,
                        shard: 0,
                        outcome,
                    },
                );
                self.stop.store(true, Ordering::SeqCst);
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.read_closed = true;
                }
                return;
            }
        };
        let ran = proto::check_answerable(&req).and_then(|()| self.handle.run(id, req, deadline));
        let (shard, outcome) = match ran {
            Ok((shard, result)) => {
                self.requests += 1;
                if let Some(conn) = self.conns[slot].as_mut() {
                    match &result {
                        Ok(Reply::TxnStarted { txn }) => {
                            conn.open_txns.insert((shard, *txn));
                        }
                        Ok(Reply::Committed { txn }) | Ok(Reply::Aborted { txn }) => {
                            conn.open_txns.remove(&(shard, *txn));
                        }
                        _ => {}
                    }
                }
                match result {
                    Ok(reply) => (shard, WireOutcome::Reply(reply)),
                    Err(e) => (shard, WireOutcome::Err(e)),
                }
            }
            Err(SubmitError::Busy(b)) => (b.shard, WireOutcome::Busy(b)),
            Err(SubmitError::Rejected(e)) => (0, WireOutcome::Err(e)),
        };
        self.enqueue(slot, WireResponse { id, shard, outcome });
    }

    /// Queue a reply on a connection; a dead one's is discarded.
    fn enqueue(&mut self, slot: usize, resp: WireResponse) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if !conn.dead {
            conn.wq.push(&resp);
        }
        self.mark_dirty(slot);
    }

    /// Run the disconnect cleanup of a connection whose read side is
    /// closed: abort every transaction it left open. Every request it
    /// admitted has already run, so an admitted commit wins. Runs once
    /// per connection; nobody waits for the answers (an
    /// already-resolved transaction answers `NoSuchTxn`).
    fn run_finalize(&mut self) {
        while let Some(slot) = self.finalize.pop() {
            let orphans: Vec<(u32, u64)> = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    continue;
                };
                if conn.cleaned || !conn.read_closed {
                    continue;
                }
                conn.cleaned = true;
                conn.open_txns.drain().collect()
            };
            for (shard, txn) in orphans {
                let _ = self.handle.call(Request::TxnAbort { shard, txn });
            }
            self.maybe_close(slot);
        }
    }

    fn idle_sweep(&mut self) {
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let expire = match &self.conns[slot] {
                Some(c) => !c.read_closed && now.duration_since(c.last_activity) > timeout,
                None => false,
            };
            if expire {
                self.close_read_side(slot);
            }
        }
    }

    /// Stop reading a connection (server drain or idle timeout): parse
    /// no more frames, finish delivering what was admitted, then abort
    /// its leftover transactions and close.
    fn close_read_side(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.read_closed = true;
        if !conn.cleaned {
            self.finalize.push(slot);
        }
        self.mark_dirty(slot);
    }

    fn flush_dirty(&mut self) {
        while let Some(slot) = self.dirty.pop() {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.dirty = false;
            }
            self.try_flush(slot);
        }
    }

    fn try_flush(&mut self, slot: usize) {
        let released = {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            self.max_output_backlog = self.max_output_backlog.max(conn.wq.backlog());
            if conn.dead {
                conn.wq.clear();
            } else if let Err(_e) = conn.wq.flush(&mut conn.stream) {
                // Dead client: discard its output from here on.
                conn.dead = true;
                conn.wq.clear();
            }
            let released = conn.held && conn.wq.backlog() <= OUTPUT_HIGH_WATER;
            if released {
                conn.held = false;
            }
            released
        };
        if released {
            // Back under the mark: run the frames already decoded before
            // reading more. Their replies mark the connection dirty
            // again, so this tick's flush loop writes them.
            self.take_frames(slot);
            self.after_read(slot);
        }
        {
            let poller = &mut self.poller;
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let want_r = !conn.read_closed && !conn.held;
            let want_w = !conn.wq.is_empty() && !conn.dead;
            if (want_r, want_w) != (conn.reg_read, conn.reg_write) {
                let _ = poller.modify(conn.fd, TOK_BASE + slot as u64, want_r, want_w);
                conn.reg_read = want_r;
                conn.reg_write = want_w;
            }
        }
        self.maybe_close(slot);
    }

    /// Close once the state machine is finished: read side closed,
    /// cleanup run, and the write queue flushed (or the socket
    /// dead).
    fn maybe_close(&mut self, slot: usize) {
        let close = match self.conns[slot].as_ref() {
            Some(c) => c.cleaned && (c.wq.is_empty() || c.dead),
            None => false,
        };
        if close {
            let conn = self.conns[slot].take().expect("checked above");
            self.poller.deregister(conn.fd);
            drop(conn);
            self.live -= 1;
            self.free_pending.push(slot);
        }
    }
}
