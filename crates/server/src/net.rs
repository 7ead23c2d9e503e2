//! TCP and Unix-socket serving over the [`proto`] frames.
//!
//! Two interchangeable connection drivers sit behind one wire
//! contract, selected by [`NetConfig::driver`]:
//!
//! * [`NetDriver::Epoll`] (default) — a readiness-driven event loop
//!   ([`evloop`](crate::evloop)): one thread multiplexes every
//!   connection with nonblocking sockets, incremental frame decoding
//!   and vectored writes. Scales to tens of thousands of connections.
//! * [`NetDriver::Threads`] — the original thread-per-connection
//!   model: each accepted connection gets a reader thread (decodes
//!   frames, admits requests into the sharded store) and a writer
//!   thread (drains typed completions back onto the socket). Kept as
//!   the A/B reference; `tests/driver_diff.rs` proves both drivers
//!   produce identical wire bytes.
//!
//! Under either driver requests **pipeline** — a client may have any
//! number outstanding and completions may return out of order, matched
//! by id.
//!
//! Graceful shutdown (via [`ServerHandle::request_shutdown`] or the
//! wire `SHUTDOWN` opcode) stops accepting, stops reading, lets every
//! admitted request complete and flush to its client, joins the
//! connection threads, and only then drains the sharded store itself.
//! A connection that dies mid-pipeline only loses its own completions:
//! its writer keeps draining (discarding) so a shard never waits on a
//! dead client, and every other connection is untouched.
//!
//! # Transactions and disconnects
//!
//! A transaction opened over the wire is owned by the connection that
//! opened it. When a connection ends — clean EOF, socket error, or
//! server shutdown — any transaction it started and never resolved is
//! **aborted** on its shard, so a crashed client cannot pin shadow
//! pages (and the shard's single transaction slot) forever. The abort
//! happens after the writer drains, so a commit or abort that was
//! already admitted always wins over the disconnect cleanup.

use crate::proto::{self, ProtoError, WireBody, WireOutcome, WireRequest, WireResponse, MAX_FRAME};
use crate::shard::{
    Reply, Request, Response, ServeError, ServeOutcome, ShardHandle, ShardedStore, SubmitError,
};
use std::collections::HashSet;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a blocked reader waits before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Accept-loop poll interval.
const ACCEPT_INTERVAL: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------
// Streams and listeners
// ---------------------------------------------------------------------

/// A connected byte stream: TCP or Unix.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nb),
            Stream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    pub(crate) fn as_raw(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound server socket: TCP or Unix.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener and the path it is bound to (unlinked
    /// when serving stops).
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn bind_tcp<A: ToSocketAddrs>(addr: A) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Bind a Unix-domain listener, replacing a stale socket file if one
    /// exists.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn bind_unix<P: AsRef<Path>>(path: P) -> io::Result<Listener> {
        let path = path.as_ref();
        let _ = std::fs::remove_file(path);
        Ok(Listener::Unix(
            UnixListener::bind(path)?,
            path.to_path_buf(),
        ))
    }

    /// A printable address clients can connect to: `host:port` for TCP,
    /// the socket path for Unix.
    pub fn describe(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<tcp>".into()),
            Listener::Unix(_, p) => p.display().to_string(),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }

    pub(crate) fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
            Listener::Unix(l, _) => Stream::Unix(l.accept()?.0),
        })
    }

    pub(crate) fn as_raw(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

// ---------------------------------------------------------------------
// Driver selection
// ---------------------------------------------------------------------

/// Which connection-handling driver [`serve_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetDriver {
    /// Readiness-driven event loop; epoll(7) on Linux, poll(2)
    /// elsewhere (a compile-time choice — this variant always picks
    /// the platform's best backend).
    #[default]
    Epoll,
    /// Readiness-driven event loop on the portable poll(2) backend,
    /// even where epoll is available. Useful for A/B-testing the
    /// fallback path.
    Poll,
    /// Thread-per-connection: a reader and a writer thread per
    /// accepted connection.
    Threads,
}

impl NetDriver {
    /// Parse a `--net-driver` flag value (`threads`, `epoll`, `poll`).
    pub fn parse(s: &str) -> Option<NetDriver> {
        match s {
            "epoll" => Some(NetDriver::Epoll),
            "poll" => Some(NetDriver::Poll),
            "threads" => Some(NetDriver::Threads),
            _ => None,
        }
    }

    /// The flag spelling of this driver.
    pub fn name(&self) -> &'static str {
        match self {
            NetDriver::Epoll => "epoll",
            NetDriver::Poll => "poll",
            NetDriver::Threads => "threads",
        }
    }
}

/// Serving configuration beyond the listener itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetConfig {
    /// Connection driver (default [`NetDriver::Epoll`]).
    pub driver: NetDriver,
    /// Close a connection whose read side has been silent this long
    /// (its open transactions are aborted exactly as on disconnect).
    /// `None` (the default) never times out.
    pub idle_timeout: Option<Duration>,
}

impl NetConfig {
    pub(crate) fn backend(&self) -> crate::evloop::Backend {
        match self.driver {
            #[cfg(target_os = "linux")]
            NetDriver::Epoll => crate::evloop::Backend::Epoll,
            #[cfg(not(target_os = "linux"))]
            NetDriver::Epoll => crate::evloop::Backend::Poll,
            NetDriver::Poll => crate::evloop::Backend::Poll,
            NetDriver::Threads => unreachable!("threads driver has no poller backend"),
        }
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// What a completed [`serve`] run reports.
#[derive(Debug)]
pub struct ServeSummary {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests admitted into the sharded store.
    pub requests: u64,
    /// The drained store's per-shard outcomes.
    pub outcome: ServeOutcome,
}

/// A running server; joinable back into a [`ServeSummary`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: String,
    stop: Arc<AtomicBool>,
    join: JoinHandle<ServeSummary>,
}

impl ServerHandle {
    /// The address clients connect to ([`Listener::describe`]).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Ask the server to shut down gracefully (idempotent, non-blocking).
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Wait for the server to finish (after a shutdown request, a wire
    /// `SHUTDOWN`, or a fatal listener error).
    ///
    /// # Panics
    ///
    /// Panics if the accept thread panicked.
    pub fn wait(self) -> ServeSummary {
        self.join.join().expect("server accept thread panicked")
    }

    /// [`request_shutdown`](ServerHandle::request_shutdown) then
    /// [`wait`](ServerHandle::wait).
    pub fn shutdown(self) -> ServeSummary {
        self.request_shutdown();
        self.wait()
    }
}

/// Serve a sharded store on a listener with the default
/// [`NetConfig`] (epoll driver, no idle timeout). Returns immediately;
/// the returned handle joins the serving thread.
///
/// # Errors
///
/// Socket errors configuring the listener.
pub fn serve(listener: Listener, store: ShardedStore) -> io::Result<ServerHandle> {
    serve_with(listener, store, NetConfig::default())
}

/// [`serve`] with an explicit driver and idle-timeout configuration.
///
/// # Errors
///
/// Socket errors configuring the listener, or (for the event-loop
/// drivers) setting up the poller/waker.
pub fn serve_with(
    listener: Listener,
    store: ShardedStore,
    cfg: NetConfig,
) -> io::Result<ServerHandle> {
    listener.set_nonblocking(true)?;
    let addr = listener.describe();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = match cfg.driver {
        NetDriver::Threads => std::thread::Builder::new()
            .name("envy-serve-accept".into())
            .spawn(move || accept_loop(listener, store, flag, cfg.idle_timeout))
            .expect("spawn accept thread"),
        NetDriver::Epoll | NetDriver::Poll => {
            let evloop = crate::evloop::EventLoop::new(listener, store, cfg, flag)?;
            std::thread::Builder::new()
                .name("envy-serve-evloop".into())
                .spawn(move || evloop.run())
                .expect("spawn event-loop thread")
        }
    };
    Ok(ServerHandle { addr, stop, join })
}

/// Whether an `accept` failure says the process or the kernel is short
/// of a resource (`EMFILE`, `ENFILE`, `ENOBUFS`, `ENOMEM`) or the queued
/// peer gave up (`ECONNABORTED`). The listener itself is still good, so
/// the server sheds load and looks again shortly rather than shutting
/// down. std has no stable `ErrorKind` for the first three.
pub(crate) fn accept_backpressure(e: &io::Error) -> bool {
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

fn accept_loop(
    listener: Listener,
    store: ShardedStore,
    stop: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
) -> ServeSummary {
    let requests = Arc::new(AtomicU64::new(0));
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut connections = 0u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                connections += 1;
                let handle = store.handle();
                let flag = Arc::clone(&stop);
                let reqs = Arc::clone(&requests);
                conns.push(
                    std::thread::Builder::new()
                        .name(format!("envy-serve-conn-{connections}"))
                        .spawn(move || connection(stream, handle, flag, reqs, idle_timeout))
                        .expect("spawn connection thread"),
                );
            }
            // Nothing queued, or nothing to take it with: look again
            // shortly.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || accept_backpressure(&e) => {
                std::thread::sleep(ACCEPT_INTERVAL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // A fatal listener error stops the server gracefully.
            Err(_) => stop.store(true, Ordering::SeqCst),
        }
        conns.retain(|c| !c.is_finished());
    }
    for c in conns {
        let _ = c.join();
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    drop(listener);
    let outcome = store.shutdown();
    ServeSummary {
        connections,
        requests: requests.load(Ordering::Relaxed),
        outcome,
    }
}

/// One poll step of the incremental frame reader.
enum PollRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// No complete frame yet (timeout); buffered bytes are retained.
    Idle,
    /// Peer closed cleanly at a frame boundary.
    Eof,
}

/// Incremental frame reader: accumulates across read timeouts so a
/// timeout mid-frame never loses sync.
struct FrameReader {
    stream: Stream,
    buf: Vec<u8>,
}

impl FrameReader {
    fn poll(&mut self) -> io::Result<PollRead> {
        let mut chunk = [0u8; 4096];
        loop {
            if self.buf.len() >= 4 {
                let len =
                    u32::from_le_bytes(self.buf[..4].try_into().expect("4-byte header")) as usize;
                if len > MAX_FRAME {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "announced frame exceeds MAX_FRAME",
                    ));
                }
                if self.buf.len() >= 4 + len {
                    let payload = self.buf[4..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok(PollRead::Frame(payload));
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(PollRead::Eof)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "eof inside frame",
                        ))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(PollRead::Idle);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn wire_of(resp: Response) -> WireResponse {
    WireResponse {
        id: resp.id,
        shard: resp.shard,
        outcome: match resp.result {
            Ok(reply) => WireOutcome::Reply(reply),
            Err(e) => WireOutcome::Err(e),
        },
    }
}

fn send_direct(write: &Mutex<Stream>, resp: &WireResponse) {
    let frame = proto::encode_response(resp);
    let mut w = write.lock().expect("write half poisoned");
    // The ignored error is a dead client's socket. It is never an
    // over-size frame: the only reply that could outgrow one is refused
    // as a request (`proto::check_answerable`).
    let _ = proto::write_frame(&mut *w, &frame);
}

fn connection(
    stream: Stream,
    handle: ShardHandle,
    stop: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    idle_timeout: Option<Duration>,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let write = Arc::new(Mutex::new(write_half));
    let (rtx, rrx) = mpsc::channel::<Response>();
    // Transactions this connection opened and has not yet resolved,
    // keyed by (owning shard, txn id) — ids are globally unique across
    // shards (disjoint residues, see `ShardedStore::launch_from`), but
    // the shard is kept in the key anyway so an id alone can never
    // resolve the wrong entry. The writer thread maintains the set from
    // the completion stream (it sees every TxnStarted / Committed /
    // Aborted in shard order), and the tail of `connection` aborts
    // whatever is left after a disconnect.
    let open_txns: Arc<Mutex<HashSet<(u32, u64)>>> = Arc::new(Mutex::new(HashSet::new()));
    // Writer: drain completions onto the socket. Write errors (dead
    // client) are swallowed — the drain must continue so a shard is
    // never coupled to a client's fate.
    let writer = {
        let write = Arc::clone(&write);
        let open_txns = Arc::clone(&open_txns);
        std::thread::Builder::new()
            .name("envy-serve-writer".into())
            .spawn(move || {
                for resp in rrx {
                    match resp.result {
                        Ok(Reply::TxnStarted { txn }) => {
                            open_txns
                                .lock()
                                .expect("txn table poisoned")
                                .insert((resp.shard, txn));
                        }
                        Ok(Reply::Committed { txn }) | Ok(Reply::Aborted { txn }) => {
                            open_txns
                                .lock()
                                .expect("txn table poisoned")
                                .remove(&(resp.shard, txn));
                        }
                        _ => {}
                    }
                    send_direct(&write, &wire_of(resp));
                }
            })
            .expect("spawn connection writer")
    };
    let mut reader = FrameReader {
        stream,
        buf: Vec::new(),
    };
    let mut last_activity = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        match reader.poll() {
            Ok(PollRead::Frame(payload)) => {
                last_activity = Instant::now();
                match proto::decode_request(&payload) {
                    Ok(wreq) => {
                        if !handle_request(&handle, &write, &rtx, &requests, &stop, wreq) {
                            break;
                        }
                    }
                    Err(_) => {
                        // Framing is unrecoverable after a bad payload
                        // only if lengths lied; lengths were
                        // consistent, so answer id 0 and keep the
                        // connection. The answer takes the completion
                        // channel, behind the replies already posted.
                        let _ = rtx.send(Response {
                            id: 0,
                            shard: 0,
                            result: Err(ServeError::Store("malformed request".into())),
                        });
                    }
                }
            }
            Ok(PollRead::Idle) => {
                // Idle timeout: stop reading; the tail below aborts
                // this connection's open transactions just as on a
                // disconnect. Catches half-closed peers that never
                // send EOF on our read side but also never speak.
                if let Some(t) = idle_timeout {
                    if last_activity.elapsed() > t {
                        break;
                    }
                }
            }
            Ok(PollRead::Eof) | Err(_) => break,
        }
    }
    // Stop admitting; in-flight jobs still hold sender clones, so the
    // writer drains every admitted completion before exiting.
    drop(rtx);
    let _ = writer.join();
    // Abort-on-disconnect: anything still in the table was begun by
    // this connection and never committed or aborted. Best-effort — a
    // racing resolution surfaces as NoSuchTxn and is ignored.
    let orphans: Vec<(u32, u64)> = open_txns
        .lock()
        .expect("txn table poisoned")
        .drain()
        .collect();
    for (shard, txn) in orphans {
        let _ = handle.call(Request::TxnAbort { shard, txn });
    }
}

/// Handle one decoded request; returns `false` when the connection
/// should stop reading (server shutdown requested).
fn handle_request(
    handle: &ShardHandle,
    write: &Mutex<Stream>,
    rtx: &Sender<Response>,
    requests: &AtomicU64,
    stop: &AtomicBool,
    wreq: WireRequest,
) -> bool {
    let id = wreq.id;
    let deadline = wreq.deadline();
    match wreq.body {
        WireBody::Shutdown => {
            send_direct(
                write,
                &WireResponse {
                    id,
                    shard: 0,
                    outcome: WireOutcome::ShutdownAck,
                },
            );
            stop.store(true, Ordering::SeqCst);
            false
        }
        WireBody::Req(req) => {
            match proto::check_answerable(&req)
                .and_then(|()| handle.submit_with_id(id, req, deadline, rtx))
            {
                Ok(()) => {
                    requests.fetch_add(1, Ordering::Relaxed);
                }
                Err(SubmitError::Busy(b)) => send_direct(
                    write,
                    &WireResponse {
                        id,
                        shard: b.shard,
                        outcome: WireOutcome::Busy(b),
                    },
                ),
                // Behind the completions already posted, like them.
                Err(SubmitError::Rejected(e)) => {
                    let _ = rtx.send(Response {
                        id,
                        shard: 0,
                        result: Err(e),
                    });
                }
            }
            true
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(io::Error),
    /// The server sent a malformed frame.
    Proto(ProtoError),
    /// The request completed with a typed serving error.
    Serve(ServeError),
    /// The server closed the connection.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Serve(e) => write!(f, "{e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A blocking protocol client. Requests may be pipelined with
/// [`submit`](Client::submit) / [`recv`](Client::recv); the convenience
/// calls assume no other completions are outstanding.
///
/// For deep pipelines, [`set_corked`](Client::set_corked) batches
/// submitted frames into one buffer flushed by the next
/// [`recv`](Client::recv) (or an explicit
/// [`flush_submits`](Client::flush_submits)), turning N tiny writes
/// into one syscall.
#[derive(Debug)]
pub struct Client {
    stream: Stream,
    next_id: u64,
    outbuf: Vec<u8>,
    corked: bool,
    decoder: proto::FrameDecoder,
}

impl Client {
    /// Connect over TCP.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect_tcp<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Ok(Client {
            stream: Stream::Tcp(TcpStream::connect(addr)?),
            next_id: 0,
            outbuf: Vec::new(),
            corked: false,
            decoder: proto::FrameDecoder::new(),
        })
    }

    /// Connect over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect_unix<P: AsRef<Path>>(path: P) -> io::Result<Client> {
        Ok(Client {
            stream: Stream::Unix(UnixStream::connect(path)?),
            next_id: 0,
            outbuf: Vec::new(),
            corked: false,
            decoder: proto::FrameDecoder::new(),
        })
    }

    /// Batch submitted frames in memory instead of writing each one
    /// eagerly. Uncorking flushes whatever is buffered.
    ///
    /// # Errors
    ///
    /// Socket errors flushing on uncork.
    pub fn set_corked(&mut self, corked: bool) -> io::Result<()> {
        self.corked = corked;
        if !corked {
            self.flush_submits()?;
        }
        Ok(())
    }

    /// Write out any corked frames now.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn flush_submits(&mut self) -> io::Result<()> {
        if !self.outbuf.is_empty() {
            self.stream.write_all(&self.outbuf)?;
            self.outbuf.clear();
        }
        Ok(())
    }

    /// Send a request without waiting; returns the id its completion
    /// will carry. Any number may be outstanding; completions can
    /// arrive out of order.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn submit(&mut self, req: Request, deadline: Option<Duration>) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.submit_with_id(id, req, deadline)?;
        Ok(id)
    }

    /// [`submit`](Client::submit) with a caller-chosen id (e.g. to retry
    /// a [`Busy`](WireOutcome::Busy) rejection under its original id).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn submit_with_id(
        &mut self,
        id: u64,
        req: Request,
        deadline: Option<Duration>,
    ) -> io::Result<()> {
        let deadline_us = deadline
            .map(|d| d.as_micros().clamp(1, u32::MAX as u128) as u32)
            .unwrap_or(0);
        let frame = proto::encode_request(&WireRequest {
            id,
            deadline_us,
            body: WireBody::Req(req),
        });
        if self.corked {
            self.outbuf
                .extend_from_slice(&(frame.len() as u32).to_le_bytes());
            self.outbuf.extend_from_slice(&frame);
            Ok(())
        } else {
            proto::write_frame(&mut self.stream, &frame)
        }
    }

    /// Block for the next completion.
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] on EOF, otherwise socket or
    /// protocol errors.
    pub fn recv(&mut self) -> Result<WireResponse, ClientError> {
        self.flush_submits()?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => {
                    return proto::decode_response(payload).map_err(ClientError::Proto)
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        e.to_string(),
                    )))
                }
            }
            // One read may deliver many pipelined responses; they drain
            // from the decoder without further syscalls.
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.decoder.mid_frame() {
                        Err(ClientError::Io(io::Error::from(
                            io::ErrorKind::UnexpectedEof,
                        )))
                    } else {
                        Err(ClientError::Disconnected)
                    }
                }
                Ok(n) => self.decoder.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Submit and wait: retries through `Busy` backpressure (sleeping
    /// each `retry_after`). Assumes no other completions are
    /// outstanding.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on socket failure or a typed serving error.
    pub fn call(&mut self, req: Request) -> Result<Reply, ClientError> {
        loop {
            let id = self.submit(req.clone(), None)?;
            let resp = self.recv()?;
            debug_assert_eq!(resp.id, id, "call() must not be pipelined");
            match resp.outcome {
                WireOutcome::Reply(reply) => return Ok(reply),
                WireOutcome::Err(e) => return Err(ClientError::Serve(e)),
                WireOutcome::Busy(b) => std::thread::sleep(b.retry_after),
                WireOutcome::ShutdownAck => return Err(ClientError::Disconnected),
            }
        }
    }

    /// Read `len` bytes at a global address.
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call).
    pub fn read(&mut self, addr: u64, len: u32) -> Result<Vec<u8>, ClientError> {
        match self.call(Request::Read { addr, len })? {
            Reply::Data(bytes) => Ok(bytes),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Write bytes at a global address; returns the simulated latency.
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call).
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<envy_sim::time::Ns, ClientError> {
        match self.call(Request::Write {
            addr,
            bytes: bytes.to_vec(),
        })? {
            Reply::Done { latency } => Ok(latency),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Liveness probe against one shard.
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call).
    pub fn ping(&mut self, shard: u32) -> Result<(), ClientError> {
        match self.call(Request::Ping { shard })? {
            Reply::Pong => Ok(()),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Open a transaction on one shard; returns the transaction id to
    /// pass to [`txn_write`](Client::txn_write) and
    /// [`txn_commit`](Client::txn_commit). One transaction may be open
    /// per shard at a time ([`ServeError::TxnBusy`] otherwise); if this
    /// connection drops without resolving it, the server aborts it.
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call).
    pub fn txn_begin(&mut self, shard: u32) -> Result<u64, ClientError> {
        match self.call(Request::TxnBegin { shard })? {
            Reply::TxnStarted { txn } => Ok(txn),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Write bytes at a global address under an open transaction; the
    /// write is invisible to a crash until the commit. The address must
    /// land on the shard that issued `txn`.
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call); [`ServeError::NoSuchTxn`] if `txn` is
    /// not the shard's open transaction.
    pub fn txn_write(
        &mut self,
        addr: u64,
        bytes: &[u8],
        txn: u64,
    ) -> Result<envy_sim::time::Ns, ClientError> {
        match self.call(Request::TxnWrite {
            addr,
            bytes: bytes.to_vec(),
            txn,
        })? {
            Reply::Done { latency } => Ok(latency),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Durably commit an open transaction: after this returns, every
    /// write made under `txn` survives any crash atomically.
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call); [`ServeError::NoSuchTxn`] if `txn` is
    /// not the shard's open transaction.
    pub fn txn_commit(&mut self, shard: u32, txn: u64) -> Result<(), ClientError> {
        match self.call(Request::TxnCommit { shard, txn })? {
            Reply::Committed { .. } => Ok(()),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Roll back an open transaction: every write made under `txn` is
    /// undone, byte-exactly, before this returns.
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call); [`ServeError::NoSuchTxn`] if `txn` is
    /// not the shard's open transaction.
    pub fn txn_abort(&mut self, shard: u32, txn: u64) -> Result<(), ClientError> {
        match self.call(Request::TxnAbort { shard, txn })? {
            Reply::Aborted { .. } => Ok(()),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Look up a key in one shard's KV region; `None` on a miss.
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call).
    pub fn kv_get(&mut self, shard: u32, key: u64) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(Request::KvGet { shard, key })? {
            Reply::KvValue(v) => Ok(v),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Insert or replace a key in one shard's KV region. `txn = 0` runs
    /// the put standalone; a nonzero id from
    /// [`txn_begin`](Client::txn_begin) on the same shard makes it part
    /// of that transaction.
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call); [`ServeError::Store`] wrapping the
    /// value-size cap, [`ServeError::NoSuchTxn`] for a dead id.
    pub fn kv_put(
        &mut self,
        shard: u32,
        key: u64,
        value: &[u8],
        txn: u64,
    ) -> Result<(), ClientError> {
        match self.call(Request::KvPut {
            shard,
            key,
            txn,
            value: value.to_vec(),
        })? {
            Reply::KvPutDone => Ok(()),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Delete a key from one shard's KV region; returns whether it
    /// existed. `txn` as in [`kv_put`](Client::kv_put).
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call).
    pub fn kv_delete(&mut self, shard: u32, key: u64, txn: u64) -> Result<bool, ClientError> {
        match self.call(Request::KvDelete { shard, key, txn })? {
            Reply::KvDeleted { existed } => Ok(existed),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Ordered range read from one shard's KV region: up to `limit`
    /// `(key, value)` records with `key >= start`, ascending. The server
    /// clamps `limit` to [`crate::KV_SCAN_LIMIT`].
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call).
    pub fn kv_scan(
        &mut self,
        shard: u32,
        start: u64,
        limit: u32,
    ) -> Result<Vec<(u64, Vec<u8>)>, ClientError> {
        match self.call(Request::KvScan {
            shard,
            start,
            limit,
        })? {
            Reply::KvRange(items) => Ok(items),
            _ => Err(ClientError::Proto(unexpected_reply())),
        }
    }

    /// Shut down this client's **write** side only (half-close): the
    /// server sees EOF and runs its disconnect cleanup, while this
    /// client can still [`recv`](Client::recv) responses already in
    /// flight.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.flush_submits()?;
        match &self.stream {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }

    /// Ask the server to shut down gracefully and wait for the ack.
    ///
    /// # Errors
    ///
    /// As [`call`](Client::call).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = proto::encode_request(&WireRequest {
            id,
            deadline_us: 0,
            body: WireBody::Shutdown,
        });
        self.flush_submits()?;
        proto::write_frame(&mut self.stream, &frame)?;
        loop {
            // Outstanding pipelined completions may land first.
            match self.recv()?.outcome {
                WireOutcome::ShutdownAck => return Ok(()),
                _ => continue,
            }
        }
    }
}

fn unexpected_reply() -> ProtoError {
    // Reuse the protocol error type for a reply of the wrong kind.
    ProtoError::mismatched_reply()
}
