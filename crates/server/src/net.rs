//! TCP and Unix-socket serving over the [`proto`] frames.
//!
//! One connection model serves every socket: a readiness-driven event
//! loop (the private `evloop` module) on one thread multiplexes every
//! connection with nonblocking sockets, incremental frame decoding and
//! one output buffer per connection, and scales to tens of thousands
//! of connections. [`NetConfig::driver`] picks the loop's poller backend:
//! [`NetDriver::Epoll`] (default; epoll(7) on Linux, poll(2) elsewhere)
//! or [`NetDriver::Poll`] (poll(2) everywhere, the portable fallback).
//! `tests/driver_diff.rs` checks both against a socket-free replay of
//! the same requests through the shard, byte for byte.
//!
//! Requests **pipeline** — a client may have any number outstanding
//! and completions may return out of order, matched by id.
//!
//! Graceful shutdown (via [`ServerHandle::request_shutdown`] or the
//! wire `SHUTDOWN` opcode) stops accepting, stops reading, lets every
//! admitted request complete and flush to its client, and only then
//! drains the sharded store itself. A connection that dies
//! mid-pipeline only loses its own completions: the loop keeps
//! draining (discarding) them so a shard never waits on a dead client,
//! and every other connection is untouched.
//!
//! # Transactions and disconnects
//!
//! A transaction opened over the wire is owned by the connection that
//! opened it. When a connection ends — clean EOF, socket error, idle
//! timeout, or server shutdown — any transaction it started and never
//! resolved is **aborted** on its shard, so a crashed client cannot pin
//! shadow pages (and the shard's single transaction slot) forever. The
//! abort is submitted only after every admitted request of that
//! connection has completed, so a commit or abort that was already
//! admitted always wins over the disconnect cleanup.

use crate::proto::{self, ProtoError, WireBody, WireOutcome, WireRequest, WireResponse};
use crate::shard::{Reply, Request, ServeError, ServeOutcome, ShardedStore};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
// Poller backend selection
// ---------------------------------------------------------------------

/// The poller backend of the event loop that [`serve_with`] starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetDriver {
    /// epoll(7) on Linux, poll(2) elsewhere (a compile-time choice —
    /// this variant always picks the platform's best backend).
    #[default]
    Epoll,
    /// The portable poll(2) backend, even where epoll is available:
    /// the fallback path, selectable so it stays tested.
    Poll,
}

impl NetDriver {
    /// Parse a `--net-driver` flag value (`epoll`, `poll`).
    pub fn parse(s: &str) -> Option<NetDriver> {
        match s {
            "epoll" => Some(NetDriver::Epoll),
            "poll" => Some(NetDriver::Poll),
            _ => None,
        }
    }

    /// The flag spelling of this backend.
    pub fn name(&self) -> &'static str {
        match self {
            NetDriver::Epoll => "epoll",
            NetDriver::Poll => "poll",
        }
    }
}

/// Serving configuration beyond the listener itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetConfig {
    /// Poller backend (default [`NetDriver::Epoll`]).
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
    /// The largest unwritten output, in bytes, any connection held: at
    /// most [`OUTPUT_HIGH_WATER`](crate::OUTPUT_HIGH_WATER) plus one
    /// reply while only the loop completes that connection's requests.
    pub max_output_backlog: usize,
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
    /// Panics if the event-loop thread panicked.
    pub fn wait(self) -> ServeSummary {
        self.join.join().expect("server event-loop thread panicked")
    }

    /// [`request_shutdown`](ServerHandle::request_shutdown) then
    /// [`wait`](ServerHandle::wait).
    pub fn shutdown(self) -> ServeSummary {
        self.request_shutdown();
        self.wait()
    }
}

/// Serve a sharded store on a listener with the default
/// [`NetConfig`] (epoll backend, no idle timeout). Returns immediately;
/// the returned handle joins the event-loop thread.
///
/// # Errors
///
/// Socket errors configuring the listener.
pub fn serve(listener: Listener, store: ShardedStore) -> io::Result<ServerHandle> {
    serve_with(listener, store, NetConfig::default())
}

/// [`serve`] with an explicit poller backend and idle timeout.
///
/// # Errors
///
/// Socket errors configuring the listener, setting up the poller or
/// the waker, or spawning the event-loop thread.
pub fn serve_with(
    listener: Listener,
    store: ShardedStore,
    cfg: NetConfig,
) -> io::Result<ServerHandle> {
    listener.set_nonblocking(true)?;
    let addr = listener.describe();
    let stop = Arc::new(AtomicBool::new(false));
    let evloop = crate::evloop::EventLoop::new(listener, store, cfg, Arc::clone(&stop))?;
    let join = std::thread::Builder::new()
        .name("envy-serve-evloop".into())
        .spawn(move || evloop.run())?;
    Ok(ServerHandle { addr, stop, join })
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

/// Bytes the client asks of one socket `read`.
const CLIENT_READ_CHUNK: usize = 16 * 1024;

/// A blocking protocol client. Requests may be pipelined with
/// [`submit`](Client::submit) / [`recv`](Client::recv); the convenience
/// calls assume no other completions are outstanding.
///
/// Every request is encoded straight into one reused output buffer,
/// length prefix and payload together, so a submit allocates nothing
/// and an uncorked submit is one `write`. For deep pipelines,
/// [`set_corked`](Client::set_corked) keeps submitted frames in that
/// buffer until the next [`recv`](Client::recv) (or an explicit
/// [`flush_submits`](Client::flush_submits)), turning N tiny writes
/// into one syscall.
#[derive(Debug)]
pub struct Client {
    stream: Stream,
    next_id: u64,
    outbuf: Vec<u8>,
    /// Socket reads land here; allocated by the first read, so an idle
    /// client holds no buffer.
    inbuf: Vec<u8>,
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
        Ok(Client::over(Stream::Tcp(TcpStream::connect(addr)?)))
    }

    /// Connect over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect_unix<P: AsRef<Path>>(path: P) -> io::Result<Client> {
        Ok(Client::over(Stream::Unix(UnixStream::connect(path)?)))
    }

    fn over(stream: Stream) -> Client {
        Client {
            stream,
            next_id: 0,
            outbuf: Vec::new(),
            inbuf: Vec::new(),
            corked: false,
            decoder: proto::FrameDecoder::new(),
        }
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
    /// Socket errors. The buffered frames are discarded either way: a
    /// failed write may already have put some of them on the wire, and
    /// a later call must not send those bytes twice.
    pub fn flush_submits(&mut self) -> io::Result<()> {
        if self.outbuf.is_empty() {
            return Ok(());
        }
        let sent = self.stream.write_all(&self.outbuf);
        self.outbuf.clear();
        sent
    }

    /// Append one whole frame — length prefix and payload — to the
    /// output buffer. A payload over [`proto::MAX_FRAME`] is refused,
    /// leaving the frames buffered before it intact.
    fn push_frame(&mut self, req: &WireRequest) -> io::Result<()> {
        if proto::push_request_frame(&mut self.outbuf, req) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame exceeds MAX_FRAME",
            ))
        }
    }

    /// Send a request without waiting; returns the id its completion
    /// will carry. Any number may be outstanding; completions can
    /// arrive out of order.
    ///
    /// # Errors
    ///
    /// Socket errors; `InvalidInput`, with nothing sent or buffered, if
    /// the encoded request exceeds [`proto::MAX_FRAME`].
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
    /// As [`submit`](Client::submit).
    pub fn submit_with_id(
        &mut self,
        id: u64,
        req: Request,
        deadline: Option<Duration>,
    ) -> io::Result<()> {
        let deadline_us = deadline
            .map(|d| d.as_micros().clamp(1, u32::MAX as u128) as u32)
            .unwrap_or(0);
        self.push_frame(&WireRequest {
            id,
            deadline_us,
            body: WireBody::Req(req),
        })?;
        if self.corked {
            Ok(())
        } else {
            self.flush_submits()
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
            if self.inbuf.is_empty() {
                self.inbuf = vec![0; CLIENT_READ_CHUNK];
            }
            match self.stream.read(&mut self.inbuf) {
                Ok(0) => {
                    return if self.decoder.mid_frame() {
                        Err(ClientError::Io(io::Error::from(
                            io::ErrorKind::UnexpectedEof,
                        )))
                    } else {
                        Err(ClientError::Disconnected)
                    }
                }
                Ok(n) => self.decoder.push(&self.inbuf[..n]),
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
        self.push_frame(&WireRequest {
            id,
            deadline_us: 0,
            body: WireBody::Shutdown,
        })?;
        self.flush_submits()?;
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
