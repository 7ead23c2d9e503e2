//! The length-prefixed binary wire protocol.
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! `len` counts payload bytes only and is capped at [`MAX_FRAME`]; a
//! larger announcement is a protocol error and the peer closes the
//! connection.
//!
//! **Request payload** (client → server):
//!
//! ```text
//! op: u8 | id: u64 LE | deadline_us: u32 LE | body…
//! ```
//!
//! | op | body |
//! |----|------|
//! | `READ` (1)       | `addr: u64`, `len: u32` (at most [`MAX_READ_LEN`], or the reply could not be framed: `ERR`) |
//! | `WRITE` (2)      | `addr: u64`, payload = rest of frame |
//! | `FLUSH` (3)      | `shard: u32` |
//! | `PING` (4)       | `shard: u32` |
//! | `SHUTDOWN` (5)   | — |
//! | `TXN_BEGIN` (6)  | `shard: u32` |
//! | `TXN_WRITE` (7)  | `addr: u64`, `txn: u64`, payload = rest of frame |
//! | `TXN_COMMIT` (8) | `shard: u32`, `txn: u64` |
//! | `TXN_ABORT` (9)  | `shard: u32`, `txn: u64` |
//! | `KV_GET` (10)    | `shard: u32`, `key: u64` |
//! | `KV_PUT` (11)    | `shard: u32`, `key: u64`, `txn: u64` (0 = standalone), value = rest of frame |
//! | `KV_DELETE` (12) | `shard: u32`, `key: u64`, `txn: u64` (0 = standalone) |
//! | `KV_SCAN` (13)   | `shard: u32`, `start: u64`, `limit: u32` |
//!
//! `deadline_us` is a relative deadline in microseconds (0 = none),
//! measured from server receipt. `id` is chosen by the client and echoed
//! verbatim in the response; responses may arrive out of submission
//! order (pipelining), so ids are how a client matches completions.
//!
//! **Response payload** (server → client):
//!
//! ```text
//! status: u8 | id: u64 LE | shard: u32 LE | body…
//! ```
//!
//! | status | meaning | body |
//! |--------|---------|------|
//! | `DATA` (0)      | read data | the bytes |
//! | `OK` (1)        | operation done | `kind: u8` (0 write, 1 flush, 2 ping, 3 txn begun, 4 committed, 5 aborted), then `latency_ns: u64` for writes / `txn: u64` for kinds 3–5 |
//! | `BUSY` (2)      | queue full, **not admitted** | `retry_after_ns: u64` |
//! | `DEADLINE` (3)  | expired before dispatch | — |
//! | `CROSSES` (4)   | spans two shards | `addr: u64`, `len: u64` |
//! | `OOB` (5)       | outside the array | `addr: u64`, `size: u64` |
//! | `ERR` (6)       | store failure | UTF-8 message |
//! | `SHUTDOWN` (7)  | rejected: shutting down | — |
//! | `ACK` (8)       | shutdown acknowledged | — |
//! | `TXN_BUSY` (9)  | every transaction slot on the shard is occupied | — |
//! | `NO_TXN` (10)   | no such open transaction on the shard | `txn: u64` (the id presented) |
//! | `TXN_CONFLICT` (11) | page is in another open transaction's write set | — |
//! | `KV` (12)       | key-value operation result | `kind: u8` (0 get miss, 1 get hit, 2 put done, 3 deleted, 4 scan), then the value bytes for kind 1, `existed: u8` for kind 3, or `count: u32` followed by `count` × (`key: u64`, `len: u32`, value bytes) for kind 4 |
//!
//! `TXN_BUSY` and `TXN_CONFLICT` deliberately carry **no** transaction
//! id: ids are capability-like (knowing one is enough to issue
//! `TXN_WRITE`/`TXN_COMMIT` against it), so refusals never echo a
//! *foreign* id. `NO_TXN` only echoes the id the client itself
//! presented.

use crate::shard::{Busy, Reply, Request, ServeError, SubmitError};
use envy_sim::time::Ns;
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Maximum frame payload size (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of a response payload before its body: `status`, `id`, `shard`.
const RESPONSE_HEADER: usize = 1 + 8 + 4;

/// The most bytes one wire `READ` may ask for: its `DATA` reply must
/// fit a frame behind the response header.
pub const MAX_READ_LEN: usize = MAX_FRAME - RESPONSE_HEADER;

/// Refuse a decoded request whose reply could not be framed — a `READ`
/// longer than [`MAX_READ_LEN`] — before it is routed or anything is
/// allocated for it. The event loop calls this on every store request
/// and answers the refusal as `ERR` under the request's own id.
/// With it in place no reply can outgrow a frame: the other
/// variable-size replies are a KV value (4 KiB) and a clamped `KV_SCAN`
/// (526 KiB).
///
/// The in-process API has no frame and is not bounded here.
///
/// # Errors
///
/// [`SubmitError::Rejected`] carrying [`ServeError::Store`].
pub(crate) fn check_answerable(req: &Request) -> Result<(), SubmitError> {
    match *req {
        Request::Read { len, .. } if len as usize > MAX_READ_LEN => {
            Err(SubmitError::Rejected(ServeError::Store(format!(
                "read of {len} bytes exceeds the {MAX_READ_LEN} a reply frame carries"
            ))))
        }
        _ => Ok(()),
    }
}

/// Request opcodes.
pub mod op {
    /// Read a byte range.
    pub const READ: u8 = 1;
    /// Write a byte range.
    pub const WRITE: u8 = 2;
    /// Flush one shard's write buffer.
    pub const FLUSH: u8 = 3;
    /// Liveness probe.
    pub const PING: u8 = 4;
    /// Ask the server to shut down gracefully.
    pub const SHUTDOWN: u8 = 5;
    /// Open a transaction on one shard.
    pub const TXN_BEGIN: u8 = 6;
    /// Write a byte range under an open transaction.
    pub const TXN_WRITE: u8 = 7;
    /// Durably commit an open transaction.
    pub const TXN_COMMIT: u8 = 8;
    /// Roll back an open transaction.
    pub const TXN_ABORT: u8 = 9;
    /// Look up a key in one shard's KV region.
    pub const KV_GET: u8 = 10;
    /// Insert or replace a key (optionally under an open transaction).
    pub const KV_PUT: u8 = 11;
    /// Delete a key (optionally under an open transaction).
    pub const KV_DELETE: u8 = 12;
    /// Ordered range read from a start key.
    pub const KV_SCAN: u8 = 13;
}

/// Response status codes.
pub mod status {
    /// Read data follows.
    pub const DATA: u8 = 0;
    /// Write / flush / ping completed.
    pub const OK: u8 = 1;
    /// Queue full — the request was **not** admitted.
    pub const BUSY: u8 = 2;
    /// Deadline expired before dispatch.
    pub const DEADLINE: u8 = 3;
    /// Range crosses a shard boundary.
    pub const CROSSES: u8 = 4;
    /// Range outside the global array.
    pub const OOB: u8 = 5;
    /// Store failure (message follows).
    pub const ERR: u8 = 6;
    /// Rejected because the server is shutting down.
    pub const SHUTDOWN: u8 = 7;
    /// Shutdown request acknowledged.
    pub const ACK: u8 = 8;
    /// Every transaction slot on the shard is occupied.
    pub const TXN_BUSY: u8 = 9;
    /// No open transaction with the presented id on that shard.
    pub const NO_TXN: u8 = 10;
    /// The page is in another open transaction's write set.
    pub const TXN_CONFLICT: u8 = 11;
    /// Key-value operation result (kind byte follows).
    pub const KV: u8 = 12;
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// Relative deadline in microseconds from server receipt; 0 = none.
    pub deadline_us: u32,
    /// What to do.
    pub body: WireBody,
}

impl WireRequest {
    /// The deadline as a duration, if any.
    pub fn deadline(&self) -> Option<Duration> {
        (self.deadline_us > 0).then(|| Duration::from_micros(self.deadline_us as u64))
    }
}

/// The request body: a store request or a control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireBody {
    /// A store request, routed by global address.
    Req(Request),
    /// Graceful server shutdown.
    Shutdown,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// The id the request carried.
    pub id: u64,
    /// Shard that served (or rejected) the request.
    pub shard: u32,
    /// What happened.
    pub outcome: WireOutcome,
}

/// The response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOutcome {
    /// Completed.
    Reply(Reply),
    /// Completed with a typed serving error.
    Err(ServeError),
    /// Not admitted: queue full, retry after the hint.
    Busy(Busy),
    /// Shutdown acknowledged.
    ShutdownAck,
}

/// A malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(&'static str);

impl ProtoError {
    /// A structurally valid reply of the wrong kind for its request.
    pub(crate) fn mismatched_reply() -> ProtoError {
        ProtoError("reply kind does not match the request")
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Encode a request frame payload.
pub fn encode_request(req: &WireRequest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    encode_request_into(&mut buf, req);
    buf
}

/// Append a request frame payload to `buf` (no length prefix). The
/// allocation-reusing twin of [`encode_request`]: the client encodes
/// every request straight into its output buffer, behind the length
/// slot it patches afterwards.
pub fn encode_request_into(buf: &mut Vec<u8>, req: &WireRequest) {
    let opcode = match &req.body {
        WireBody::Req(Request::Read { .. }) => op::READ,
        WireBody::Req(Request::Write { .. }) => op::WRITE,
        WireBody::Req(Request::Flush { .. }) => op::FLUSH,
        WireBody::Req(Request::Ping { .. }) => op::PING,
        WireBody::Req(Request::TxnBegin { .. }) => op::TXN_BEGIN,
        WireBody::Req(Request::TxnWrite { .. }) => op::TXN_WRITE,
        WireBody::Req(Request::TxnCommit { .. }) => op::TXN_COMMIT,
        WireBody::Req(Request::TxnAbort { .. }) => op::TXN_ABORT,
        WireBody::Req(Request::KvGet { .. }) => op::KV_GET,
        WireBody::Req(Request::KvPut { .. }) => op::KV_PUT,
        WireBody::Req(Request::KvDelete { .. }) => op::KV_DELETE,
        WireBody::Req(Request::KvScan { .. }) => op::KV_SCAN,
        WireBody::Shutdown => op::SHUTDOWN,
    };
    buf.push(opcode);
    put_u64(buf, req.id);
    put_u32(buf, req.deadline_us);
    match &req.body {
        WireBody::Req(Request::Read { addr, len }) => {
            put_u64(buf, *addr);
            put_u32(buf, *len);
        }
        WireBody::Req(Request::Write { addr, bytes }) => {
            put_u64(buf, *addr);
            buf.extend_from_slice(bytes);
        }
        WireBody::Req(Request::Flush { shard })
        | WireBody::Req(Request::Ping { shard })
        | WireBody::Req(Request::TxnBegin { shard }) => {
            put_u32(buf, *shard);
        }
        WireBody::Req(Request::TxnWrite { addr, bytes, txn }) => {
            put_u64(buf, *addr);
            put_u64(buf, *txn);
            buf.extend_from_slice(bytes);
        }
        WireBody::Req(Request::TxnCommit { shard, txn })
        | WireBody::Req(Request::TxnAbort { shard, txn }) => {
            put_u32(buf, *shard);
            put_u64(buf, *txn);
        }
        WireBody::Req(Request::KvGet { shard, key }) => {
            put_u32(buf, *shard);
            put_u64(buf, *key);
        }
        WireBody::Req(Request::KvPut {
            shard,
            key,
            txn,
            value,
        }) => {
            put_u32(buf, *shard);
            put_u64(buf, *key);
            put_u64(buf, *txn);
            buf.extend_from_slice(value);
        }
        WireBody::Req(Request::KvDelete { shard, key, txn }) => {
            put_u32(buf, *shard);
            put_u64(buf, *key);
            put_u64(buf, *txn);
        }
        WireBody::Req(Request::KvScan {
            shard,
            start,
            limit,
        }) => {
            put_u32(buf, *shard);
            put_u64(buf, *start);
            put_u32(buf, *limit);
        }
        WireBody::Shutdown => {}
    }
}

/// Encode a response frame payload.
pub fn encode_response(resp: &WireResponse) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    encode_response_into(&mut buf, resp);
    buf
}

/// Append a response frame payload to `buf` (no length prefix). The
/// allocation-reusing twin of [`encode_response`]: the event loop
/// encodes every response into a pooled buffer.
pub fn encode_response_into(buf: &mut Vec<u8>, resp: &WireResponse) {
    let st = match &resp.outcome {
        WireOutcome::Reply(Reply::Data(_)) => status::DATA,
        WireOutcome::Reply(
            Reply::KvValue(_) | Reply::KvPutDone | Reply::KvDeleted { .. } | Reply::KvRange(_),
        ) => status::KV,
        WireOutcome::Reply(_) => status::OK,
        WireOutcome::Err(ServeError::DeadlineExceeded) => status::DEADLINE,
        WireOutcome::Err(ServeError::CrossesShard { .. }) => status::CROSSES,
        WireOutcome::Err(ServeError::OutOfBounds { .. }) => status::OOB,
        WireOutcome::Err(ServeError::ShuttingDown) => status::SHUTDOWN,
        WireOutcome::Err(ServeError::TxnBusy) => status::TXN_BUSY,
        WireOutcome::Err(ServeError::NoSuchTxn { .. }) => status::NO_TXN,
        WireOutcome::Err(ServeError::TxnConflict) => status::TXN_CONFLICT,
        WireOutcome::Err(ServeError::Store(_)) => status::ERR,
        WireOutcome::Busy(_) => status::BUSY,
        WireOutcome::ShutdownAck => status::ACK,
    };
    buf.push(st);
    put_u64(buf, resp.id);
    put_u32(buf, resp.shard);
    match &resp.outcome {
        WireOutcome::Reply(Reply::Data(bytes)) => buf.extend_from_slice(bytes),
        WireOutcome::Reply(Reply::Done { latency }) => {
            buf.push(0);
            put_u64(buf, latency.as_nanos());
        }
        WireOutcome::Reply(Reply::Flushed) => buf.push(1),
        WireOutcome::Reply(Reply::Pong) => buf.push(2),
        WireOutcome::Reply(Reply::TxnStarted { txn }) => {
            buf.push(3);
            put_u64(buf, *txn);
        }
        WireOutcome::Reply(Reply::Committed { txn }) => {
            buf.push(4);
            put_u64(buf, *txn);
        }
        WireOutcome::Reply(Reply::Aborted { txn }) => {
            buf.push(5);
            put_u64(buf, *txn);
        }
        WireOutcome::Reply(Reply::KvValue(None)) => buf.push(0),
        WireOutcome::Reply(Reply::KvValue(Some(value))) => {
            buf.push(1);
            buf.extend_from_slice(value);
        }
        WireOutcome::Reply(Reply::KvPutDone) => buf.push(2),
        WireOutcome::Reply(Reply::KvDeleted { existed }) => {
            buf.push(3);
            buf.push(u8::from(*existed));
        }
        WireOutcome::Reply(Reply::KvRange(items)) => {
            buf.push(4);
            put_u32(buf, items.len() as u32);
            for (key, value) in items {
                put_u64(buf, *key);
                put_u32(buf, value.len() as u32);
                buf.extend_from_slice(value);
            }
        }
        WireOutcome::Err(ServeError::CrossesShard { addr, len }) => {
            put_u64(buf, *addr);
            put_u64(buf, *len);
        }
        WireOutcome::Err(ServeError::OutOfBounds { addr, size }) => {
            put_u64(buf, *addr);
            put_u64(buf, *size);
        }
        WireOutcome::Err(ServeError::NoSuchTxn { txn }) => put_u64(buf, *txn),
        WireOutcome::Err(ServeError::Store(msg)) => buf.extend_from_slice(msg.as_bytes()),
        WireOutcome::Err(ServeError::DeadlineExceeded)
        | WireOutcome::Err(ServeError::ShuttingDown)
        | WireOutcome::Err(ServeError::TxnBusy)
        | WireOutcome::Err(ServeError::TxnConflict)
        | WireOutcome::ShutdownAck => {}
        WireOutcome::Busy(b) => put_u64(buf, b.retry_after.as_nanos() as u64),
    }
}

/// Encode a whole response **frame** (length prefix + payload) into
/// `buf`, clearing it first. Returns `false` — with `buf` cleared —
/// if the payload would exceed [`MAX_FRAME`], which no reply to a
/// request the event loop admits can (see [`MAX_READ_LEN`]).
pub fn encode_response_frame_into(buf: &mut Vec<u8>, resp: &WireResponse) -> bool {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]);
    encode_response_into(buf, resp);
    let len = buf.len() - 4;
    if len > MAX_FRAME {
        buf.clear();
        return false;
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    true
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, ProtoError> {
        let (&b, rest) = self.buf.split_first().ok_or(ProtoError("truncated u8"))?;
        self.buf = rest;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<4>()
            .ok_or(ProtoError("truncated u32"))?;
        self.buf = rest;
        Ok(u32::from_le_bytes(*head))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<8>()
            .ok_or(ProtoError("truncated u64"))?;
        self.buf = rest;
        Ok(u64::from_le_bytes(*head))
    }

    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtoError("trailing bytes"))
        }
    }
}

/// Decode a request frame payload.
///
/// # Errors
///
/// [`ProtoError`] on a truncated body, trailing bytes, or an unknown
/// opcode.
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, ProtoError> {
    let mut c = Cursor { buf: payload };
    let opcode = c.u8()?;
    let id = c.u64()?;
    let deadline_us = c.u32()?;
    let body = match opcode {
        op::READ => {
            let addr = c.u64()?;
            let len = c.u32()?;
            c.done()?;
            WireBody::Req(Request::Read { addr, len })
        }
        op::WRITE => {
            let addr = c.u64()?;
            let bytes = c.rest().to_vec();
            WireBody::Req(Request::Write { addr, bytes })
        }
        op::FLUSH => {
            let shard = c.u32()?;
            c.done()?;
            WireBody::Req(Request::Flush { shard })
        }
        op::PING => {
            let shard = c.u32()?;
            c.done()?;
            WireBody::Req(Request::Ping { shard })
        }
        op::SHUTDOWN => {
            c.done()?;
            WireBody::Shutdown
        }
        op::TXN_BEGIN => {
            let shard = c.u32()?;
            c.done()?;
            WireBody::Req(Request::TxnBegin { shard })
        }
        op::TXN_WRITE => {
            let addr = c.u64()?;
            let txn = c.u64()?;
            let bytes = c.rest().to_vec();
            WireBody::Req(Request::TxnWrite { addr, bytes, txn })
        }
        op::TXN_COMMIT => {
            let shard = c.u32()?;
            let txn = c.u64()?;
            c.done()?;
            WireBody::Req(Request::TxnCommit { shard, txn })
        }
        op::TXN_ABORT => {
            let shard = c.u32()?;
            let txn = c.u64()?;
            c.done()?;
            WireBody::Req(Request::TxnAbort { shard, txn })
        }
        op::KV_GET => {
            let shard = c.u32()?;
            let key = c.u64()?;
            c.done()?;
            WireBody::Req(Request::KvGet { shard, key })
        }
        op::KV_PUT => {
            let shard = c.u32()?;
            let key = c.u64()?;
            let txn = c.u64()?;
            let value = c.rest().to_vec();
            WireBody::Req(Request::KvPut {
                shard,
                key,
                txn,
                value,
            })
        }
        op::KV_DELETE => {
            let shard = c.u32()?;
            let key = c.u64()?;
            let txn = c.u64()?;
            c.done()?;
            WireBody::Req(Request::KvDelete { shard, key, txn })
        }
        op::KV_SCAN => {
            let shard = c.u32()?;
            let start = c.u64()?;
            let limit = c.u32()?;
            c.done()?;
            WireBody::Req(Request::KvScan {
                shard,
                start,
                limit,
            })
        }
        _ => return Err(ProtoError("unknown opcode")),
    };
    Ok(WireRequest {
        id,
        deadline_us,
        body,
    })
}

/// Decode a response frame payload.
///
/// # Errors
///
/// [`ProtoError`] on a truncated body, trailing bytes, an unknown
/// status, or non-UTF-8 in an `ERR` message.
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, ProtoError> {
    let mut c = Cursor { buf: payload };
    let st = c.u8()?;
    let id = c.u64()?;
    let shard = c.u32()?;
    let outcome = match st {
        status::DATA => WireOutcome::Reply(Reply::Data(c.rest().to_vec())),
        status::OK => match c.u8()? {
            0 => {
                let latency = Ns::from_nanos(c.u64()?);
                c.done()?;
                WireOutcome::Reply(Reply::Done { latency })
            }
            1 => {
                c.done()?;
                WireOutcome::Reply(Reply::Flushed)
            }
            2 => {
                c.done()?;
                WireOutcome::Reply(Reply::Pong)
            }
            3 => {
                let txn = c.u64()?;
                c.done()?;
                WireOutcome::Reply(Reply::TxnStarted { txn })
            }
            4 => {
                let txn = c.u64()?;
                c.done()?;
                WireOutcome::Reply(Reply::Committed { txn })
            }
            5 => {
                let txn = c.u64()?;
                c.done()?;
                WireOutcome::Reply(Reply::Aborted { txn })
            }
            _ => return Err(ProtoError("unknown ok kind")),
        },
        status::BUSY => {
            let retry = c.u64()?;
            c.done()?;
            WireOutcome::Busy(Busy {
                shard,
                retry_after: Duration::from_nanos(retry),
            })
        }
        status::DEADLINE => {
            c.done()?;
            WireOutcome::Err(ServeError::DeadlineExceeded)
        }
        status::CROSSES => {
            let addr = c.u64()?;
            let len = c.u64()?;
            c.done()?;
            WireOutcome::Err(ServeError::CrossesShard { addr, len })
        }
        status::OOB => {
            let addr = c.u64()?;
            let size = c.u64()?;
            c.done()?;
            WireOutcome::Err(ServeError::OutOfBounds { addr, size })
        }
        status::ERR => {
            let msg = String::from_utf8(c.rest().to_vec())
                .map_err(|_| ProtoError("non-utf8 error message"))?;
            WireOutcome::Err(ServeError::Store(msg))
        }
        status::SHUTDOWN => {
            c.done()?;
            WireOutcome::Err(ServeError::ShuttingDown)
        }
        status::ACK => {
            c.done()?;
            WireOutcome::ShutdownAck
        }
        status::TXN_BUSY => {
            c.done()?;
            WireOutcome::Err(ServeError::TxnBusy)
        }
        status::NO_TXN => {
            let txn = c.u64()?;
            c.done()?;
            WireOutcome::Err(ServeError::NoSuchTxn { txn })
        }
        status::TXN_CONFLICT => {
            c.done()?;
            WireOutcome::Err(ServeError::TxnConflict)
        }
        status::KV => match c.u8()? {
            0 => {
                c.done()?;
                WireOutcome::Reply(Reply::KvValue(None))
            }
            1 => WireOutcome::Reply(Reply::KvValue(Some(c.rest().to_vec()))),
            2 => {
                c.done()?;
                WireOutcome::Reply(Reply::KvPutDone)
            }
            3 => {
                let existed = match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtoError("bad kv delete flag")),
                };
                c.done()?;
                WireOutcome::Reply(Reply::KvDeleted { existed })
            }
            4 => {
                let count = c.u32()? as usize;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let key = c.u64()?;
                    let len = c.u32()? as usize;
                    if c.buf.len() < len {
                        return Err(ProtoError("truncated kv scan item"));
                    }
                    let (value, rest) = c.buf.split_at(len);
                    items.push((key, value.to_vec()));
                    c.buf = rest;
                }
                c.done()?;
                WireOutcome::Reply(Reply::KvRange(items))
            }
            _ => return Err(ProtoError("unknown kv kind")),
        },
        _ => return Err(ProtoError("unknown status")),
    };
    Ok(WireResponse { id, shard, outcome })
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one frame (length prefix + payload) and flush.
///
/// # Errors
///
/// I/O errors; `InvalidInput` if the payload exceeds [`MAX_FRAME`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame payload. Returns `Ok(None)` on a clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// I/O errors; `InvalidData` if the peer announces a frame larger than
/// [`MAX_FRAME`]; `UnexpectedEof` on mid-frame EOF.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    // Distinguish clean EOF (no bytes) from a torn header.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "announced frame exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Incremental decoding
// ---------------------------------------------------------------------

/// A frame announced a payload larger than [`MAX_FRAME`] — the typed
/// error of the incremental decoder (the peer is desynchronized or
/// hostile; the connection must close).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The announced payload length.
    pub announced: usize,
}

impl fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "announced frame of {} bytes exceeds MAX_FRAME ({MAX_FRAME})",
            self.announced
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Incremental frame decoder for nonblocking readers: bytes arrive in
/// arbitrary chunks ([`push`](FrameDecoder::push)), complete frames
/// come out ([`next_frame`](FrameDecoder::next_frame)). One internal
/// buffer is reused for the connection's lifetime — no per-frame
/// allocation; consumed bytes are compacted away lazily.
///
/// Decodes exactly the same byte stream as the blocking
/// [`read_frame`]: a split at any byte boundary yields identical
/// frames, and an over-large announcement is the same hard error.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

/// Compact once this many consumed bytes accumulate at the front.
const DECODER_COMPACT: usize = 64 * 1024;

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes read from the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame payload, or `None` if more bytes are
    /// needed. The returned slice borrows the internal buffer and is
    /// consumed by the call — process it before the next `push`.
    ///
    /// # Errors
    ///
    /// [`FrameTooLarge`] if the header announces more than
    /// [`MAX_FRAME`] bytes; the stream cannot be resynchronized.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameTooLarge> {
        if self.start >= DECODER_COMPACT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let header: [u8; 4] = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4-byte header");
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME {
            return Err(FrameTooLarge { announced: len });
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let payload_start = self.start + 4;
        self.start = payload_start + len;
        Ok(Some(&self.buf[payload_start..payload_start + len]))
    }

    /// Whether undecoded bytes are buffered (an EOF now would be a
    /// mid-frame EOF, like [`read_frame`]'s `UnexpectedEof`).
    pub fn mid_frame(&self) -> bool {
        self.start < self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: WireRequest) {
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    fn roundtrip_resp(resp: WireResponse) {
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(WireRequest {
            id: 7,
            deadline_us: 0,
            body: WireBody::Req(Request::Read {
                addr: 0xdead_beef,
                len: 64,
            }),
        });
        roundtrip_req(WireRequest {
            id: u64::MAX,
            deadline_us: 1_500,
            body: WireBody::Req(Request::Write {
                addr: 8,
                bytes: b"payload".to_vec(),
            }),
        });
        roundtrip_req(WireRequest {
            id: 1,
            deadline_us: 0,
            body: WireBody::Req(Request::Flush { shard: 3 }),
        });
        roundtrip_req(WireRequest {
            id: 2,
            deadline_us: 9,
            body: WireBody::Req(Request::Ping { shard: 0 }),
        });
        roundtrip_req(WireRequest {
            id: 3,
            deadline_us: 0,
            body: WireBody::Shutdown,
        });
        roundtrip_req(WireRequest {
            id: 4,
            deadline_us: 0,
            body: WireBody::Req(Request::TxnBegin { shard: 1 }),
        });
        roundtrip_req(WireRequest {
            id: 5,
            deadline_us: 700,
            body: WireBody::Req(Request::TxnWrite {
                addr: 4_096,
                bytes: b"txn payload".to_vec(),
                txn: 11,
            }),
        });
        roundtrip_req(WireRequest {
            id: 6,
            deadline_us: 0,
            body: WireBody::Req(Request::TxnCommit { shard: 2, txn: 11 }),
        });
        roundtrip_req(WireRequest {
            id: 7,
            deadline_us: 0,
            body: WireBody::Req(Request::TxnAbort { shard: 0, txn: 12 }),
        });
        roundtrip_req(WireRequest {
            id: 8,
            deadline_us: 0,
            body: WireBody::Req(Request::KvGet { shard: 1, key: 99 }),
        });
        roundtrip_req(WireRequest {
            id: 9,
            deadline_us: 250,
            body: WireBody::Req(Request::KvPut {
                shard: 0,
                key: u64::MAX,
                txn: 0,
                value: b"kv value".to_vec(),
            }),
        });
        roundtrip_req(WireRequest {
            id: 10,
            deadline_us: 0,
            body: WireBody::Req(Request::KvPut {
                shard: 2,
                key: 7,
                txn: 13,
                value: Vec::new(),
            }),
        });
        roundtrip_req(WireRequest {
            id: 11,
            deadline_us: 0,
            body: WireBody::Req(Request::KvDelete {
                shard: 3,
                key: 42,
                txn: 0,
            }),
        });
        roundtrip_req(WireRequest {
            id: 12,
            deadline_us: 0,
            body: WireBody::Req(Request::KvScan {
                shard: 0,
                start: 100,
                limit: 16,
            }),
        });
    }

    #[test]
    fn response_roundtrips() {
        for outcome in [
            WireOutcome::Reply(Reply::Data(vec![1, 2, 3])),
            WireOutcome::Reply(Reply::Data(Vec::new())),
            WireOutcome::Reply(Reply::Done {
                latency: Ns::from_nanos(640),
            }),
            WireOutcome::Reply(Reply::Flushed),
            WireOutcome::Reply(Reply::Pong),
            WireOutcome::Busy(Busy {
                shard: 2,
                retry_after: Duration::from_micros(37),
            }),
            WireOutcome::Err(ServeError::DeadlineExceeded),
            WireOutcome::Err(ServeError::CrossesShard { addr: 10, len: 20 }),
            WireOutcome::Err(ServeError::OutOfBounds { addr: 99, size: 50 }),
            WireOutcome::Err(ServeError::Store("boom".into())),
            WireOutcome::Err(ServeError::ShuttingDown),
            WireOutcome::ShutdownAck,
            WireOutcome::Reply(Reply::TxnStarted { txn: 9 }),
            WireOutcome::Reply(Reply::Committed { txn: 9 }),
            WireOutcome::Reply(Reply::Aborted { txn: 10 }),
            WireOutcome::Err(ServeError::TxnBusy),
            WireOutcome::Err(ServeError::NoSuchTxn { txn: 77 }),
            WireOutcome::Err(ServeError::TxnConflict),
            WireOutcome::Reply(Reply::KvValue(None)),
            WireOutcome::Reply(Reply::KvValue(Some(b"hit".to_vec()))),
            WireOutcome::Reply(Reply::KvValue(Some(Vec::new()))),
            WireOutcome::Reply(Reply::KvPutDone),
            WireOutcome::Reply(Reply::KvDeleted { existed: true }),
            WireOutcome::Reply(Reply::KvDeleted { existed: false }),
            WireOutcome::Reply(Reply::KvRange(Vec::new())),
            WireOutcome::Reply(Reply::KvRange(vec![
                (1, b"one".to_vec()),
                (2, Vec::new()),
                (3, vec![0xab; 300]),
            ])),
        ] {
            roundtrip_resp(WireResponse {
                id: 42,
                shard: 2,
                outcome,
            });
        }
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Read with a truncated body.
        let mut good = encode_request(&WireRequest {
            id: 1,
            deadline_us: 0,
            body: WireBody::Req(Request::Read { addr: 0, len: 4 }),
        });
        good.pop();
        assert!(decode_request(&good).is_err());
        // Trailing garbage on a fixed-size body.
        let mut resp = encode_response(&WireResponse {
            id: 1,
            shard: 0,
            outcome: WireOutcome::Err(ServeError::DeadlineExceeded),
        });
        resp.push(0);
        assert!(decode_response(&resp).is_err());
        // KV frames with truncated bodies.
        let mut kv_get = encode_request(&WireRequest {
            id: 2,
            deadline_us: 0,
            body: WireBody::Req(Request::KvGet { shard: 0, key: 9 }),
        });
        kv_get.pop();
        assert!(decode_request(&kv_get).is_err());
        let mut kv_scan = encode_response(&WireResponse {
            id: 3,
            shard: 0,
            outcome: WireOutcome::Reply(Reply::KvRange(vec![(5, b"v".to_vec())])),
        });
        kv_scan.pop();
        assert!(decode_response(&kv_scan).is_err());
    }

    #[test]
    fn framing_roundtrips_and_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());

        let big = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut Vec::new(), &big).is_err());
        let mut bogus: &[u8] = &(MAX_FRAME as u32 + 1).to_le_bytes()[..];
        assert!(read_frame(&mut bogus).is_err());
        // Torn header.
        let mut torn: &[u8] = &[1, 0][..];
        assert_eq!(
            read_frame(&mut torn).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn incremental_decoder_matches_blocking_reader() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, &[7u8; 300]).unwrap();

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            while let Some(frame) = dec.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        assert!(!dec.mid_frame());
        let mut r = &stream[..];
        let mut want = Vec::new();
        while let Some(p) = read_frame(&mut r).unwrap() {
            want.push(p);
        }
        assert_eq!(got, want);

        // Oversized announcement is the same hard error.
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(
            dec.next_frame().unwrap_err(),
            FrameTooLarge {
                announced: MAX_FRAME + 1
            }
        );
    }

    #[test]
    fn frame_encode_into_reuses_buffer() {
        let resp = WireResponse {
            id: 3,
            shard: 1,
            outcome: WireOutcome::Reply(Reply::Pong),
        };
        let mut buf = Vec::new();
        assert!(encode_response_frame_into(&mut buf, &resp));
        let mut blocking = Vec::new();
        write_frame(&mut blocking, &encode_response(&resp)).unwrap();
        assert_eq!(buf, blocking);
        // Reuse leaves no stale bytes behind.
        assert!(encode_response_frame_into(&mut buf, &resp));
        assert_eq!(buf, blocking);
    }

    /// The read bound is the frame bound seen from the request side:
    /// the longest read admitted is answered by a frame of exactly
    /// `MAX_FRAME` bytes, and one byte more would not encode.
    #[test]
    fn longest_answerable_read_fills_a_frame_exactly() {
        let read = |len| Request::Read { addr: 0, len };
        assert!(check_answerable(&read(MAX_READ_LEN as u32)).is_ok());
        assert!(check_answerable(&read(MAX_READ_LEN as u32 + 1)).is_err());
        let data = |len| WireResponse {
            id: 1,
            shard: 0,
            outcome: WireOutcome::Reply(Reply::Data(vec![0; len])),
        };
        let mut buf = Vec::new();
        assert!(encode_response_frame_into(&mut buf, &data(MAX_READ_LEN)));
        assert_eq!(buf.len(), 4 + MAX_FRAME);
        assert!(!encode_response_frame_into(
            &mut buf,
            &data(MAX_READ_LEN + 1)
        ));
    }
}
