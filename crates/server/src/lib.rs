#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # envy-server — a sharded concurrent front end over the eNVy store
//!
//! The paper's §6 scalability discussion grows eNVy beyond one datapath
//! by putting **multiple controllers over independent banks**. This
//! crate reproduces that organization as a serving layer: the logical
//! word address space is statically sharded across N independent
//! [`envy_core::EnvyStore`] instances, shared-nothing, fronted by an
//! admission-controlled request plane.
//!
//! * [`shard`] — the in-process client API: [`ShardedStore`], whose
//!   shards are passive objects — every request runs to completion on
//!   the thread that submits it, or queues (bounded, batch-drained)
//!   behind the thread that holds its shard — with typed completions,
//!   explicit backpressure ([`Busy`] with a retry hint — never silent
//!   blocking), per-request deadlines, and a graceful shutdown that
//!   drains every queue.
//! * [`proto`] — a length-prefixed binary wire protocol for the same
//!   request set.
//! * [`net`] — TCP and Unix-socket serving on one readiness-driven
//!   event loop with two poller backends (epoll, default, and the
//!   portable poll — see [`NetDriver`]), plus a blocking/pipelined
//!   [`Client`].
//! * `evloop` (private) — the event-loop internals: an epoll/poll
//!   readiness shim over raw syscalls (the crate's only `unsafe`) and
//!   the per-connection state machines with one output buffer each.
//! * [`loadgen`] — an open- and closed-loop multi-client load generator
//!   driving a skewed TPC-A-style mix (reusing [`envy_workload`]).
//!
//! The `envy-served` binary wraps [`net::serve`] as a daemon; see
//! `docs/SERVING.md` for the frame layout, the sharding function, the
//! backpressure contract, and the shutdown semantics.
//!
//! ## Quickstart
//!
//! ```
//! use envy_server::{Request, Reply, ServeConfig, ShardedStore};
//!
//! let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
//! let handle = store.handle();
//! handle
//!     .call(Request::Write { addr: 4096, bytes: b"hello".to_vec() })
//!     .unwrap();
//! match handle.call(Request::Read { addr: 4096, len: 5 }).unwrap() {
//!     Reply::Data(bytes) => assert_eq!(bytes, b"hello"),
//!     other => panic!("unexpected reply {other:?}"),
//! }
//! let outcome = store.shutdown();
//! assert_eq!(outcome.total_served(), 2);
//! ```

#[allow(unsafe_code)] // the raw epoll/poll/rlimit syscalls
mod evloop;
pub mod loadgen;
pub mod net;
pub mod proto;
pub mod shard;

pub use evloop::{raise_nofile, OUTPUT_HIGH_WATER};
pub use loadgen::{
    run_inproc, run_monolithic, run_socket, ycsb_load_requests, LoadMix, LoadMode, LoadReport,
    LoadSpec,
};
pub use net::{
    serve, serve_with, Client, ClientError, Listener, NetConfig, NetDriver, ServeSummary,
    ServerHandle,
};
pub use proto::{WireBody, WireRequest};
pub use shard::{
    Busy, ReadPath, Reply, Request, Response, ServeConfig, ServeError, ServeOutcome, ShardHandle,
    ShardOutcome, ShardPlan, ShardedStore, SubmitError, KV_SCAN_LIMIT,
};
