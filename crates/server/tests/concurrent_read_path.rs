//! The concurrent in-shard read path: inline execution, its digest
//! anchor against the monolithic store, and the `Busy` backpressure
//! retry contract.

mod common;

use common::contents_digest;
use envy_core::EnvyStore;
use envy_server::{run_inproc, run_monolithic, LoadSpec, ReadPath, ServeConfig, ShardedStore};
use std::time::Duration;

#[test]
fn inline_reads_complete_off_the_writer() {
    let store =
        ShardedStore::launch(ServeConfig::small(2).with_read_path(ReadPath::Inline)).unwrap();
    let spec = LoadSpec::closed(2, 32).read_mostly(0.95);
    let report = run_inproc(&store.handle(), &spec);
    let outcome = store.shutdown();
    assert_eq!(report.completed_txns, 64);
    assert_eq!(report.errors, 0);
    assert!(outcome.total_reads_offloaded() > 0, "reads must offload");
    // Every access completed exactly once: writer completions plus
    // offloaded reads account for all of them.
    assert_eq!(
        report.completed_ops,
        outcome.total_served() + outcome.total_reads_offloaded()
    );
}

/// The digest anchor: a 1-shard front end on the inline path runs the
/// read-heavy mix; its final contents must be byte-identical to the
/// monolithic single-threaded store replaying the same spec. Writes all
/// funnel through the single writer in submission order, so offloading
/// reads must not perturb a single byte.
#[test]
fn inline_shard_matches_monolithic_digest() {
    let config = ServeConfig::small(1).with_read_path(ReadPath::Inline);
    let mut baseline = EnvyStore::new(config.store.clone()).unwrap();
    baseline.prefill().unwrap();
    let mut mono = baseline.fork();
    let front = ShardedStore::launch_from(vec![baseline.fork()], &config);
    let spec = LoadSpec::closed(1, 200).with_seed(0x1D1E).read_mostly(0.95);
    let report = run_inproc(&front.handle(), &spec);
    let mut outcome = front.shutdown();
    let mono_report = run_monolithic(&mut mono, &spec);
    assert_eq!(report.completed_txns, mono_report.completed_txns);
    assert_eq!(report.errors, 0);
    assert!(outcome.total_reads_offloaded() > 0, "mix is 95% reads");
    let served = &mut outcome.shards[0].store;
    assert_eq!(
        contents_digest(served),
        contents_digest(&mut mono),
        "offloaded reads must not perturb store contents"
    );
    // Writes took the identical timed path on both sides.
    assert_eq!(
        served.stats().host_writes.get(),
        mono.stats().host_writes.get()
    );
}

/// Backpressure: a tiny queue with a slow worker must reject with
/// `Busy { retry_after }`, and the loadgen's hinted-backoff retry loop
/// must still complete every transaction (no request lost, no error).
#[test]
fn busy_retries_complete_all_transactions() {
    let config = ServeConfig::small(1)
        .with_queue_capacity(2)
        .with_service_delay(Duration::from_micros(200));
    let store = ShardedStore::launch(config).unwrap();
    let spec = LoadSpec::closed(4, 10);
    let report = run_inproc(&store.handle(), &spec);
    let outcome = store.shutdown();
    assert!(
        report.busy_retries > 0,
        "a 2-deep queue under 4 pipelined clients must reject"
    );
    assert_eq!(report.completed_txns, 40, "retries must finish every txn");
    assert_eq!(report.errors, 0);
    assert_eq!(report.timeouts, 0);
    assert_eq!(report.completed_ops, outcome.total_served());
}
