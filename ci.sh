#!/bin/sh
# Offline CI gate: formatting, lints, tests, and one end-to-end figure
# regeneration smoke test. Requires only the Rust toolchain — the
# workspace has no external crate dependencies, so everything below runs
# without network access.
set -e

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
# Private modules (envy-server's event loop among them) carry docs too;
# only this pass reads them. The public pass above stays: only it flags
# a public doc that links to a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --document-private-items

echo "== doc link check =="
# Every relative markdown link in README.md and docs/*.md must resolve
# to a file in the repo (anchors stripped, absolute URLs skipped).
LINK_FAIL=0
for f in README.md docs/*.md; do
  dir=$(dirname "$f")
  for link in $(grep -o ']([^)]*)' "$f" | sed 's/^](//; s/)$//'); do
    case "$link" in
      http://*|https://*|\#*) continue ;;
    esac
    target=${link%%#*}
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "broken link in $f: $link"
      LINK_FAIL=1
    fi
  done
done
test "$LINK_FAIL" = "0"

echo "== cargo test --doc =="
# Doctests are the executable half of the rustdoc pass (the transaction
# and recovery examples run for real); keep them green on their own.
cargo test --workspace --doc -q

echo "== cargo test =="
cargo test --workspace -q

echo "== smoke: every example runs to completion =="
# Nothing else executes examples/: an example that panics (or no longer
# demonstrates what it says) would otherwise go unnoticed. Each takes
# well under a second once built; a nonzero exit fails the step.
mkdir -p results
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  cargo run --release -q --example "$name" > "results/ci_smoke_example_$name.txt"
done

echo "== smoke: race suites at full speed =="
# Release-mode rerun of the three suites whose races only mean something
# under optimized codegen and free-running threads, so the debug-mode run
# above is not enough. The run-to-completion suite races submitters for
# one shard's lock (one execution order per shard, shutdown against live
# submitters and waiters); the wire-contract suite races the event loop
# against an occupant thread for the shard it serves (the loop waits for
# the occupant, or finds the shard free once the occupant has let go),
# which at full speed is close; and the accept-pressure
# suite races the server's accept retries against a client holding the
# process's last descriptor.
cargo test --release -q -p envy-server --test run_to_completion
cargo test --release -q -p envy-server --test driver_diff
cargo test --release -q -p envy-server --test accept_pressure

echo "== smoke: fig13_throughput --quick --jobs 2 =="
# The smoke runs the shipped configuration, the paper's 2 GB array, over
# a shorter window (about 2 s and 360 MiB on a 2-CPU host).
# A --quick run writes its report to results/ci_smoke_BENCH_<name>.json
# (git-ignored, like every other file this script leaves in results/);
# results/BENCH_<name>.json is written by full runs only. Every experiment
# is one subcommand of the single envy-bench binary, built once here.
mkdir -p results
cargo build --release -q -p envy-bench
BENCH=./target/release/envy-bench
# The timed access's shape is fixed in source: EnvyStore::read_at,
# write_at, timed_access, timed_chunk and move_chunk are
# #[inline(always)], so the TPC-A driver gets the one-word access inline
# and only the multi-chunk EnvyStore::timed_walk is out of line. An
# outlined copy means the link step is choosing that shape again, which
# moved the tpca_sim benchmark by about 4 % once (docs/PERFORMANCE.md,
# "One timed access, written once").
if nm -C "$BENCH" | grep -E 'EnvyStore::(read_at|write_at|timed_access|timed_chunk|move_chunk)$'; then
  echo "envy-bench carries an outlined copy of the timed access step"; exit 1
fi
# The page-table decode is part of that step: PageTable::lookup (one
# u32 load, a compare and a shift/mask) is #[inline(always)], so an SRAM
# hit or a Flash page resolves without a call.
if nm -C "$BENCH" | grep -E 'PageTable::(lookup|decode)$'; then
  echo "envy-bench carries an outlined copy of PageTable::lookup"; exit 1
fi
$BENCH fig13_throughput --quick --jobs 2 > results/ci_smoke_fig13.txt
test -s results/ci_smoke_fig13.txt
test -s results/ci_smoke_BENCH_fig13_throughput.json

echo "== smoke: ext_fault_recovery --quick --jobs 2 =="
# Deterministic fault-injection smoke: crash at every injection point
# once (fixed seeds); the binary exits nonzero if any recovery fails.
$BENCH ext_fault_recovery --quick --jobs 2 > results/ci_smoke_fault_recovery.txt
grep -q "23/23 injection points crashed and recovered" results/ci_smoke_fault_recovery.txt
test -s results/ci_smoke_BENCH_ext_fault_recovery.json

echo "== smoke: ext_serve --quick (sharded serving scalability) =="
# Closed-loop shard-count sweep plus the determinism anchor: a 1-shard
# front-end run must land on exactly the monolithic store's simulated
# clock and stats — the binary asserts it and prints the anchor line.
$BENCH ext_serve --quick > results/ci_smoke_ext_serve.txt
grep -q "anchor: 1-shard front end == monolithic store" results/ci_smoke_ext_serve.txt
# The quick run also drives the event-loop connection axis: a closed-loop
# socket-vs-in-process ratio, a 100/1000-connection open-loop mini-sweep
# (the 10k point is full-run only), and the idle-connection cost table.
grep -q "socket tax at" results/ci_smoke_ext_serve.txt
grep -q "p999 growth 100 -> 1000 connections" results/ci_smoke_ext_serve.txt
grep -q "idle-connection cost" results/ci_smoke_ext_serve.txt
test -s results/ci_smoke_BENCH_ext_serve.json

echo "== smoke: ext_txn --quick (atomic transactions over the wire) =="
# Abort-rate sweep (4 transaction slots per shard), 1/2/4/8-slot
# concurrency sweep, and cleaner-pressure table plus the wire anchor: a
# seeded atomic TPC-A run (nonzero aborts) through a real TCP server
# must match the monolithic in-process replay exactly — the binary
# asserts it (clock, stats, bytes) and prints the anchor line.
$BENCH ext_txn --quick > results/ci_smoke_ext_txn.txt
grep -q "anchor: atomic TPC-A over the wire == monolithic replay" results/ci_smoke_ext_txn.txt
test -s results/ci_smoke_BENCH_ext_txn.json

echo "== smoke: ext_ycsb --quick (KV serving under YCSB mixes) =="
# YCSB A-E over the KV wire ops plus the KV wire anchor: a seeded atomic
# YCSB-A run (nonzero aborts) through a real TCP server must match the
# monolithic in-process replay exactly — the binary asserts it (clock,
# stats, bytes) and prints the anchor line. The report also carries the
# uniform-vs-zipfian wear rows (see docs/KV.md).
$BENCH ext_ycsb --quick > results/ci_smoke_ext_ycsb.txt
grep -q "anchor: atomic YCSB-A over the wire == monolithic replay" results/ci_smoke_ext_ycsb.txt
test -s results/ci_smoke_BENCH_ext_ycsb.json

echo "== smoke: envy-cli commands (small inputs) + a mistyped option =="
# Nothing else runs these five commands; each must finish with small
# inputs, and an option the command does not read must be refused with
# exit status 2 before any work (tests/cli_options.rs covers the rest).
cargo build --release -q --bin envy-cli
CLI=./target/release/envy-cli
CLI_START=$(date +%s)
$CLI info > results/ci_smoke_cli.txt
$CLI cleaning --segments 16 --pages 64 >> results/ci_smoke_cli.txt
$CLI tpca --txns 1000 >> results/ci_smoke_cli.txt
$CLI stats --txns 1000 >> results/ci_smoke_cli.txt
$CLI trace --txns 1000 --last 5 >> results/ci_smoke_cli.txt
grep -q "achieved TPS" results/ci_smoke_cli.txt
grep -q "latency percentiles" results/ci_smoke_cli.txt
grep -q "events emitted" results/ci_smoke_cli.txt
set +e
$CLI tpca --rat 5000 > results/ci_smoke_cli_refused.txt 2>&1
CLI_STATUS=$?
set -e
test "$CLI_STATUS" = "2"
grep -q "unknown argument \`--rat\`" results/ci_smoke_cli_refused.txt
echo "envy-cli leg: $(($(date +%s) - CLI_START)) s"

echo "== smoke: envy-served (epoll driver) + 4-client socket loadgen =="
# Serve on a Unix socket under the default epoll event loop, drive 4
# client connections closed-loop, then shut the server down over the
# wire; the daemon must drain, report a clean summary, and remove its
# socket file.
SERVE_SOCK="results/ci_serve.sock"
rm -f "$SERVE_SOCK"
cargo build --release -q -p envy-server --bin envy-served
# The admission path's shape is fixed in source: ShardHandle::admit and
# ShardHandle::localize are #[inline(always)]. An outlined copy of
# either means the link step is choosing that shape again, which moved
# the in-process txn_tpca benchmark by up to 18 % although it never runs
# the event loop (docs/PERFORMANCE.md, "Inline completions skip the
# channel").
if nm -C target/release/envy-served | grep -E 'ShardHandle::(admit|localize)'; then
  echo "envy-served carries an outlined ShardHandle::admit or ::localize"; exit 1
fi
./target/release/envy-served --unix "$SERVE_SOCK" --shards 2 --txn-slots 4 --scale small \
  --net-driver epoll > results/ci_smoke_serve_daemon.txt 2>&1 &
SERVED_PID=$!
for _ in $(seq 1 100); do test -S "$SERVE_SOCK" && break; sleep 0.1; done
test -S "$SERVE_SOCK"
./target/release/envy-cli bench-serve --unix "$SERVE_SOCK" --shards 2 --scale small \
  --clients 4 --txns 250 > results/ci_smoke_serve_load.txt
# KV leg: the same daemon serves the four KV wire ops (docs/KV.md);
# put/get/scan/delete round-trip through envy-cli against shard 1.
./target/release/envy-cli kv-put --unix "$SERVE_SOCK" --shard 1 --key 7 --value hello \
  > results/ci_smoke_serve_kv.txt
./target/release/envy-cli kv-get --unix "$SERVE_SOCK" --shard 1 --key 7 \
  >> results/ci_smoke_serve_kv.txt
./target/release/envy-cli kv-scan --unix "$SERVE_SOCK" --shard 1 --start 0 --limit 5 \
  >> results/ci_smoke_serve_kv.txt
./target/release/envy-cli kv-del --unix "$SERVE_SOCK" --shard 1 --key 7 \
  >> results/ci_smoke_serve_kv.txt
./target/release/envy-cli kv-get --unix "$SERVE_SOCK" --shard 1 --key 7 \
  >> results/ci_smoke_serve_kv.txt
printf 'ok\nhello\n7\thello\n(1 records)\ndeleted\n(miss)\n' \
  | cmp - results/ci_smoke_serve_kv.txt
# Second leg: the same daemon (4 transaction slots per shard) serves
# atomic transactions (TXN_BEGIN .. TXN_COMMIT/TXN_ABORT over the wire)
# with a seeded abort fraction; write-set conflicts abort-and-retry.
./target/release/envy-cli bench-serve --unix "$SERVE_SOCK" --shards 2 --scale small \
  --clients 2 --txns 100 --atomic 0.2 --shutdown > results/ci_smoke_serve_txn.txt
wait "$SERVED_PID"
grep -Eq "completed txns +1000" results/ci_smoke_serve_load.txt
grep -Eq "errors +0" results/ci_smoke_serve_load.txt
grep -Eq "aborted txns +[1-9]" results/ci_smoke_serve_txn.txt
grep -Eq "errors +0" results/ci_smoke_serve_txn.txt
grep -q "(0 timed out)" results/ci_smoke_serve_daemon.txt
grep -q "epoll driver" results/ci_smoke_serve_daemon.txt
test ! -e "$SERVE_SOCK"

echo "== smoke: envy-served (poll backend A/B) =="
# The portable poll(2) backend stays selectable and must serve the same
# load cleanly — crates/server/tests/driver_diff.rs pins both backends'
# wire bytes to a socket-free replay; this leg pins the daemon wiring,
# the idle-timeout flag included. An unknown backend is refused with
# exit status 2, like any usage error (crates/server/tests/served_cli.rs).
set +e
./target/release/envy-served --net-driver threads > results/ci_smoke_serve_bad_driver.txt 2>&1
SERVED_STATUS=$?
set -e
test "$SERVED_STATUS" = "2"
grep -qF "use epoll|poll" results/ci_smoke_serve_bad_driver.txt
rm -f "$SERVE_SOCK"
./target/release/envy-served --unix "$SERVE_SOCK" --shards 2 --txn-slots 4 --scale small \
  --net-driver poll --idle-timeout-ms 30000 \
  > results/ci_smoke_serve_daemon_poll.txt 2>&1 &
SERVED_PID=$!
for _ in $(seq 1 100); do test -S "$SERVE_SOCK" && break; sleep 0.1; done
test -S "$SERVE_SOCK"
./target/release/envy-cli bench-serve --unix "$SERVE_SOCK" --shards 2 --scale small \
  --clients 4 --txns 250 --shutdown > results/ci_smoke_serve_load_poll.txt
wait "$SERVED_PID"
grep -Eq "completed txns +1000" results/ci_smoke_serve_load_poll.txt
grep -Eq "errors +0" results/ci_smoke_serve_load_poll.txt
grep -q "poll driver" results/ci_smoke_serve_daemon_poll.txt
test ! -e "$SERVE_SOCK"

echo "== benchmark/: build, --quick, its own tests =="
# The instrument BENCHMARK.json declares is a standalone package (own
# workspace and lock file); keep it building and self-consistent. --quick
# runs all five workloads in both modes against the embedded
# BENCHMARK.json and exits nonzero on any failed operation, digest
# mismatch or invariant failure; numbers from it are smoke, not results.
# On smoke-length rounds the traced mode's own accounting check (per-thread
# on-CPU time against the rounds' wall time, 5 %) trips on an unmodified
# tree: the two /proc snapshots around a round cost a fixed fraction of a
# millisecond, which
# was 5-7 % of a --quick round at PR 13 (1 full --quick run in 3 failed)
# and is more since PR 14 made the served rounds two to three times
# shorter (5 in 6). benchmark/ is not this leg's to fix (ROADMAP, PR 14
# findings), so it asks for three times the round length (--seconds 30:
# 5 of 5 pass, 14 s) and still gets three attempts; a real failure fails
# all of them.
cargo build --offline --release -q --manifest-path benchmark/Cargo.toml
QUICK_OK=0
for attempt in 1 2 3; do
  if cargo run --offline --release -q --manifest-path benchmark/Cargo.toml -- --quick \
    --seconds 30 > results/ci_smoke_benchmark_quick.txt; then
    QUICK_OK=1
    break
  fi
  echo "benchmark --quick: attempt $attempt failed"
done
test "$QUICK_OK" = "1"
test -s results/ci_smoke_benchmark_quick.txt
(cd benchmark && cargo test --offline -q)

echo "== report schema check =="
# Every committed results/BENCH_*.json must parse, carry report_version
# and come from a full run; a --quick run must not write one.
cargo test --release -q -p envy-bench --test report_schema

echo "== results/ untouched =="
# Nothing above may have rewritten a tracked result: a smoke number left
# in the working tree is one `git commit -a` away from being quoted.
# (Skipped in an exported tree, where there is nothing to compare with.)
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  if ! git diff --quiet -- results/; then
    echo "tracked files under results/ differ from the index:"
    git diff --name-only -- results/
    exit 1
  fi
fi

echo "ci: all checks passed"
