#!/bin/sh
# Full-scale (2 GB) timed runs, as in the paper's Figure 12 configuration.
# The measurement windows must be long relative to the 64 MB write buffer
# (32 768-page flush headroom), hence the large transaction counts.
# Tables go to results/<name>_paper.txt and reports to
# results/BENCH_<name>_paper.json, beside the 256 MB runs' files.
set -e
OUT=results
mkdir -p "$OUT"
cargo build --release -p envy-bench
BENCH=./target/release/envy-bench
$BENCH fig13_throughput --paper --txns=250000 > "$OUT/fig13_throughput_paper.txt"
echo fig13 done
$BENCH fig15_latency    --paper --txns=250000 > "$OUT/fig15_latency_paper.txt"
echo fig15 done
$BENCH breakdown_53     --paper --txns=200000 > "$OUT/breakdown_53_paper.txt"
echo breakdown done
$BENCH lifetime_55      --paper --txns=200000 > "$OUT/lifetime_55_paper.txt"
echo lifetime done
