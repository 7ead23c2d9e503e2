#!/bin/sh
# Regenerate every figure/table of the paper's evaluation.
# Usage: ./run_experiments.sh [--quick] [--jobs N]
# All flags are forwarded to every experiment; --jobs N runs each
# experiment's parameter sweep on N worker threads (default: all cores).
# A --quick run is a smoke test, not a result: its tables go to
# results/ci_smoke_<name>.txt (git-ignored), as its JSON reports do.
set -e
OUT=results
mkdir -p "$OUT"
case " $* " in
  *" --quick "*) PREFIX=ci_smoke_ ;;
  *) PREFIX= ;;
esac
cargo build --release -p envy-bench
for name in table_fig01 table_fig12 fig06_cleaning_cost fig08_policy_comparison \
            fig09_partition_size fig10_segment_count fig13_throughput \
            fig14_utilization fig15_latency breakdown_53 lifetime_55 ext_parallel ext_cost_benefit \
            ext_fault_recovery ext_observability ext_serve ext_txn ext_ycsb \
            abl_buffer_size abl_page_size abl_wear_threshold abl_lg_mechanisms abl_mmu \
            abl_drifting_hotspot calib_saturation; do
  echo "=== $name ==="
  ./target/release/envy-bench "$name" "$@" > "$OUT/$PREFIX$name.txt"
done
echo "all results in $OUT/"
