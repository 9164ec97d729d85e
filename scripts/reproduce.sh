#!/usr/bin/env bash
# Regenerate every table and figure of the paper's evaluation.
#
# Usage: scripts/reproduce.sh [--quick]
#   --quick  shrink every sweep (smoke-test fidelity, minutes instead of
#            an hour)
#
# Outputs: aligned text tables on stdout, CSVs under results/.

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK="${1:-}"

echo "== Table I (toy golden values) =="
cargo run --release -p geacc --example quickstart

for fig in fig3 fig4 fig5 fig6; do
    echo "== ${fig} =="
    if [ "$QUICK" = "--quick" ]; then
        cargo run --release -p geacc-bench --bin "$fig" -- --quick
    else
        cargo run --release -p geacc-bench --bin "$fig"
    fi
done

echo "done — CSVs in results/"
