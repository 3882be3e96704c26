#!/usr/bin/env bash
# Runs the whole suite as two alternating sets of N runs of one binary
# (default 3), prints per metric both medians, how much the worse set is off,
# the interquartile spread of all runs and the bound, and exits non-zero when
# any end-to-end metric disagrees or spreads beyond its bound or any run
# answers incorrectly. A second argument names a
# file to write the baseline (medians, quartiles, machine fingerprint) to.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
args=(-repeat "${1:-3}")
if [ $# -ge 2 ]; then args+=(-baseline-out "$2"); fi
exec bash "$here/run.sh" "${args[@]}"
