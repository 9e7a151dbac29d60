#!/usr/bin/env bash
# The benchmark's one command. Builds the package in release and runs each
# workload in a process of its own, so peak memory, allocator state and
# thread pools are per workload.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--out FILE] [--smoke]
#
# Without --workload all four run, one after the other. --trace 1 runs the
# traced variant (bench-trace): the per-layer metrics and the span file.
# The last line each process prints is its one-object JSON result; the exit
# code is non-zero if a build, a run or an answer check failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Pinned before any thread starts: simulated build cost scales with the
# width of the library's worker pool.
export RTX_WORKERS=2

# Honour the caller's target directory (relative ones resolve against the
# current directory, as cargo does); default to the root's ignored target/.
if [ -z "${CARGO_TARGET_DIR:-}" ]; then
    export CARGO_TARGET_DIR="$here/../target/benchmark"
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2

workload=""
binary="bench-run"
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload)
            workload="${2:?--workload needs a name}"
            shift 2
            ;;
        --trace)
            if [ "${2:?--trace needs 0 or 1}" = 1 ]; then binary="bench-trace"; fi
            args+=("$1" "$2")
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

# table_serve runs on one core. A served table query is a chain of thread
# hand-offs (reader, service worker, pool helper) around some 12 us of work;
# where the kernel keeps those threads on one core a query takes 15 us, where
# it spreads them over two it takes 60 us, it stays with either choice for
# minutes, and on two cores nothing the load generator does decides which
# (README.md, "One core for table_serve"). Every thread inherits the mask.
one_core=()
allowed="$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status)"
if taskset -c "${allowed##*[-,]}" true 2>/dev/null; then
    one_core=(taskset -c "${allowed##*[-,]}")
else
    echo "run.sh: taskset cannot pin a core; table_serve runs unpinned" >&2
fi

run_one() {
    local pin=()
    if [ "$1" = table_serve ]; then pin=(${one_core[@]+"${one_core[@]}"}); fi
    ${pin[@]+"${pin[@]}"} "$CARGO_TARGET_DIR/release/$binary" --workload "$1" \
        --work-dir "$CARGO_TARGET_DIR" ${args[@]+"${args[@]}"}
}

if [ -n "$workload" ]; then
    run_one "$workload"
else
    status=0
    for workload in bulk_probe serve_read mixed_durable table_serve; do
        run_one "$workload" || status=$?
    done
    exit "$status"
fi
