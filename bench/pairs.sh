#!/usr/bin/env bash
# Alternating parent/change pairs through the repository benchmark, kept as
# one committed file per change.
#
#   bench/pairs.sh run --pr N [--parent REV] [--pairs N] [--first-seed K]
#                      [--seconds S] [--workloads "W ..."] [--out FILE]
#   bench/pairs.sh print FILE
#
# `run` exports the parent (default: HEAD when the work tree has changes,
# else HEAD~1) and the change (the work tree as `git stash create` records
# it, which leaves out untracked files, so `git add` new ones first; HEAD
# when clean) with `git archive`, builds each through its own
# benchmark/run.sh, and runs pair i of every workload on seed K+i-1:
# parent first on odd pairs, change first on even ones. It writes
# bench/BENCH_<N>.json (or FILE): the commit, its tree, the parent, a host
# header and every raw record `bench-run --out` appended, per side. Nothing
# else may run meanwhile: only pairs compare on a host that drifts.
#
# Files marked "backfilled": true hold medians copied from CHANGES.md for
# changes that predate this script; they have no records to print.
#
# `print` hands the two sides of FILE to the benchmark's own bench-compare,
# which prints per workload and metric the medians, their ratio and the
# verdict against the bounds of BENCHMARK.json.
set -euo pipefail

work=""
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
command -v jq >/dev/null || { echo "pairs.sh: needs jq" >&2; exit 2; }

usage() {
    sed -n '5,7p' "${BASH_SOURCE[0]}" | sed 's/^# *//' >&2
    exit 2
}

# Prints FILE through bench-compare, parent side first.
print() {
    local file="$1" tmp
    tmp="$(mktemp -d)"
    jq -c '.parent_records[]' "$file" >"$tmp/parent.jsonl"
    jq -c '.change_records[]' "$file" >"$tmp/change.jsonl"
    jq -r '"\(.pr): \(.parent) -> \(.commit) (tree \(.tree)), \(.pairs) pairs of \(.seconds) s, seeds from \(.first_seed)"' "$file"
    CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/benchmark}" \
        cargo run --quiet --release --offline --manifest-path "$root/benchmark/Cargo.toml" \
        --bin bench-compare -- "$tmp/parent.jsonl" "$tmp/change.jsonl" \
        --spec "$root/BENCHMARK.json" || true
    rm -rf "$tmp"
}

run() {
    local pr="" parent="" pairs=10 first_seed=1 seconds=28 out=""
    local workloads="bulk_probe serve_read mixed_durable table_serve"
    while [ $# -gt 0 ]; do
        case "$1" in
            --pr) pr="$2"; shift 2 ;;
            --parent) parent="$2"; shift 2 ;;
            --pairs) pairs="$2"; shift 2 ;;
            --first-seed) first_seed="$2"; shift 2 ;;
            --seconds) seconds="$2"; shift 2 ;;
            --workloads) workloads="$2"; shift 2 ;;
            --out) out="$2"; shift 2 ;;
            *) usage ;;
        esac
    done
    [ -n "$pr" ] || usage
    out="${out:-$root/bench/BENCH_$pr.json}"

    local change
    change="$(git -C "$root" stash create)"
    if [ -z "$change" ]; then
        change="$(git -C "$root" rev-parse HEAD)"
        parent="${parent:-HEAD~1}"
    fi
    parent="$(git -C "$root" rev-parse "${parent:-HEAD}")"

    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    for side in parent change; do
        local rev="$parent"
        [ "$side" = change ] && rev="$change"
        mkdir -p "$work/$side"
        git -C "$root" archive "$rev" | tar -x -C "$work/$side"
    done

    one() { # side workload seed
        # From inside the export, which is no git checkout: the record's
        # `git_commit` reads "unknown" instead of this checkout's HEAD.
        (cd "$work/$1" && CARGO_TARGET_DIR="$work/target-$1" benchmark/run.sh --workload "$2" \
            --seed "$3" --seconds "$seconds" --trace 0 --out "$work/$1.jsonl" >/dev/null)
    }
    local i seed workload
    for i in $(seq 1 "$pairs"); do
        seed=$((first_seed + i - 1))
        for workload in $workloads; do
            echo "pair $i/$pairs, $workload, seed $seed" >&2
            if [ $((i % 2)) = 1 ]; then
                one parent "$workload" "$seed"
                one change "$workload" "$seed"
            else
                one change "$workload" "$seed"
                one parent "$workload" "$seed"
            fi
        done
    done

    # The header through jq; the records as bench-run wrote them, one per
    # line, so the file reads and diffs record by record.
    records() { # name file separator
        printf '  "%s": [\n' "$1"
        sed 's/^/    /; $!s/$/,/' "$2"
        printf '  ]%s\n' "$3"
    }
    {
        jq -n \
            --argjson pr "$pr" \
            --arg commit "$change" \
            --arg tree "$(git -C "$root" rev-parse "$change^{tree}")" \
            --arg parent "$parent" \
            --argjson pairs "$pairs" \
            --argjson first_seed "$first_seed" \
            --argjson seconds "$seconds" \
            --arg cpu "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)" \
            --argjson nproc "$(nproc)" \
            --arg kernel "$(uname -sr)" \
            --arg rustc "$(rustc -V)" \
            '{pr: $pr, commit: $commit, tree: $tree, parent: $parent, pairs: $pairs,
              first_seed: $first_seed, seconds: $seconds,
              host: {cpu: $cpu, nproc: $nproc, kernel: $kernel, rustc: $rustc}}' |
            sed '$d' | sed '$s/$/,/'
        records parent_records "$work/parent.jsonl" ,
        records change_records "$work/change.jsonl" ""
        echo "}"
    } >"$out"
    jq -e . "$out" >/dev/null
    echo "wrote $out" >&2
}

case "${1:-}" in
    run) shift; run "$@" ;;
    print) [ $# = 2 ] || usage; print "$2" ;;
    *) usage ;;
esac
