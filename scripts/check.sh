#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests, and a campaign smoke
# run exercising the JSONL sink, resume path and determinism end to end.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --fast   # skip the test suite (fmt + clippy + smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$fast" -eq 0 ]]; then
    echo "==> cargo test --workspace"
    cargo test --workspace -q
    echo "==> cargo test (perfbench: traced drivers replay the library's entry points)"
    cargo test --offline --manifest-path perfbench/Cargo.toml
fi

echo "==> campaign smoke run (sweep, 30 trials, 1 vs 2 workers)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q -p majorcan-bench --bin sweep -- \
    30 --seed 0xAB --jobs 1 --out "$tmp/j1.jsonl" --quiet >/dev/null
cargo run -q -p majorcan-bench --bin sweep -- \
    30 --seed 0xAB --jobs 2 --out "$tmp/j2.jsonl" --quiet >/dev/null
sort "$tmp/j1.jsonl" >"$tmp/j1.sorted"
sort "$tmp/j2.jsonl" >"$tmp/j2.sorted"
if ! cmp -s "$tmp/j1.sorted" "$tmp/j2.sorted"; then
    echo "FAIL: campaign artifact differs between 1 and 2 workers" >&2
    exit 1
fi
echo "    artifact identical across worker counts ($(wc -l <"$tmp/j1.jsonl") jobs)"

echo "==> falsifier smoke run (60 schedules/target, 1 vs 2 vs 4 workers, scratch corpus)"
# The report includes the shrink counts (judgements and simulator runs);
# four workers oversubscribe a small host, so the shrink phase's target
# groups finish out of order.
for j in 1 2 4; do
    cargo run -q -p majorcan-falsify --bin falsify -- \
        60 --jobs "$j" --quiet --corpus "$tmp/corpus$j" |
        sed "s|$tmp/corpus$j|CORPUS|" >"$tmp/f$j.txt"
done
for j in 2 4; do
    if ! cmp -s "$tmp/f1.txt" "$tmp/f$j.txt"; then
        echo "FAIL: falsifier report differs between 1 and $j workers" >&2
        exit 1
    fi
    if ! diff -r -q "$tmp/corpus1" "$tmp/corpus$j" >/dev/null; then
        echo "FAIL: falsifier corpus differs between 1 and $j workers" >&2
        exit 1
    fi
done
echo "    report and corpus identical across worker counts ($(ls "$tmp/corpus1" | wc -l) repros)"

echo "==> frame-tail hotspot slice (MajorCAN_3, ACK/CRC-delimiter biased, 1 vs 2 workers)"
# Tail-biased generator hotspots (ACK slot, ACK delimiter, CRC delimiter)
# against the protocol the F3 family used to break, plus a --probe replay
# of an archived F3 minimum through the same gate. Any finding (searched
# or probed) exits 3 and fails the gate.
cargo run -q -p majorcan-falsify --bin falsify -- \
    120 --seed 0xF3 --targets MajorCAN_3 --jobs 1 --quiet \
    --probe corpus/majorcan_3-consistent-458ebee2.json >"$tmp/t1.txt"
cargo run -q -p majorcan-falsify --bin falsify -- \
    120 --seed 0xF3 --targets MajorCAN_3 --jobs 2 --quiet \
    --probe corpus/majorcan_3-consistent-458ebee2.json >"$tmp/t2.txt"
if ! cmp -s "$tmp/t1.txt" "$tmp/t2.txt"; then
    echo "FAIL: frame-tail slice differs between 1 and 2 workers" >&2
    exit 1
fi
echo "    tail slice clean and identical across worker counts"

echo "==> attack-surface smoke run (60 attacks/target, 1 vs 2 vs 4 workers, scratch corpus)"
# The cost-aware attacker campaign: the cost-to-break table, the shrink
# counts and the archived cheapest-attack certificates must be
# bit-identical for any worker count, and MajorCAN's cheapest Agreement
# break must out-price standard CAN's (the bin exits 3 otherwise).
for j in 1 2 4; do
    cargo run -q --release -p majorcan-falsify --bin attack_surface -- \
        60 --jobs "$j" --quiet --corpus "$tmp/atk$j" |
        sed "s|$tmp/atk$j|CORPUS|" >"$tmp/a$j.txt"
done
for j in 2 4; do
    if ! cmp -s "$tmp/a1.txt" "$tmp/a$j.txt"; then
        echo "FAIL: attack-surface table differs between 1 and $j workers" >&2
        exit 1
    fi
    if ! diff -r -q "$tmp/atk1" "$tmp/atk$j" >/dev/null; then
        echo "FAIL: attack corpus differs between 1 and $j workers" >&2
        exit 1
    fi
done
echo "    cost-to-break table and certificates identical across worker counts"

# Committed cheapest-attack minima replay through the probe gate: a CAN
# certificate is historical record (exit 0); a MajorCAN certificate is a
# cost-bounded break and must trip the same exit-3 gate as a live finding.
cargo run -q --release -p majorcan-falsify --bin falsify -- \
    0 --targets CAN --jobs 1 --quiet \
    --probe corpus/attack/attack-can-double-b0aa2359.json >/dev/null
if cargo run -q --release -p majorcan-falsify --bin falsify -- \
    0 --targets CAN --jobs 1 --quiet \
    --probe corpus/attack/attack-majorcan_5-busoff-81ddb72d.json >/dev/null 2>&1; then
    echo "FAIL: probing a MajorCAN attack certificate should exit 3" >&2
    exit 1
fi
echo "    committed attack minima replay through the probe gate"

echo "==> traffic soak smoke run (short clean soak, 1 vs 2 workers, exports compared)"
# The E17 soak in miniature: the campaign JSONL (sorted by job id; the
# sink streams in completion order) and every exported bus log must be
# byte-identical for any worker count, and a clean bus must exit 0.
cargo run -q --release -p majorcan-traffic --bin traffic -- \
    250 6 --seed 0xE17 --jobs 1 --quiet --out "$tmp/s1.jsonl" --export "$tmp/exp1" >/dev/null
cargo run -q --release -p majorcan-traffic --bin traffic -- \
    250 6 --seed 0xE17 --jobs 2 --quiet --out "$tmp/s2.jsonl" --export "$tmp/exp2" >/dev/null
sort "$tmp/s1.jsonl" >"$tmp/s1.sorted"
sort "$tmp/s2.jsonl" >"$tmp/s2.sorted"
if ! cmp -s "$tmp/s1.sorted" "$tmp/s2.sorted"; then
    echo "FAIL: soak artifact differs between 1 and 2 workers" >&2
    exit 1
fi
if ! diff -r -q "$tmp/exp1" "$tmp/exp2" >/dev/null; then
    echo "FAIL: exported bus logs differ between 1 and 2 workers" >&2
    exit 1
fi
echo "    soak artifact and bus logs identical across worker counts ($(wc -l <"$tmp/s1.jsonl") cells)"

# The exit-code contract: heavy bursts must trip the online checker
# (exit 3), and --allow-violations must downgrade the same run to 0.
if cargo run -q --release -p majorcan-traffic --bin traffic -- \
    250 4 --seed 7 --jobs 1 --quiet --bursts --burst-period 1500 --burst-len 30 \
    >/dev/null 2>&1; then
    echo "FAIL: bursty soak should exit nonzero on online checker violations" >&2
    exit 1
fi
cargo run -q --release -p majorcan-traffic --bin traffic -- \
    250 4 --seed 7 --jobs 1 --quiet --bursts --burst-period 1500 --burst-len 30 \
    --allow-violations >/dev/null 2>&1
echo "    online checker gates bursty cells; --allow-violations downgrades"

echo "==> E17 clean grid (10^6 frames per cell, 2 workers) against results/e17_clean.jsonl"
# The committed clean soak grid must come back byte-identical (sorted:
# the sink streams in completion order). The clean-frame leap carries
# most of its 10^6-frame cells, so this takes about a minute on a
# two-vCPU machine.
cargo run -q --release -p majorcan-traffic --bin traffic -- \
    1000000 8 --seed 0x7AF1C --jobs 2 --quiet --out "$tmp/e17_clean.jsonl" >/dev/null
sort "$tmp/e17_clean.jsonl" >"$tmp/e17_clean.sorted"
if ! sort results/e17_clean.jsonl | cmp -s - "$tmp/e17_clean.sorted"; then
    echo "FAIL: regenerated E17 clean grid differs from results/e17_clean.jsonl" >&2
    exit 1
fi
echo "    E17 clean grid byte-identical ($(wc -l <"$tmp/e17_clean.jsonl") cells)"

echo "==> traffic bench smoke run (quick mode, regenerates BENCH_traffic.json)"
cargo run -q --release -p majorcan-traffic --bin bench_traffic -- --quick

echo "==> attack bench smoke run (quick mode, regenerates BENCH_attack.json)"
cargo run -q --release -p majorcan-falsify --bin bench_attack -- --quick

echo "==> hot-path bench smoke run (quick mode, regenerates BENCH_hotpath.json)"
# Fails on schema drift against the committed artifact (the bin refuses to
# overwrite a BENCH_hotpath.json whose key structure changed), then rewrites
# it with this machine's quick-mode numbers.
cargo run -q --release -p majorcan-testbed --bin bench_hotpath -- --quick

echo "==> lane bench smoke run (quick mode, regenerates BENCH_lanes.json)"
# Same contract as the other bench bins: identity asserted against the
# scalar loop on every schedule before timing, schema-drift guard against
# the committed BENCH_lanes.json, then rewritten with quick-mode numbers.
cargo run -q --release -p majorcan-testbed --bin bench_lanes -- --quick

echo "==> engine determinism smoke (same slice through lanes and scalar)"
# The lane engine must report exactly what the scalar hot loop reports:
# run the same falsifier slice through run_lanes (default) and
# schedule-by-schedule (--scalar) and diff the JSONL artifacts, which
# record every job's per-outcome counters. The targets cover every
# MajorCAN geometry the falsify_major benchmark runs on lanes.
engine_args=(80 --seed 0xBA7C4 --jobs 2 --quiet
    --targets CAN,MinorCAN,MajorCAN_3,MajorCAN_4,MajorCAN_5,TOTCAN)
cargo run -q -p majorcan-falsify --bin falsify -- \
    "${engine_args[@]}" --out "$tmp/b1.jsonl" >/dev/null
cargo run -q -p majorcan-falsify --bin falsify -- \
    "${engine_args[@]}" --scalar --out "$tmp/b2.jsonl" >/dev/null
sort "$tmp/b1.jsonl" >"$tmp/b1.sorted"
sort "$tmp/b2.jsonl" >"$tmp/b2.sorted"
if ! cmp -s "$tmp/b1.sorted" "$tmp/b2.sorted"; then
    echo "FAIL: falsifier artifact differs between lane and scalar evaluation" >&2
    exit 1
fi
echo "    lane and scalar evaluation produce identical artifacts ($(wc -l <"$tmp/b1.jsonl") jobs)"

echo "==> sharded fleet smoke run (falsify, 1 process vs 3 shard workers, then tamper)"
# The crash-tolerant fleet path end to end: three sequential shard
# workers over one coordination directory must merge to a JSONL artifact
# byte-identical to the single-process run (both sorted: the sink
# streams in completion order, the merge in job-id order). Then flip one
# transcript byte and demand a merge — the anchor cross-check must
# detect it (exit 3), and nothing else may exit nonzero.
cargo run -q -p majorcan-falsify --bin falsify -- \
    120 --seed 0x5A --jobs 1 --quiet --out "$tmp/single.jsonl" >/dev/null
for k in 0 1 2; do
    cargo run -q -p majorcan-falsify --bin falsify -- \
        120 --seed 0x5A --jobs 1 --quiet --shard "$k/3" --shard-dir "$tmp/fleet" >/dev/null
done
sort "$tmp/single.jsonl" >"$tmp/single.sorted"
sort "$tmp/fleet/merged.jsonl" >"$tmp/merged.sorted"
if ! cmp -s "$tmp/single.sorted" "$tmp/merged.sorted"; then
    echo "FAIL: merged fleet artifact differs from the single-process run" >&2
    exit 1
fi
cargo run -q -p majorcan-falsify --bin falsify -- \
    120 --seed 0x5A --jobs 1 --quiet --merge --shard-dir "$tmp/fleet" >/dev/null
echo "    merged fleet artifact identical to single process ($(wc -l <"$tmp/single.jsonl") jobs)"
# Tamper: increment the last digit of one committed shard transcript.
perl -i -pe 's/(\d)(?=[^\d]*$)/($1+1)%10/e if eof' "$tmp/fleet/shard-1.jsonl"
if cargo run -q -p majorcan-falsify --bin falsify -- \
    120 --seed 0x5A --jobs 1 --quiet --merge --shard-dir "$tmp/fleet" \
    >/dev/null 2>"$tmp/tamper.err"; then
    echo "FAIL: merging a tampered shard transcript should exit 3" >&2
    exit 1
fi
if ! grep -q "shard 1" "$tmp/tamper.err"; then
    echo "FAIL: tamper detection should name the corrupt shard" >&2
    cat "$tmp/tamper.err" >&2
    exit 1
fi
echo "    flipped transcript byte detected at merge, shard named"

echo "OK"
