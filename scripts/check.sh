#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests, and a campaign smoke
# run exercising the JSONL sink, resume path and determinism end to end.
# In a git checkout it also fails if any step changed the working tree.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --fast   # skip the test suite (fmt + clippy + doc + smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# One line per path git reports as changed or untracked, with a hash of
# its contents, so a step that rewrites an already-modified file shows
# up as well as one that touches a clean file.
tree_state() {
    git status --porcelain --untracked-files=all | while IFS= read -r line; do
        echo "$line $(git hash-object -- "${line:3}" 2>/dev/null)"
    done
}
in_git=0
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    in_git=1
    tree_before="$(tree_state)"
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

if [[ "$fast" -eq 0 ]]; then
    echo "==> cargo test --workspace"
    cargo test --workspace -q
    echo "==> cargo test --workspace --release (release-scaled test configurations)"
    # Tests that read cfg!(debug_assertions) run their full configuration
    # only here: the 32-node 90 %-load reference scale, the full-stride
    # two-error enumeration, the Monte-Carlo statistics, the 150-frame
    # leap equivalence cases and the random soaks.
    cargo test --workspace --release -q
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

echo "==> committed results/ regenerated (table1, figures, overhead, montecarlo, sweep, atlas)"
# Every committed report of the deterministic and campaign bins must be
# what the bins print today, byte for byte (the campaign bins print the
# same report for any --jobs). About 3 s in release.
cargo build -q --release -p majorcan-bench
results_step() {
    local file="$1"
    shift
    "target/release/$@" >"$tmp/$file"
    if ! cmp -s "results/$file" "$tmp/$file"; then
        echo "FAIL: regenerated $file differs from results/$file" >&2
        diff "results/$file" "$tmp/$file" >&2 || true
        exit 1
    fi
}
results_step table1.txt table1
results_step table1.json table1 --json
results_step figures.txt figures all
results_step overhead.txt overhead
results_step montecarlo.txt montecarlo --jobs 2 --quiet
results_step sweep.txt sweep --jobs 2 --quiet
results_step atlas.txt atlas --jobs 2 --quiet
echo "    seven results/ reports byte-identical"

echo "==> E17 clean grid (10^6 frames per cell, 2 workers) against results/e17_clean.jsonl"
# The committed clean soak grid must come back byte-identical (sorted:
# the sink streams in completion order). The clean-frame leap carries
# nearly every bit of its 10^6-frame cells, so this takes about 15 s on
# a two-vCPU machine.
cargo run -q --release -p majorcan-traffic --bin traffic -- \
    1000000 8 --seed 0x7AF1C --jobs 2 --quiet --out "$tmp/e17_clean.jsonl" >/dev/null
sort "$tmp/e17_clean.jsonl" >"$tmp/e17_clean.sorted"
if ! sort results/e17_clean.jsonl | cmp -s - "$tmp/e17_clean.sorted"; then
    echo "FAIL: regenerated E17 clean grid differs from results/e17_clean.jsonl" >&2
    exit 1
fi
echo "    E17 clean grid byte-identical ($(wc -l <"$tmp/e17_clean.jsonl") cells)"

echo "==> E17 bursty slice (2x10^4 frames per cell, 2 workers) against results/e17_bursts_20k.jsonl"
# The impaired grid's path through the soak's chunk loop: error bursts,
# retransmissions, bus-off and the leaps between bursts. Its cells flag
# violations, hence --allow-violations. About 5 s in release.
cargo run -q --release -p majorcan-traffic --bin traffic -- \
    20000 8 --seed 0x7AF1C --jobs 2 --quiet --bursts --allow-violations \
    --out "$tmp/e17_bursts.jsonl" >/dev/null 2>&1
sort "$tmp/e17_bursts.jsonl" >"$tmp/e17_bursts.sorted"
if ! sort results/e17_bursts_20k.jsonl | cmp -s - "$tmp/e17_bursts.sorted"; then
    echo "FAIL: regenerated E17 bursty slice differs from results/e17_bursts_20k.jsonl" >&2
    exit 1
fi
echo "    E17 bursty slice byte-identical ($(wc -l <"$tmp/e17_bursts.jsonl") cells)"

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

echo "==> MajorCAN_3/4/5 campaign (20,000 schedules/target, lanes and scalar) against results/falsify_major_fa15.txt"
# The campaign the falsify_major benchmark times, in release: its report
# (every outcome counter, the shrink counts and the three E16 MajorCAN_5
# omission minima) must come back byte-identical through the lane engine
# and through --scalar, and both runs must exit 3 on those minima.
for mode in lanes scalar; do
    flags=(20000 --seed 0xFA15 --targets MajorCAN_3,MajorCAN_4,MajorCAN_5 --jobs 2 --quiet)
    [[ "$mode" == scalar ]] && flags+=(--scalar)
    status=0
    cargo run -q --release -p majorcan-falsify --bin falsify -- "${flags[@]}" \
        >"$tmp/fm_$mode.txt" 2>/dev/null || status=$?
    if [[ "$status" -ne 3 ]]; then
        echo "FAIL: the $mode MajorCAN_3/4/5 campaign exited $status, not 3" >&2
        exit 1
    fi
    if ! cmp -s results/falsify_major_fa15.txt "$tmp/fm_$mode.txt"; then
        echo "FAIL: the $mode MajorCAN_3/4/5 campaign differs from results/falsify_major_fa15.txt" >&2
        diff results/falsify_major_fa15.txt "$tmp/fm_$mode.txt" >&2 || true
        exit 1
    fi
done
echo "    lanes and scalar both exit 3 with the committed report"

echo "==> default falsify (lanes and --scalar) and attack-surface campaigns against results/ and corpus/attack/"
# The falsify bin's default campaign at 600 schedules/target (the
# falsify benchmark's campaign), through the default engine and through
# --scalar, and the default attack-surface sweep: all three reports,
# shrink counts included, must come back byte-identical, and the sweep's
# --corpus archive must be exactly the committed cheapest-attack
# certificates. Under a second each in release.
cargo build -q --release -p majorcan-falsify
results_step falsify_fa15.txt falsify 600 --seed 0xFA15 --jobs 2 --quiet
results_step falsify_fa15.txt falsify 600 --seed 0xFA15 --jobs 2 --quiet --scalar
results_step attack_surface_a77ac4.txt attack_surface --jobs 2 --quiet
target/release/attack_surface --jobs 2 --quiet --corpus "$tmp/attack_corpus" >/dev/null
if ! diff -r corpus/attack "$tmp/attack_corpus" >&2; then
    echo "FAIL: the default attack-surface sweep archives other certificates than corpus/attack/" >&2
    exit 1
fi
echo "    all three reports byte-identical; $(ls "$tmp/attack_corpus" | wc -l) certificates equal corpus/attack/"

echo "==> higher-level-protocol falsify campaign (lanes and --scalar) against results/falsify_hlp_fa15.txt"
# EDCAN, RELCAN and TOTCAN at 600 schedules each: the one pinned report
# of EDCAN and RELCAN, graded with the drain test every stack shares (a
# pending CONFIRM or ACCEPT timeout keeps an HLP bus undrained). The
# report, shrink counts included, must come back byte-identical through
# the default engine and through --scalar. About 0.1 s in release.
hlp_args=(600 --seed 0xFA15 --targets EDCAN,RELCAN,TOTCAN --jobs 2 --quiet)
results_step falsify_hlp_fa15.txt falsify "${hlp_args[@]}"
results_step falsify_hlp_fa15.txt falsify "${hlp_args[@]}" --scalar
echo "    report byte-identical through both engines"

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

if [[ "$in_git" -eq 1 ]]; then
    echo "==> working tree as found"
    tree_after="$(tree_state)"
    if [[ "$tree_after" != "$tree_before" ]]; then
        echo "FAIL: check.sh changed these files (< before, > after):" >&2
        diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
        exit 1
    fi
    echo "    git status and file contents unchanged"
fi

echo "OK"
