#!/usr/bin/env bash
# The repository's checks, in the order CI runs them after installing the package:
# the console-script smoke test, the tier-1 tests, the benchmark harness self-check
# and the demos.  Run from any directory:
#
#     bash tools/ci.sh
#
# It drives the `evograph` on PATH if there is one, else `python -m evograph.cli`,
# and says which.  PYTHONPATH puts this checkout's src/ first, so either form, the
# tests and the demos import this checkout.  It stops at the first check that fails.
set -euo pipefail

repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$repo"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
if command -v evograph > /dev/null; then
    echo "ci.sh: evograph is $(command -v evograph)"
else
    evograph() { python -m evograph.cli "$@"; }
    echo "ci.sh: evograph is python -m evograph.cli (no evograph on PATH)"
fi
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

# re-runs run directory $1 from its manifest through the process pool (--jobs 2: chunks of
# two seeds and one) and requires the same manifest (its config snapshot included),
# summary, report files and checkpoints
rerun_reproduces() {
    evograph run --from-manifest "$1/manifest.json" --output-dir "$1-rerun" --jobs 2 --quiet
    for f in manifest.json summary.json report_seed{0,1,2}.jsonl model_seed{0,1,2}/params.bin; do
        cmp "$1/$f" "$1-rerun/$f"
    done
}

# the entry point, end to end: generate, analyze-tdiff, run, report, re-run
smoke_test() {
    evograph generate "$smoke/data" --num-timestamps 6 --vertices-per-timestamp 12 --feature-dim 4 --quiet
    evograph analyze-tdiff "$smoke/data" --output-dir "$smoke/tdiff" --quiet
    # a copy with every dataset file in its text form gives the same analysis and, below, the
    # same run: tabs, CRLF line ends and no-break spaces in every file for the int() and
    # float() line readers, and features.csv at 9 significant digits, which hold every
    # float32 exactly
    local nbsp f jobs code
    nbsp=$(printf '\302\240')
    cp -r "$smoke/data" "$smoke/text"
    python -c 'import sys, numpy as np, pathlib
ds = pathlib.Path(sys.argv[1])
for name, width in (("edges", 2), ("times", 1), ("labels", 1)):
    np.savetxt(ds / name, np.fromfile(ds / f"{name}.bin", "<i8").reshape(-1, width), fmt="%d")
manifest = dict(line.split("=") for line in (ds / "manifest").read_text().split())
features = np.fromfile(ds / "features.bin", "<f4").reshape(-1, int(manifest["feature_dim"]))
np.savetxt(ds / "features.csv", features, delimiter=",", fmt="%.9g")' "$smoke/text"
    rm "$smoke/text"/*.bin
    sed -i "s/ /\t/; s/^/$nbsp/; s/\$/\r/" "$smoke/text/edges"
    for f in times labels; do
        sed -i "s/^/\t/; s/\$/$nbsp\r/" "$smoke/text/$f"
    done
    sed -i "s/,/\t,$nbsp/g; s/^/$nbsp/; s/\$/\t\r/" "$smoke/text/features.csv"
    printf '%s\t\r\n' "$nbsp" >> "$smoke/text/features.csv"  # a line of whitespace only is skipped
    # both datasets hold one graph: the same analysis at k = 2 (the default), 1 and 3
    evograph analyze-tdiff "$smoke/text" --output-dir "$smoke/tdiff-text" --quiet
    for k in 1 3; do
        evograph analyze-tdiff "$smoke/data" --k "$k" --output-dir "$smoke/tdiff$k" --quiet
        evograph analyze-tdiff "$smoke/text" --k "$k" --output-dir "$smoke/tdiff-text$k" --quiet
    done
    for k in '' 1 3; do
        for f in tdiff.csv tdiff.json; do
            cmp "$smoke/tdiff$k/$f" "$smoke/tdiff-text$k/$f"
        done
    done
    # one vertex per timestamp, densely wired: each block tallies its differences, not a table
    # of timestamp pairs.  Timestamps are distinct, so no pair has difference 0, and edges reach
    # at most 4 timestamps back, so none differs by more than 8 within 2 hops
    evograph generate "$smoke/distinct" --num-timestamps 80 --vertices-per-timestamp 1 --feature-dim 4 \
        --window-back 4 --intra-class-edge-prob 0.9 --inter-class-edge-prob 0.6 --quiet
    evograph analyze-tdiff "$smoke/distinct" --output-dir "$smoke/tdiff-distinct" --quiet
    cat "$smoke/tdiff-distinct/tdiff.csv"
    test "$(sed 1d "$smoke/tdiff-distinct/tdiff.csv" | cut -d, -f1 | tr '\n' ' ')" = "1 2 3 4 5 6 7 8 "
    # within 3 and 4 hops, the differences 1..12 and 1..16.  The third hop's 6852 paths exceed
    # the 80 x 80 entries the product can hold, so its buffers are sized by the latter
    for k in 3 4; do
        evograph analyze-tdiff "$smoke/distinct" --k "$k" --output-dir "$smoke/tdiff-distinct$k" --quiet
        test "$(sed 1d "$smoke/tdiff-distinct$k/tdiff.csv" | cut -d, -f1 | tr '\n' ' ')" = "$(seq -s ' ' 1 $((4 * k))) "
    done
    # 6000 vertices in five blocks of rows, so a worker thread builds each block's reach while
    # the calling thread tallies the block before: the histogram at k = 2 and 3 must be that of
    # scipy's matrix powers A + A^2 (+ A^3), less the diagonal
    evograph generate "$smoke/blocks" --num-timestamps 60 --vertices-per-timestamp 100 --quiet
    for k in 2 3; do
        evograph analyze-tdiff "$smoke/blocks" --k "$k" --output-dir "$smoke/tdiff-blocks$k" --quiet
        python -c 'import json, sys, numpy as np, evograph as eg
from evograph import tdiff
g, k = eg.load_dataset(sys.argv[1]), int(sys.argv[2])
rows = tdiff._BLOCK_ENTRIES // g.num_vertices
if -(-g.num_vertices // rows) != 5:
    sys.exit(f"{g.num_vertices} vertices in blocks of {rows} rows: not five blocks")
a = (g.adjacency() > 0).astype(np.int64)
power = reach = a
for _ in range(k - 1):
    power = power @ a
    reach = reach + power
reach = reach.tocoo()
off = reach.row != reach.col
diffs = g.time[reach.row[off]] - g.time[reach.col[off]]
values, counts = np.unique(diffs[diffs >= 0], return_counts=True)
expected = {str(d): c for d, c in zip(values.tolist(), counts.tolist())}
with open(sys.argv[3], encoding="utf-8") as f:
    if json.load(f)["histogram"] != expected:
        sys.exit(f"k = {k}: histogram differs from the matrix powers")' \
            "$smoke/blocks" "$k" "$smoke/tdiff-blocks$k/tdiff.json"
    done
    printf 'dataset=%s\nmodel=mlp\nhistory_size=2\nepochs=2\nseeds=0,1,2\n' "$smoke/data" > "$smoke/run.cfg"
    evograph run --config "$smoke/run.cfg" --output-dir "$smoke/run" --quiet
    sed "s|^dataset=.*|dataset=$smoke/text|" "$smoke/run.cfg" > "$smoke/text.cfg"
    evograph run --config "$smoke/text.cfg" --output-dir "$smoke/text-run" --quiet
    # the summary too: both datasets hold one graph, so they share its fingerprint
    for f in summary.json report_seed{0,1,2}.jsonl model_seed{0,1,2}/params.bin; do
        cmp "$smoke/run/$f" "$smoke/text-run/$f"
    done
    evograph report "$smoke/run"
    # --jobs 1 (the default) trains the three seeds as one batch
    rerun_reproduces "$smoke/run"
    # the same for sage + gDOC
    printf 'dataset=%s\nmodel=sage\ndetector=gdoc\nhistory_size=2\nepochs=5\nseeds=0,1,2\n' "$smoke/data" > "$smoke/sage.cfg"
    evograph run --config "$smoke/sage.cfg" --output-dir "$smoke/sage" --jobs 1 --quiet
    rerun_reproduces "$smoke/sage"
    # and on a graph without edges, where every window's P is empty (no entries, row pointers
    # all zero): sage's sparse products add nothing
    evograph generate "$smoke/edgeless" --num-timestamps 6 --vertices-per-timestamp 12 --feature-dim 4 \
        --intra-class-edge-prob 0 --inter-class-edge-prob 0 --quiet
    test ! -s "$smoke/edgeless/edges.bin"
    sed "s|^dataset=.*|dataset=$smoke/edgeless|" "$smoke/sage.cfg" > "$smoke/edgeless.cfg"
    evograph run --config "$smoke/edgeless.cfg" --output-dir "$smoke/edgeless-run" --jobs 1 --quiet
    rerun_reproduces "$smoke/edgeless-run"
    # a two-task run trains its seeds as one batch as well: the same files through the pool
    # (chunks of two seeds and one), and no checkpoint
    printf 'dataset=%s\nmode=two-task\nmodel=sage\npretrain_epochs=10\ninference_epochs=5\nseeds=0,1,2\n' \
        "$smoke/data" > "$smoke/two.cfg"
    evograph run --config "$smoke/two.cfg" --output-dir "$smoke/two" --jobs 1 --quiet
    evograph run --from-manifest "$smoke/two/manifest.json" --output-dir "$smoke/two-rerun" --jobs 2 --quiet
    for f in manifest.json summary.json report_seed{0,1,2}.jsonl; do
        cmp "$smoke/two/$f" "$smoke/two-rerun/$f"
    done
    test -z "$(find "$smoke/two" "$smoke/two-rerun" -name 'model_seed*')"
    # report's other two modes: forward transfer of the mlp run over its cold twin
    # (a header and one row), and the open-world scores of mlp and sage (a header and two)
    { cat "$smoke/run.cfg"; echo 'restart=cold'; } > "$smoke/cold.cfg"
    evograph run --config "$smoke/cold.cfg" --output-dir "$smoke/cold" --quiet
    evograph report "$smoke/run" "$smoke/cold" --mode fwt > "$smoke/fwt.csv"
    evograph report "$smoke/run" "$smoke/sage" --mode open > "$smoke/open.csv"
    cat "$smoke/fwt.csv" "$smoke/open.csv"
    test "$(wc -l < "$smoke/fwt.csv")" -eq 2
    grep -q '^model,history_size,fwt$' "$smoke/fwt.csv"
    grep -Eq '^mlp,2,-?[0-9]+\.[0-9]{4}$' "$smoke/fwt.csv"
    test "$(wc -l < "$smoke/open.csv")" -eq 3
    grep -q '^model,history_size,restart,detector,tau_min,alpha,mcc,mcc_ci,open_f1,open_f1_ci$' "$smoke/open.csv"
    # a diverging run, sequence or two-task, ends in exit 1, no output directory and one error
    # line: the same line in-process at --jobs 1 (one batch of seeds 0-2, which fails and runs
    # again seed by seed) and through the process pool at --jobs 2
    sed 's/^epochs=2$/epochs=3/' "$smoke/run.cfg" > "$smoke/diverge.cfg"
    echo 'learning_rate=1e300' >> "$smoke/diverge.cfg"
    { cat "$smoke/two.cfg"; echo 'learning_rate=1e300'; } > "$smoke/two-diverge.cfg"
    for name in diverge two-diverge; do
        for jobs in 1 2; do
            code=0
            evograph run --config "$smoke/$name.cfg" --output-dir "$smoke/$name$jobs" --jobs "$jobs" --quiet \
                2> "$smoke/$name$jobs.err" || code=$?
            cat "$smoke/$name$jobs.err"
            test "$code" -eq 1
            test ! -e "$smoke/$name$jobs"
            test "$(wc -l < "$smoke/$name$jobs.err")" -eq 1
        done
        cmp "$smoke/${name}1.err" "$smoke/${name}2.err"
    done
    grep -Eq '^error: task 1: non-finite logits' "$smoke/diverge1.err"
    grep -Eq '^error: non-finite logits' "$smoke/two-diverge1.err"
    # an infinite gDOC alpha is a config error (with risk reduction, a class of SD 0 would get a
    # nan threshold): exit 2, no output directory and one line
    printf 'detector=gdoc\nalpha=inf\nrisk_reduction=true\n' | cat "$smoke/run.cfg" - > "$smoke/alpha.cfg"
    code=0
    evograph run --config "$smoke/alpha.cfg" --output-dir "$smoke/alpha" --quiet 2> "$smoke/alpha.err" || code=$?
    cat "$smoke/alpha.err"
    test "$code" -eq 2
    test ! -e "$smoke/alpha"
    test "$(wc -l < "$smoke/alpha.err")" -eq 1
    grep -q '^config error: .*alpha must be finite and >= 0$' "$smoke/alpha.err"
}

echo "== console script smoke test"
# any warning is an error here, as under pytest (filterwarnings = ["error"])
PYTHONWARNINGS=error smoke_test
echo "== tier-1 tests"
python -m pytest -q --continue-on-collection-errors --durations=10
echo "== benchmark harness self-check"
python perfbench/selfcheck.py
echo "== demos"
for demo in demos/*.py; do
    python -W error "$demo"
done
echo "ci.sh: all checks passed"
