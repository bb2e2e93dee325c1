#!/usr/bin/env bash
# Paired benchmark comparison of two commits:
#
#   scripts/bench_pairs.sh BASE HEAD WORKLOAD SEED N [SECONDS]
#
# Checks BASE and HEAD out into temporary git worktrees, builds each one's
# `bench_e2e` once, then runs the benchmark command each commits in
# BENCHMARK.json (`--workload WORKLOAD --seed SEED --seconds SECONDS
# --trace 0`; SECONDS defaults to `run_seconds`) in N pairs, alternating
# which side runs first. For every end-to-end metric it prints both
# medians, BASE's quartiles, HEAD's wins and a verdict:
#
#   claimed     HEAD won at least 9 of every 10 pairs (ties count for
#               neither) and its median is better by more than BASE's
#               interquartile range;
#   held        HEAD's median is no worse than BASE's by more than the
#               metric's bound;
#   unresolved  BASE's own interquartile range is wider than the bound, so
#               a "held" could not be told apart from a regression (unless
#               every HEAD run beat every BASE run);
#   regressed   HEAD's median is worse than BASE's by more than the bound.
#
# Exits non-zero when a run fails or prints anything but its two JSON
# result lines; the verdicts themselves never fail the script. Needs git,
# cargo and python3. Each build takes about a minute on a 2-vCPU host.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
    sed -n '2,25p' "$0" >&2
    exit 2
fi
BASE=$1 HEAD=$2 WORKLOAD=$3 SEED=$4 PAIRS=$5 RUN_SECONDS=${6:-}
command -v python3 > /dev/null || { echo "bench_pairs: python3 is required" >&2; exit 2; }
base_rev=$(git rev-parse --verify "$BASE^{commit}")
head_rev=$(git rev-parse --verify "$HEAD^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
cleanup() {
    for side in base head; do
        if [ -d "$work/$side" ]; then
            git worktree remove --force "$work/$side" 2> /dev/null || true
        fi
    done
    git worktree prune
    rm -rf "$work"
}
trap cleanup EXIT

# One checkout, and one build, per distinct commit.
git worktree add --detach --quiet "$work/base" "$base_rev"
if [ "$head_rev" = "$base_rev" ]; then
    head_dir=$work/base
else
    git worktree add --detach --quiet "$work/head" "$head_rev"
    head_dir=$work/head
fi

# The committed command, one word per line, and the run length.
command_of() {
    python3 -c 'import json, sys; [print(w) for w in json.load(open(sys.argv[1]))["command"]]' \
        "$1/BENCHMARK.json"
}
if [ -z "$RUN_SECONDS" ]; then
    RUN_SECONDS=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
        "$head_dir/BENCHMARK.json")
fi

dirs=("$work/base")
if [ "$head_dir" != "$work/base" ]; then
    dirs+=("$head_dir")
fi
for dir in "${dirs[@]}"; do
    echo "==> building $(git -C "$dir" rev-parse --short HEAD)" >&2
    (cd "$dir" && cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml)
done

run() { # run SIDE DIR PAIR
    local cmd
    mapfile -t cmd < <(command_of "$2")
    echo "==> pair $3: $1" >&2
    (cd "$2" && "${cmd[@]}" --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$RUN_SECONDS" --trace 0) > "$work/$1.$3.json"
}
for pair in $(seq 1 "$PAIRS"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run base "$work/base" "$pair"
        run head "$head_dir" "$pair"
    else
        run head "$head_dir" "$pair"
        run base "$work/base" "$pair"
    fi
done

python3 - "$work" "$PAIRS" "$head_dir/BENCHMARK.json" "$BASE" "$HEAD" "$WORKLOAD" "$SEED" <<'EOF'
import json, statistics, sys

work, pairs, spec, base_name, head_name, workload, seed = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(spec))["end_to_end"]

def load(side, pair):
    path = f"{work}/{side}.{pair}.json"
    lines = [l for l in open(path).read().splitlines() if l.strip()]
    if len(lines) != 2:
        sys.exit(f"bench_pairs: {side} run {pair} printed {len(lines)} lines, not 2")
    provenance, result = (json.loads(l) for l in lines)
    if "provenance" not in provenance or "metrics" not in result:
        sys.exit(f"bench_pairs: {side} run {pair}: not a provenance line and a result line")
    if not result.get("correct", False):
        sys.exit(f"bench_pairs: {side} run {pair} reports incorrect output")
    return result["metrics"]

runs = {side: [load(side, p) for p in range(1, pairs + 1)] for side in ("base", "head")}

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{workload} seed {seed}, {pairs} pairs: base {base_name}, head {head_name}")
print(f"{'metric':20} {'base median':>12} {'base q1..q3':>23} {'head median':>12} {'wins':>6}  verdict")
for m in metrics:
    name, bound = m["name"], m["bound"]
    sign = 1 if m["better"] == "higher" else -1
    base = [r[name]["value"] for r in runs["base"] if name in r]
    head = [r[name]["value"] for r in runs["head"] if name in r]
    if len(base) != pairs or len(head) != pairs:
        print(f"{name:20} missing from some runs")
        continue
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    mb, mh = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    gain = sign * (mh - mb)
    scale = abs(mb) or 1.0
    if 10 * wins >= 9 * pairs and gain > q3 - q1:
        verdict = "claimed"
    elif q3 - q1 > bound * scale and min(sign * h for h in head) <= max(sign * b for b in base):
        verdict = "unresolved"
    elif -gain > bound * scale:
        verdict = "regressed"
    else:
        verdict = "held"
    print(f"{name:20} {mb:12.4g} {q1:11.4g}..{q3:<11.4g} {mh:12.4g} {wins:3}/{pairs:<2}  {verdict}")
EOF
