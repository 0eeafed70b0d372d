#!/usr/bin/env sh
# Perf smoke gate: times a *warm* 12-point sweep (resnet50/vgg16/bert x
# batches 1,2,4,8), writes a `{interpreted_wall_ms, points}` snapshot,
# and — in check mode — fails on a >25% wall-clock regression against
# the committed BENCH_9.json or on a change in the grid's point count.
#
#   scripts/bench_smoke.sh            check against the committed
#                                     baseline; snapshot goes to
#                                     target/BENCH_9.json
#   scripts/bench_smoke.sh --write    regenerate the committed baseline
#                                     BENCH_9.json at the repo root
#
# Wall-clock baselines are machine-relative: after moving to faster or
# slower CI hardware, intentionally regenerate with --write and commit
# the diff (same flow as the golden figures, see docs/CLI.md).
set -eu
cd "$(dirname "$0")/.."
mode="${1:-check}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

cargo build --release -p dtu-bench --bin topsexec >/dev/null
bin=./target/release/topsexec

# Cold pass populates the compiled-session cache, so the timed pass
# decodes every point from disk and only walks.
"$bin" sweep --models resnet50,vgg16,bert --batches 1,2,4,8 --jobs 4 \
    --cache-dir "$work/cache" --format json >/dev/null 2>&1

"$bin" sweep --models resnet50,vgg16,bert --batches 1,2,4,8 --jobs 4 \
    --cache-dir "$work/cache" --format json \
    --wall-out "$work/wall.json" >/dev/null 2>&1

python3 - "$work" "$mode" <<'PY'
import json, sys

work, mode = sys.argv[1:3]
wall = json.load(open(f"{work}/wall.json"))
current = {
    "interpreted_wall_ms": round(wall["interpreted_wall_ms"], 1),
    "points": wall["points"],
}
payload = json.dumps(current, indent=2) + "\n"

if mode == "--write":
    with open("BENCH_9.json", "w") as f:
        f.write(payload)
    print(f"bench baseline written to BENCH_9.json: {current}")
    sys.exit(0)

with open("target/BENCH_9.json", "w") as f:
    f.write(payload)
base = json.load(open("BENCH_9.json"))
print(f"bench smoke: current {current}")
print(f"             baseline {base}")

failures = []
if current["points"] != base["points"]:
    failures.append(
        f"sweep point count changed: {base['points']} -> {current['points']}")
if current["interpreted_wall_ms"] > 1.25 * base["interpreted_wall_ms"]:
    failures.append(
        f"warm sweep wall time regressed >25%: "
        f"{base['interpreted_wall_ms']} -> {current['interpreted_wall_ms']} ms")
if failures:
    print("bench smoke FAILED:\n  " + "\n  ".join(failures))
    print("if intentional, regenerate with scripts/bench_smoke.sh --write")
    sys.exit(1)
print("bench smoke OK (snapshot at target/BENCH_9.json)")
PY
