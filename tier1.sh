#!/usr/bin/env sh
# Tier-1 gate: format, build, test, lint, and a profiling smoke run.
# Runnable from any directory; it changes to its own location first.
set -eu
cd "$(dirname "$0")"
cargo fmt --all --check
cargo build --release
cargo build --release -p dtu-bench --bin topsexec
cargo test -q
cargo clippy --workspace -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# The telemetry pipeline end to end: `topsexec profile` must emit a
# non-empty, valid-JSON Perfetto/Chrome trace.
# Clean the scratch dir on normal exit *and* on interrupt/termination —
# a bare EXIT trap leaks it when the shell is killed mid-run.
trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT INT TERM
./target/release/topsexec profile resnet50 --trace-out "$trace_dir/trace.json" > /dev/null
python3 - "$trace_dir/trace.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace must be a non-empty JSON array"
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "trace must contain duration spans"
assert len({e["pid"] for e in spans}) >= 3, "trace must cover >= 3 layers"
PY

# The parallel experiment engine end to end: a cold sweep populates the
# compiled-session cache; a warm sweep in a new process must decode
# every point from the disk tier, compile nothing, and report exactly
# the cold sweep's numbers.
./target/release/topsexec sweep --models resnet50 --batches 1,2 --jobs 4 \
    --cache-dir "$trace_dir/cache" --format json > "$trace_dir/cold.json"
./target/release/topsexec sweep --models resnet50 --batches 1,2 --jobs 4 \
    --cache-dir "$trace_dir/cache" --format json > "$trace_dir/warm.json"
python3 - "$trace_dir/cold.json" "$trace_dir/warm.json" <<'PY'
import json, sys
cold, warm = (json.load(open(path)) for path in sys.argv[1:3])
points = warm["points"]
assert len(points) == 2, f"expected 2 grid points, got {len(points)}"
assert all(p["latency_ms"] > 0 for p in points), "latencies must be positive"
cache = warm["cache"]
assert cache["disk_hits"] == 2 and cache["misses"] == 0, \
    f"warm sweep must decode every point from disk, stats: {cache}"
keys = ("model", "batch", "latency_ms", "throughput_sps", "energy_j")
same = [tuple(p[k] for k in keys) for p in cold["points"]] == \
    [tuple(p[k] for k in keys) for p in points]
assert same, "disk-cache hits changed the sweep's numbers"
PY
# The analytic timing fast path end to end: `--timing both` runs the
# interpreter and the calibrated analytic backend over the same grid
# and exits nonzero past the 5% rtol bound; the comparison JSON is
# re-checked for the per-point bound here.
./target/release/topsexec sweep --models resnet50 --batches 1,2 --jobs 4 \
    --timing both --rtol-bound 0.05 --cache-dir "$trace_dir/cache" \
    --format json > "$trace_dir/fastpath.json"
python3 - "$trace_dir/fastpath.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["within_bound"] is True, f"analytic diverged: {r['max_rtol']}"
assert len(r["points"]) == 2 and all(p["rtol"] <= 0.05 for p in r["points"]), r
PY
# The fleet layer end to end: a 4-chip cluster run must emit valid,
# accounting-balanced JSON, hit the shared session cache at least once
# (jobs=1 keeps the cache tally schedule-independent), and be
# byte-identical across worker counts.
./target/release/topsexec fleet resnet50 --chips 4 --qps 4000 \
    --duration 2000 --seed 7 --jobs 1 --no-disk-cache \
    --format table > "$trace_dir/fleet.txt"
grep -E 'cache: [0-9]+ memory' "$trace_dir/fleet.txt" > /dev/null
python3 - "$trace_dir/fleet.txt" <<'PY'
import re, sys
m = re.search(r"cache: (\d+) memory \+ (\d+) disk hits, (\d+) misses",
              open(sys.argv[1]).read())
assert m and int(m.group(1)) + int(m.group(2)) >= 1, \
    "fleet chips must share compiled sessions"
PY
./target/release/topsexec fleet resnet50 --chips 4 --qps 4000 \
    --duration 2000 --seed 7 --jobs 1 --no-disk-cache > "$trace_dir/fleet_j1.json"
./target/release/topsexec fleet resnet50 --chips 4 --qps 4000 \
    --duration 2000 --seed 7 --jobs 4 --no-disk-cache > "$trace_dir/fleet_j4.json"
cmp "$trace_dir/fleet_j1.json" "$trace_dir/fleet_j4.json"
python3 - "$trace_dir/fleet_j1.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["accounting_balanced"] is True, "fleet accounting leaked"
assert r["offered"] > 0 and r["completed"] > 0, "fleet served nothing"
PY
# A longer two-tenant run with a mid-run chip kill: ten epochs reuse
# each chip's run-scoped latency memo, and the killed chip's truncated
# re-run reuses it too; the report must stay byte-identical across
# worker counts.
./target/release/topsexec fleet --models resnet50,bert --chips 4 \
    --duration 10000 --kill-chip 1 --kill-at 5500 --jobs 1 \
    --no-disk-cache > "$trace_dir/fleet_long_j1.json"
./target/release/topsexec fleet --models resnet50,bert --chips 4 \
    --duration 10000 --kill-chip 1 --kill-at 5500 --jobs 4 \
    --no-disk-cache > "$trace_dir/fleet_long_j4.json"
cmp "$trace_dir/fleet_long_j1.json" "$trace_dir/fleet_long_j4.json"

# The generative serving path end to end: the continuous batcher must
# emit valid, accounting-balanced JSON with real decode work, and the
# report must be byte-identical across --jobs and cache temperature.
./target/release/topsexec serve --generative --gen-model tiny --seed 7 \
    --jobs 1 --cache-dir "$trace_dir/gcache" > "$trace_dir/gen_j1.json" 2>/dev/null
./target/release/topsexec serve --generative --gen-model tiny --seed 7 \
    --jobs 4 --cache-dir "$trace_dir/gcache" > "$trace_dir/gen_j4.json" 2>/dev/null
cmp "$trace_dir/gen_j1.json" "$trace_dir/gen_j4.json"
python3 - "$trace_dir/gen_j1.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["offered"] == r["completed"] + r["shed"] + r["fault_dropped"], \
    "generative accounting leaked"
assert r["decode_tokens"] > 0 and r["prefill_tokens"] > 0, "no token work"
assert r["ttft"]["count"] == r["completed"], "TTFT sampled per completion"
PY
# The generative monitor must be strictly observational: attaching it
# may not change a byte of the report.
./target/release/topsexec serve --generative --gen-model tiny --seed 7 \
    --jobs 4 --monitor --cache-dir "$trace_dir/gcache" \
    > "$trace_dir/gen_mon.json" 2>/dev/null
cmp "$trace_dir/gen_j1.json" "$trace_dir/gen_mon.json"

echo "tier1 OK"
