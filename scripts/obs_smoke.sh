#!/bin/sh
# Smoke-test the live observability endpoints end to end, with no
# dependency beyond the go toolchain and curl: start meccsim with the
# obs server on a local port, poll /healthz until it answers, validate
# /metrics with the repo's own strict exposition parser (cmd/obsscrape)
# including the per-refresh-tier series and both MECC read counters, check
# /progress returns the expected JSON keys with done <= total, and check
# /flight holds the run's spans but no per-command (dram_cmd), per-read
# (decode) or per-tREFI (refresh) event. "demo" as the first argument
# additionally prints the scraped progress and a metrics excerpt (that
# is what `make obs-demo` runs).
set -eu

GO=${GO:-go}
PORT=${OBS_SMOKE_PORT:-39123}
BASE=http://127.0.0.1:$PORT
MODE=${1:-check}

bin=$(mktemp -d)
pid=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$bin"
}
trap cleanup EXIT

$GO build -o "$bin/meccsim" ./cmd/meccsim
$GO build -o "$bin/obsscrape" ./cmd/obsscrape

"$bin/meccsim" -bench libq -scheme mecc -smd -scale 2000 \
    -serve "127.0.0.1:$PORT" -linger 30s >/dev/null 2>"$bin/serve.log" &
pid=$!

ok=0
for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then ok=1; break; fi
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.2
done
if [ "$ok" != 1 ]; then
    echo "obs_smoke: /healthz never came up; server log:" >&2
    cat "$bin/serve.log" >&2
    exit 1
fi

# The exposition must parse cleanly and carry the tiered-refresh and
# strong/weak read counters the exporter exists to surface.
"$bin/obsscrape" -require \
    memctrl_tier_refreshes_total,mecc_strong_reads_total,mecc_weak_reads_total,memctrl_refreshes_total,sim_decode_cycles \
    "$BASE/metrics"

prog=$(curl -fsS "$BASE/progress")
case $prog in
*'"phase"'*) ;;
*)
    echo "obs_smoke: /progress missing phase: $prog" >&2
    exit 1
    ;;
esac
case $prog in
*'"sim_time_cycles"'*) ;;
*)
    echo "obs_smoke: /progress missing sim_time_cycles: $prog" >&2
    exit 1
    ;;
esac

# Done and total both count instructions; a runner whose last trace
# record overran its budget raises the total by the excess.
done_n=$(printf '%s\n' "$prog" | sed -n 's/.*"done": *\([0-9][0-9]*\).*/\1/p')
total_n=$(printf '%s\n' "$prog" | sed -n 's/.*"total": *\([0-9][0-9]*\).*/\1/p')
if [ -z "$done_n" ] || [ -z "$total_n" ] || [ "$done_n" -gt "$total_n" ]; then
    echo "obs_smoke: /progress done ${done_n:-?} exceeds total ${total_n:-?}: $prog" >&2
    exit 1
fi

# The default flight recorder keeps only the low-rate kinds.
flight=$(curl -fsS "$BASE/flight")
if printf '%s\n' "$flight" | grep -Eq '"kind":"(dram_cmd|decode|refresh)"'; then
    echo "obs_smoke: /flight holds per-request events:" >&2
    printf '%s\n' "$flight" | grep -E '"kind":"(dram_cmd|decode|refresh)"' | head -5 >&2
    exit 1
fi
case $flight in
*'"kind":"span_start"'*) ;;
*)
    echo "obs_smoke: /flight holds no span: $flight" >&2
    exit 1
    ;;
esac

if [ "$MODE" = demo ]; then
    echo "--- $BASE/progress"
    echo "$prog"
    echo "--- $BASE/metrics (excerpt)"
    curl -fsS "$BASE/metrics" | grep -E '^(# |memctrl_tier|memctrl_.*_queue_depth|mecc_.*reads|batch_)' | head -40
fi

echo "obs_smoke: ok"
