#!/usr/bin/env bash
# Serve-path smoke (docs/wire_protocol.md): boots dbp_serve, replays
# generated workloads over both framings, runs the malformed-frame corpus
# (every entry must produce a typed rejection that leaves the server
# serving), stops the server over the wire, and validates the exported
# observability trace. Exits nonzero if any client run fails, any corpus
# entry kills the server, the server exits nonzero, or the trace does not
# validate.
#
# Usage: serve_smoke.sh BUILD_DIR WORK_DIR [PYTHON]
set -euo pipefail

build_dir=$1
work_dir=$2
python=${3:-python3}
tools_dir="$(cd "$(dirname "$0")" && pwd)"

rm -rf "$work_dir"
mkdir -p "$work_dir"
# AF_UNIX paths are capped around 100 bytes and ctest build trees nest
# deep, so the socket lives in its own short-lived temp directory.
sock_dir=$(mktemp -d "${TMPDIR:-/tmp}/dbp_serve_smoke.XXXXXX")
serve_pid=""
cleanup() {
  if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi
  rm -rf "$sock_dir"
}
trap cleanup EXIT
sock="$sock_dir/wire.sock"

"$build_dir/tools/dbp_serve" --socket="$sock" --shards=2 \
    --epoch-cadence-ms=20 --trace-out="$work_dir/serve.trace.jsonl" \
    --metrics > "$work_dir/serve.json" &
serve_pid=$!

client() { "$build_dir/tools/dbp_client" --socket="$sock" "$@"; }

# Workload replays over both framings. The server's timer provides the
# epoch cadence here — clients must not send explicit epochs alongside a
# ticking timer, since the timer can cut an epoch at the watermark first
# and turn the client's (now regressing) epoch into a typed rejection.
# Each replay restarts logical time near 0, so events of the later
# replays land behind the engine's per-shard clock and are dropped and
# counted as time-order violations — the wire passes them through
# untouched by design (docs/wire_protocol.md, "Semantic validation").
client --framing=binary --events=2000 --workload=bursts \
    > "$work_dir/client.binary.json"
client --framing=json --events=500 --workload=dyadic \
    > "$work_dir/client.json.json"

# Corruption corpus: one connection per malformation kind. dbp_client
# exits nonzero unless the rejection is the expected typed error AND a
# fresh probe connection still gets served afterwards.
: > "$work_dir/corpus.jsonl"
for kind in truncated bad-crc oversized garbage unknown-verb bad-json non-utf8; do
  client --malform="$kind" >> "$work_dir/corpus.jsonl"
done
client --framing=json --malform=unknown-verb >> "$work_dir/corpus.jsonl"
[ "$(grep -c '"server_alive":true' "$work_dir/corpus.jsonl")" -eq 8 ]

# Hostile ids: session ids are opaque, so huge ones must be served without
# the server's memory following them. One line-JSON connection starts and
# ends sessions 2^25, 2^40 and 2^64-2 later than every replay's clock, then
# starts the reserved id 2^64-1, which is refused. A query before and after
# brackets the step: events_applied rises by 7 (a refused submit is still
# applied), and only the reserved start is dropped. VmHWM, the server's
# peak RSS, must rise by less than 8 MB across the step.
vm_hwm_kb() { awk '/^VmHWM:/ {print $2}' "/proc/$serve_pid/status"; }
hwm_before=$(vm_hwm_kb)
"$python" - "$sock" <<'PY'
import json, socket, sys

conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(sys.argv[1])
lines = conn.makefile("r")

def query(t):
    conn.sendall(('{"verb":"query","t":%r}\n' % t).encode())
    reply = json.loads(lines.readline())
    assert reply["ok"], reply
    return reply["result"]

t = 1e7
before = query(t)
ids = [2**25, 2**40, 2**64 - 2]
requests = ['{"verb":"submit","kind":"start","id":%d,"size":0.25,"t":%r}' % (i, t)
            for i in ids]
requests += ['{"verb":"submit","kind":"end","id":%d,"t":%r}' % (i, t + 1)
             for i in ids]
requests.append('{"verb":"submit","kind":"start","id":%d,"size":0.25,"t":%r}'
                % (2**64 - 1, t + 2))
conn.sendall(("\n".join(requests) + "\n").encode())
after = query(t + 2)
faults_before, faults_after = before["fault_stats"], after["fault_stats"]
checks = {
    "events_applied": after["events_applied"] - before["events_applied"] == 7,
    "invalid_session_ids": faults_after["invalid_session_ids"]
        - faults_before["invalid_session_ids"] == 1,
    "total_dropped_events": faults_after["total_dropped_events"]
        - faults_before["total_dropped_events"] == 1,
}
if not all(checks.values()):
    sys.exit("hostile-id step failed %s: before %s after %s" % (checks, before, after))
PY
hwm_after=$(vm_hwm_kb)
if [ $((hwm_after - hwm_before)) -ge 8192 ]; then
  echo "hostile ids raised dbp_serve's VmHWM from ${hwm_before} kB to ${hwm_after} kB" >&2
  exit 1
fi

# Final replay, then stop the server over the wire and collect its exit.
client --framing=binary --events=200 --workload=uniform --shutdown \
    > "$work_dir/client.final.json"
wait "$serve_pid"

grep -q '"schema": "dbp-serve/1"' "$work_dir/serve.json"
"$python" "$tools_dir/validate_trace.py" "$work_dir/serve.trace.jsonl"
echo "serve smoke ok"
