#!/usr/bin/env bash
# Serve-path smoke (docs/wire_protocol.md): boots dbp_serve, replays
# generated workloads over both framings, runs the malformed-frame corpus
# (every entry must produce a typed rejection that leaves the server
# serving), holds many idle connections and one that reads nothing, runs a
# second server out of descriptors, stops the server over the wire,
# validates the exported observability trace, and stops two more servers
# with SIGTERM and SIGINT. Exits nonzero if any client run fails, any
# corpus entry kills the server, a connection case starves a client or
# grows the server, a server exits nonzero or loses an event on a signal,
# or the trace does not validate.
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
emfile_pid=""
signal_pid=""
cleanup() {
  if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi
  if [ -n "$emfile_pid" ]; then kill "$emfile_pid" 2>/dev/null || true; fi
  if [ -n "$signal_pid" ]; then kill -KILL "$signal_pid" 2>/dev/null || true; fi
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

# Connection cases. dbp_serve serves every connection on its main thread,
# so 64 idle ones leave it at one thread, also under ThreadSanitizer, whose
# runtime starts its background thread only with a process's first new
# thread. A
# client that pipelines queries and reads no answer fills its output
# queue, and the server then stops reading it: another connection must
# still be answered, and VmHWM must rise by less than 8 MB (0.4 MB in a
# Release build, 4.6 MB with ASan's quarantine and redzones; a queue
# without a cap grows with every query the client sends). A second
# dbp_serve may open 64 descriptors: of 80 connection attempts it accepts
# what fits and accept4 fails with EMFILE for the rest. While it does, that
# server must not spin (under 0.3 s of CPU over 1 s); once the others
# close, a fresh connection must be answered, and the shutdown verb must
# stop it with exit status 0.
emfile_sock="$sock_dir/emfile.sock"
(ulimit -n 64 && exec "$build_dir/tools/dbp_serve" --socket="$emfile_sock" \
    > "$work_dir/serve.emfile.json" 2> "$work_dir/serve.emfile.err") &
emfile_pid=$!
"$python" - "$sock" "$serve_pid" "$emfile_sock" "$emfile_pid" <<'PY'
import json, os, select, socket, sys, time

path, pid, emfile_path, emfile_pid = sys.argv[1:5]

def connect(path, timeout=10):
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(timeout)
    conn.connect(path)
    return conn

def answered(conn, request=b'{"verb":"query","t":0}'):
    """Sends one line-JSON request; whether its reply is a success."""
    conn.sendall(request + b"\n")
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = conn.recv(65536)
        if not chunk:
            return False
        reply += chunk
    return json.loads(reply)["ok"]

def status(pid, key):
    with open("/proc/%s/status" % pid) as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    sys.exit("no %s in /proc/%s/status" % (key, pid))

def cpu_seconds(pid):
    with open("/proc/%s/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

idle = [connect(path) for _ in range(64)]
# The server accepts in order, so once this is answered all 64 are open.
if not answered(connect(path)):
    sys.exit("a query beside 64 idle connections was refused")
threads = status(pid, "Threads")
if threads != 1:
    sys.exit("64 idle connections left dbp_serve at %d threads, not 1" % threads)

hwm_before = status(pid, "VmHWM")
hog = connect(path)
hog.setblocking(False)
chunk = b'{"verb":"query","t":0}\n' * 256
sent = 0
while True:
    if sent >= 4 << 20:
        sys.exit("dbp_serve kept reading a client that reads no answer")
    try:
        sent += hog.send(chunk[sent % len(chunk):])
    except BlockingIOError:
        if not select.select([], [hog], [], 0.5)[1]:
            break  # the server stopped reading the hog
if not answered(connect(path)):
    sys.exit("a connection beside the non-reading one was refused")
hwm_after = status(pid, "VmHWM")
if hwm_after - hwm_before >= 8192:
    sys.exit("a non-reading client raised dbp_serve's VmHWM from %d kB to %d kB"
             % (hwm_before, hwm_after))
if status(pid, "Threads") != 1:
    sys.exit("the non-reading client changed dbp_serve's thread count")
hog.close()
for conn in idle:
    conn.close()

deadline = time.monotonic() + 30
while True:
    try:
        if answered(connect(emfile_path)):
            break
    except OSError:
        pass
    if time.monotonic() > deadline:
        sys.exit("the descriptor-limited dbp_serve never answered")
    time.sleep(0.05)
attempts = []
for _ in range(80):
    try:
        attempts.append(connect(emfile_path, timeout=2))
    except OSError:
        pass
deadline = time.monotonic() + 30
while len(os.listdir("/proc/%s/fd" % emfile_pid)) != 64:
    if time.monotonic() > deadline:
        sys.exit("the descriptor-limited dbp_serve never held 64 descriptors")
    time.sleep(0.05)
cpu_before = cpu_seconds(emfile_pid)
time.sleep(1.0)
cpu_used = cpu_seconds(emfile_pid) - cpu_before
if cpu_used >= 0.3:
    sys.exit("dbp_serve used %.2f s of CPU in 1 s while accept4 failed" % cpu_used)
for conn in attempts:
    conn.close()
fresh = connect(emfile_path)
if not answered(fresh):
    sys.exit("a fresh connection was refused after the others closed")
if not answered(fresh, b'{"verb":"shutdown"}'):
    sys.exit("the descriptor-limited dbp_serve refused the shutdown verb")
PY
wait "$emfile_pid"
emfile_pid=""

# Final replay, then stop the server over the wire and collect its exit.
client --framing=binary --events=200 --workload=uniform --shutdown \
    > "$work_dir/client.final.json"
wait "$serve_pid"

grep -q '"schema": "dbp-serve/1"' "$work_dir/serve.json"
"$python" "$tools_dir/validate_trace.py" "$work_dir/serve.trace.jsonl"

# Signals stop dbp_serve as the shutdown verb does. For SIGTERM, then
# SIGINT, a fresh server serves one client stream and its query, then gets
# the signal: it must exit 0 within 30 s and print its summary, whose
# events_applied must equal the query's, and leave no socket file.
for sig in TERM INT; do
  sig_sock="$sock_dir/sig$sig.sock"
  "$build_dir/tools/dbp_serve" --socket="$sig_sock" --shards=2 \
      > "$work_dir/serve.sig$sig.json" 2> "$work_dir/serve.sig$sig.err" &
  signal_pid=$!
  "$build_dir/tools/dbp_client" --socket="$sig_sock" --events=300 \
      --workload=uniform --query-at=1e9 > "$work_dir/client.sig$sig.json"
  kill -s "$sig" "$signal_pid"
  for _ in $(seq 300); do
    kill -0 "$signal_pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$signal_pid" 2>/dev/null; then
    echo "dbp_serve did not exit within 30 s of SIG$sig" >&2
    exit 1
  fi
  status=0
  wait "$signal_pid" || status=$?
  signal_pid=""
  if [ "$status" -ne 0 ]; then
    echo "dbp_serve exited with status $status on SIG$sig" >&2
    exit 1
  fi
  if [ -e "$sig_sock" ]; then
    echo "dbp_serve left its socket file behind on SIG$sig" >&2
    exit 1
  fi
  "$python" - "$work_dir/serve.sig$sig.json" "$work_dir/client.sig$sig.json" \
      "SIG$sig" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    summary = json.load(f)
with open(sys.argv[2]) as f:
    answered = json.load(f)["query"]["events_applied"]
if summary["schema"] != "dbp-serve/1" or summary["events_applied"] != answered:
    sys.exit("on %s dbp_serve's summary reports %s events applied, "
             "its last query %d" % (sys.argv[3], summary["events_applied"], answered))
PY
done
echo "serve smoke ok"
