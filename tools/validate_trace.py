#!/usr/bin/env python3
"""Validate a dbp trace JSONL file (schema "dbp-trace/1").

Usage: validate_trace.py TRACE.jsonl [TRACE2.jsonl ...]

Checks, per file:
  * the first line is a "trace_meta" header with the expected schema and
    consistent records/dropped/capacity bookkeeping;
  * every subsequent line is a standalone JSON object with a known "kind",
    strictly increasing "seq", and correctly typed optional fields;
  * the record count matches the header.

Exit status 0 when every file validates; 1 otherwise (first error per file
is printed). stdlib only — CI and the ctest smoke run it with a bare
python3.
"""

import json
import sys

SCHEMA = "dbp-trace/1"

KNOWN_KINDS = {
    "run_begin",
    "run_end",
    "arrival",
    "departure",
    "bin_open",
    "bin_close",
    "fault_crash",
    "fault_anomaly",
    "redispatch",
    "opt_phase",
    "dispatch_reject",
    "session_shed",
    "server_fail",
    "epoch_mark",
    "shard_snapshot",
}

# field name -> required type(s). "seq", "kind" and "t" are mandatory on
# every record; the rest are kind-specific and merely type-checked.
OPTIONAL_FIELDS = {
    "item": int,
    "bin": int,
    "size": (int, float),
    "count": int,
    "ms": (int, float),
    "shard": int,  # the shard a shard_snapshot record describes
    "label": str,
}


class TraceError(Exception):
    pass


def validate_header(line, lineno):
    header = json.loads(line)
    if header.get("kind") != "trace_meta":
        raise TraceError(f"line {lineno}: first line must be a trace_meta header")
    if header.get("schema") != SCHEMA:
        raise TraceError(
            f"line {lineno}: schema {header.get('schema')!r}, expected {SCHEMA!r}")
    for field in ("records", "dropped", "capacity"):
        value = header.get(field)
        if not isinstance(value, int) or value < 0:
            raise TraceError(
                f"line {lineno}: header field {field!r} must be a non-negative "
                f"integer, got {value!r}")
    if header["records"] > header["capacity"]:
        raise TraceError(
            f"line {lineno}: records {header['records']} exceeds capacity "
            f"{header['capacity']}")
    return header


def validate_record(line, lineno, prev_seq):
    record = json.loads(line)
    kind = record.get("kind")
    if kind not in KNOWN_KINDS:
        raise TraceError(f"line {lineno}: unknown kind {kind!r}")
    seq = record.get("seq")
    if not isinstance(seq, int) or seq < 0:
        raise TraceError(f"line {lineno}: missing or invalid seq {seq!r}")
    if prev_seq is not None and seq <= prev_seq:
        raise TraceError(
            f"line {lineno}: seq {seq} not strictly increasing (previous "
            f"{prev_seq})")
    if not isinstance(record.get("t"), (int, float)):
        raise TraceError(f"line {lineno}: missing or invalid time {record.get('t')!r}")
    for field, expected in OPTIONAL_FIELDS.items():
        if field in record and not isinstance(record[field], expected):
            raise TraceError(
                f"line {lineno}: field {field!r} has wrong type "
                f"{type(record[field]).__name__}")
    unknown = set(record) - {"seq", "kind", "t"} - set(OPTIONAL_FIELDS)
    if unknown:
        raise TraceError(f"line {lineno}: unknown fields {sorted(unknown)}")
    return seq


def validate_file(path):
    with open(path, encoding="utf-8") as stream:
        lines = [line for line in (raw.rstrip("\n") for raw in stream) if line]
    if not lines:
        raise TraceError("empty trace file")
    header = validate_header(lines[0], 1)
    prev_seq = None
    for lineno, line in enumerate(lines[1:], start=2):
        prev_seq = validate_record(line, lineno, prev_seq)
    record_count = len(lines) - 1
    if record_count != header["records"]:
        raise TraceError(
            f"header says {header['records']} records, file has {record_count}")
    return record_count


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    status = 0
    for path in argv[1:]:
        try:
            count = validate_file(path)
            print(f"{path}: OK ({count} records)")
        except (TraceError, OSError, json.JSONDecodeError) as error:
            print(f"{path}: INVALID: {error}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
