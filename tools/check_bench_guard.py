#!/usr/bin/env python3
"""Bench smoke guard: fail when a benchmarked hot path regresses.

Three checks over a dbp-bench-perf report (schema 1 through 4):

1. Adaptive-rule guard (schema >= 1): for every workload that reports
   both, ``opt_total_<w>_fast`` must be no slower than
   ``opt_total_<w>_fast_sequential`` by more than the allowed ratio. The
   adaptive fan-out rule exists precisely so the fast path can never do
   worse than sequential plus noise.

2. Packer throughput guard (schema >= 3, needs ``--baseline``): every
   ``packer_*`` case with an ``items_per_sec`` field is compared against the
   same case in the checked-in baseline report. Raw throughput is useless
   across machines and runs, so the comparison is normalized by a machine
   factor: the geometric mean, over the ``packer_*_reference*`` cases present
   in both reports, of current/baseline reference throughput. The reference
   cases run the seed's timed region in the *same run* on the *same machine*,
   so the factor absorbs host speed, load, and workload-size differences, and
   what remains is the optimized loop's real regression. A case fails when
   its normalized throughput drops by more than ``--max-packer-regression``
   (default 0.20, per the bench protocol in docs/performance.md).

3. Dispatch engine guard (schema >= 4, needs ``--baseline``): every
   ``bench_dispatch*`` case with an ``events_per_sec`` field is compared
   against the baseline with the same machine factor as check 2 (the packer
   reference cases are the machine probe for the whole report). A case fails
   when its normalized events/sec drops by more than
   ``--max-dispatch-regression`` (default 0.20). Skipped gracefully when the
   baseline predates schema 4. A case timed at another ``workers`` count
   than its baseline case is bad input: single-threaded reference cases
   cannot normalize the parallel capacity a wider drain adds.

Exit codes: 0 = all within bounds, 1 = regression, 2 = bad input.

Usage:
    check_bench_guard.py REPORT [--min-ratio=0.95]
                         [--baseline=BENCH_perf.json]
                         [--max-packer-regression=0.20]
                         [--max-dispatch-regression=0.20]
"""
import json
import math
import sys


def load_cases(path):
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    return {case["name"]: case for case in report["cases"]}


def check_adaptive(cases, min_ratio):
    """Fast-vs-sequential check. Returns (checked, failures)."""
    suffix = "_fast_sequential"
    checked = 0
    failures = 0
    for name, seq_case in sorted(cases.items()):
        if not name.endswith(suffix):
            continue
        fast_name = name[: -len(suffix)] + "_fast"
        fast_case = cases.get(fast_name)
        if fast_case is None:
            continue
        checked += 1
        fast_ms = float(fast_case["value"])
        seq_ms = float(seq_case["value"])
        ratio = seq_ms / fast_ms if fast_ms > 0 else float("inf")
        verdict = "ok" if ratio >= min_ratio else "REGRESSION"
        print(
            f"{fast_name}: fast {fast_ms:.2f} ms vs sequential "
            f"{seq_ms:.2f} ms -> ratio {ratio:.3f} (min {min_ratio}) {verdict}"
        )
        if ratio < min_ratio:
            failures += 1
    return checked, failures


def throughput_field(case, field):
    value = case.get(field)
    return float(value) if value is not None else None


def machine_factor(cases, baseline):
    """Geomean current/baseline throughput over the shared packer_*_reference
    cases — the machine probe every normalized check divides by. None when
    the reports share no reference case."""
    factors = []
    for name, case in sorted(cases.items()):
        if not name.startswith("packer_") or "_reference" not in name:
            continue
        base_case = baseline.get(name)
        if base_case is None:
            continue
        cur = throughput_field(case, "items_per_sec")
        base = throughput_field(base_case, "items_per_sec")
        if cur and base:
            factors.append(cur / base)
    if not factors:
        return None
    factor = math.exp(sum(math.log(f) for f in factors) / len(factors))
    print(f"bench guard: machine factor {factor:.3f} from {len(factors)} "
          "reference case(s)")
    return factor


def check_normalized(cases, baseline, machine, max_regression, selector,
                     field, label):
    """Shared reference-normalized throughput check. `selector(name)` picks
    the cases; `field` is the throughput key. Returns (checked, failures)."""
    checked = 0
    failures = 0
    for name, case in sorted(cases.items()):
        if not selector(name):
            continue
        base_case = baseline.get(name)
        if base_case is None:
            continue
        cur = throughput_field(case, field)
        base = throughput_field(base_case, field)
        if cur is None or base is None:
            continue
        checked += 1
        ratio = cur / (machine * base) if base > 0 else float("inf")
        verdict = "ok" if ratio >= 1.0 - max_regression else "REGRESSION"
        print(
            f"{name}: {cur / 1e6:.2f}M {label} vs baseline {base / 1e6:.2f}M "
            f"-> normalized ratio {ratio:.3f} "
            f"(min {1.0 - max_regression:.2f}) {verdict}"
        )
        if ratio < 1.0 - max_regression:
            failures += 1
    return checked, failures


def check_packers(cases, baseline, machine, max_regression):
    """Normalized packer items_per_sec check. Returns (checked, failures)."""
    return check_normalized(
        cases, baseline, machine, max_regression,
        lambda name: name.startswith("packer_") and "_reference" not in name,
        "items_per_sec", "items/s")


def dispatch_worker_mismatches(cases, baseline):
    """Names of bench_dispatch* cases whose ``workers`` differs from the
    same baseline case's."""
    return [
        name for name, case in sorted(cases.items())
        if name.startswith("bench_dispatch") and name in baseline
        and case.get("workers") != baseline[name].get("workers")
    ]


def check_dispatch(cases, baseline, machine, max_regression):
    """Normalized dispatch events_per_sec check. Returns (checked, failures)."""
    if not any(name.startswith("bench_dispatch") for name in baseline):
        print("dispatch guard: baseline has no bench_dispatch* cases "
              "(pre-v4 baseline?) — skipping")
        return 0, 0
    return check_normalized(
        cases, baseline, machine, max_regression,
        lambda name: name.startswith("bench_dispatch"),
        "events_per_sec", "events/s")


def main(argv):
    path = None
    baseline_path = None
    min_ratio = 0.95
    max_packer_regression = 0.20
    max_dispatch_regression = 0.20
    for arg in argv[1:]:
        if arg.startswith("--min-ratio="):
            min_ratio = float(arg.split("=", 1)[1])
        elif arg.startswith("--baseline="):
            baseline_path = arg.split("=", 1)[1]
        elif arg.startswith("--max-packer-regression="):
            max_packer_regression = float(arg.split("=", 1)[1])
        elif arg.startswith("--max-dispatch-regression="):
            max_dispatch_regression = float(arg.split("=", 1)[1])
        elif arg.startswith("--"):
            print(f"check_bench_guard: unknown option {arg}", file=sys.stderr)
            return 2
        else:
            path = arg
    if path is None:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        cases = load_cases(path)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"check_bench_guard: cannot read {path}: {error}", file=sys.stderr)
        return 2

    checked, failures = check_adaptive(cases, min_ratio)
    if checked == 0:
        print(f"check_bench_guard: no fast/sequential case pairs in {path}",
              file=sys.stderr)
        return 2
    if failures:
        print(
            f"check_bench_guard: {failures}/{checked} workload(s) regressed — "
            "the adaptive rule should never lose to sequential by more "
            "than noise",
            file=sys.stderr,
        )
        return 1

    if baseline_path is not None:
        try:
            baseline = load_cases(baseline_path)
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"check_bench_guard: cannot read {baseline_path}: {error}",
                  file=sys.stderr)
            return 2
        for name in dispatch_worker_mismatches(cases, baseline):
            print(
                f"check_bench_guard: {name} ran at workers="
                f"{cases[name].get('workers')} but its baseline at workers="
                f"{baseline[name].get('workers')}",
                file=sys.stderr,
            )
            return 2
        machine = machine_factor(cases, baseline)
        if machine is None:
            print(
                "bench guard: no shared packer_*_reference cases between "
                "report and baseline (pre-v3 baseline?) — skipping "
                "normalized checks",
            )
        else:
            packer_checked, packer_failures = check_packers(
                cases, baseline, machine, max_packer_regression)
            dispatch_checked, dispatch_failures = check_dispatch(
                cases, baseline, machine, max_dispatch_regression)
            if packer_failures or dispatch_failures:
                print(
                    f"check_bench_guard: "
                    f"{packer_failures + dispatch_failures}/"
                    f"{packer_checked + dispatch_checked} normalized "
                    "case(s) regressed beyond the allowed margin vs the "
                    "checked-in baseline",
                    file=sys.stderr,
                )
                return 1
            checked += packer_checked + dispatch_checked

    print(f"check_bench_guard: {checked} check(s) within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
