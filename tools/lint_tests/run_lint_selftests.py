#!/usr/bin/env python3
"""Fixture self-tests for the static-analysis gates (ctest -L lint).

Proves the analyzers *catch* what they claim to catch — seeded include
cycles, undeclared layer edges, forbidden symbols, empty-justification
allowlist markers — and that justified markers and exempt layers are
accepted. A gate whose failure mode is "silently passes everything" is
worse than no gate; this is the test for that failure mode.

Fixture sources live next to this script under fixtures/ with a
`.fixture` suffix so the repo-wide lint/tidy sweeps never mistake them
for real sources; each run materializes them (suffix stripped) into a
temp tree. Symbol fixtures are *compiled* with the project compiler at
test time and dbp_symcheck runs against the resulting objects laid out
the way CMake lays out a build tree.

Exit status: 0 = all self-tests pass, 1 = a self-test failed,
2 = environment problem (no compiler).
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOOLS = HERE.parent
FIXTURES = HERE / "fixtures"

failures: list[str] = []


def materialize(fixture_root: Path, dest: Path) -> None:
    """Copies a fixture tree into dest, stripping the .fixture suffix."""
    for path in sorted(fixture_root.rglob("*.fixture")):
        rel = path.relative_to(fixture_root).with_suffix("")
        target = dest / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)


def run_tool(script: str, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(TOOLS / script), *args],
        capture_output=True, text=True, check=False)


def expect(name: str, proc: subprocess.CompletedProcess[str],
           exit_code: int, *needles: str) -> None:
    output = proc.stdout + proc.stderr
    problems = []
    if proc.returncode != exit_code:
        problems.append(f"exit {proc.returncode}, expected {exit_code}")
    for needle in needles:
        if needle not in output:
            problems.append(f"missing expected output {needle!r}")
    if problems:
        failures.append(f"{name}: " + "; ".join(problems) + "\n--- output ---\n"
                        + output.rstrip())
        print(f"FAIL {name}")
    else:
        print(f"ok   {name}")


def layercheck_selftests(tmp: Path) -> None:
    bad = tmp / "layering_bad"
    materialize(FIXTURES / "layering_bad", bad)
    proc = run_tool("dbp_layercheck.py", "--root", str(bad / "src"))
    expect("layercheck.seeded-violations", proc, 1,
           "[include-cycle]",
           "core/ring.hpp",
           "[layering]",
           "undeclared layer dependency core -> algo",
           "DBP_LINT_ALLOW(layering) needs a justification",
           "[unresolved-include]",
           "[test-support]",
           "opt/uses_oracle.cpp")
    output = proc.stdout + proc.stderr
    if "justified_allow" in output:
        failures.append("layercheck.justified-marker: justified_allow.cpp "
                        "was reported despite its justification\n" + output)
        print("FAIL layercheck.justified-marker")
    else:
        print("ok   layercheck.justified-marker")

    clean = tmp / "layering_clean"
    materialize(FIXTURES / "layering_clean", clean)
    expect("layercheck.clean-tree", run_tool(
        "dbp_layercheck.py", "--root", str(clean / "src")), 0, "clean")


def compile_fixture(cxx: str, source: Path, obj: Path) -> bool:
    obj.parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [cxx, "-std=c++20", "-O0", "-c", str(source), "-o", str(obj)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        failures.append(f"symcheck fixture compile failed: {source}\n"
                        + proc.stderr)
        return False
    return True


def symcheck_selftests(tmp: Path, cxx: str) -> None:
    root = tmp / "symbols"
    materialize(FIXTURES / "symbols", root)
    build = root / "build"
    compiled = True
    for source in sorted((root / "src").rglob("*.cpp")):
        rel = source.relative_to(root)  # src/<layer>/<name>.cpp
        obj = build / rel.parent / "CMakeFiles" / "fixture.dir" / (rel.name + ".o")
        compiled &= compile_fixture(cxx, source, obj)
    if not compiled:
        print("FAIL symcheck.fixture-compile")
        return
    print("ok   symcheck.fixture-compile")

    proc = run_tool("dbp_symcheck.py", "--build-dir", str(build),
                    "--root", str(root))
    expect("symcheck.seeded-violations", proc, 1,
           "[symbol-wall-clock]",
           "algo/bad_clock.cpp",
           "[symbol-rng]",
           "opt/bad_rng.cpp",
           "[symbol-stdio-core]",
           "core/bad_stdio.cpp",
           "[symbol-alloc-kernel]",
           "algo/packer.cpp",
           "DBP_LINT_ALLOW(symbol-wall-clock) needs a justification")
    output = proc.stdout + proc.stderr
    for exempt in ("obs/ok_clock.cpp", "workload/ok_rng.cpp",
                   "sim/justified_clock.cpp"):
        if exempt in output:
            failures.append(f"symcheck.exemptions: {exempt} was reported "
                            "despite exemption/justification\n" + output)
            print("FAIL symcheck.exemptions")
            break
    else:
        print("ok   symcheck.exemptions")

    # Coverage cross-check: a TU with no object must be a finding.
    orphan = root / "src" / "algo" / "uncompiled.cpp"
    orphan.write_text("// never compiled\n", encoding="utf-8")
    expect("symcheck.coverage-gap", run_tool(
        "dbp_symcheck.py", "--build-dir", str(build), "--root", str(root)),
        1, "[coverage]", "uncompiled.cpp")


def determinism_selftests(tmp: Path) -> None:
    root = tmp / "determinism"
    materialize(FIXTURES / "determinism", root)
    bad = root / "bad.cpp"
    expect("determinism.seeded-violations", run_tool(
        "lint_determinism.py", "--root", str(root), str(bad)), 1,
        "[rng]",
        "DBP_LINT_ALLOW(unordered-container) needs a justification")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cxx", default="c++",
                        help="C++ compiler for the symbol fixtures "
                             "(default: c++)")
    args = parser.parse_args(argv)

    if shutil.which(args.cxx) is None:
        print(f"run_lint_selftests: compiler not found: {args.cxx}",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="dbp_lint_selftest.") as tmpdir:
        tmp = Path(tmpdir)
        layercheck_selftests(tmp)
        symcheck_selftests(tmp, args.cxx)
        determinism_selftests(tmp)

    if failures:
        print(f"\nrun_lint_selftests: {len(failures)} self-test(s) failed",
              file=sys.stderr)
        for failure in failures:
            print("\n" + failure, file=sys.stderr)
        return 1
    print("\nrun_lint_selftests: all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
