#!/usr/bin/env python3
"""Include-graph layering gate: enforces the declared layer DAG over src/.

The library is layered bottom-up (DESIGN.md has the diagram):

    core                         the domain vocabulary; depends on nothing
    exec, obs                    cross-cutting leaves over core
    algo, workload               packers / generators over the vocabulary
    sim, opt, analysis           simulation, optimum, experiment harnesses
    gaming, engine, durability   the top: dispatchers, sharding, WAL
    net                          wire front-end over the engine

Every `#include "..."` edge between two layers must be declared in
LAYER_DEPS below; an undeclared edge, an include cycle, or an include that
does not resolve inside the tree is a finding with a clickable file:line.
The declared graph itself is checked for acyclicity on every run, so the
policy cannot rot into something unenforceable. Test oracles live in
tests/support next to the tree (`#include "support/..."` in test code); an
include of one from the library is a finding of its own, which no
allowlist marker suppresses: the library ships one implementation of each
computation, and its test twins stay in test code.

File list: by default the checker walks the source tree (no build needed —
CI's no-compiler lint leg runs this mode). Pass --compile-commands to
drive the .cpp list off CMAKE_EXPORT_COMPILE_COMMANDS instead and
cross-check it against the walk, so the build's file list and the checked
file list cannot drift apart: a source that exists but is not compiled
(or vice versa) is itself a finding.

Allowlist (shared convention, see dbp_lint_common.py): a deliberate
one-off edge carries a justification-mandatory marker on the include line
or in the comment block above it:

    // DBP_LINT_ALLOW(layering): <why this edge is sound>
    #include "other_layer/header.hpp"

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import dbp_lint_common as common

TOOL = "dbp_layercheck"

# The declared layer DAG: layer -> layers its files may #include from.
# Same-layer includes are always allowed and never listed. Order matters
# only for readability (bottom-up). To add an edge, declare it here *with
# a line comment saying why* — the checker rejects anything undeclared.
LAYER_DEPS: dict[str, set[str]] = {
    # The domain vocabulary (types, instances, metrics, fault vocabulary,
    # arenas, binary codecs). Depends on nothing — including obs: core must
    # stay instrumentation-free so every layer can build on it without
    # dragging the observability surface along.
    "core": set(),
    # Cross-cutting leaves. exec arbitrates worker budgets and owns
    # parallel_map; obs owns tracer/metrics and the only clock reads in the
    # library (dbp_symcheck enforces that half of the contract).
    "exec": {"core"},
    "obs": {"core"},
    # Packers. obs: packer event loops emit arrival/departure records
    # through the thread-local observability context (result-neutral).
    "algo": {"core", "obs"},
    # Workload generators construct instances from the core vocabulary
    # alone. Adversarial *evaluation* against live packers (the adaptive
    # adversary) lives in analysis/, which may depend on algo/sim/opt.
    "workload": {"core"},
    # Simulation replays instances through packers; instrumented.
    "sim": {"core", "algo", "obs"},
    # OPT machinery. sim: the event sweep shares sim's event sequence;
    # exec: snapshot evaluation fans out through exec::fork_join under the
    # worker budget; obs: phase timers/records.
    "opt": {"core", "algo", "sim", "exec", "obs"},
    # Experiment harnesses (ratio tables, decompositions, adversary
    # evaluation) sit above everything they measure.
    "analysis": {"core", "algo", "sim", "opt"},
    # The cloud-gaming dispatcher consumes workloads, packs with algo,
    # reports through analysis, and is instrumented.
    "gaming": {"core", "algo", "sim", "opt", "analysis", "workload", "obs"},
    # The sharded engine drives per-shard dispatchers and streams OPT
    # bounds; algo for the clairvoyant names its configuration refuses.
    "engine": {"core", "algo", "obs", "opt", "gaming"},
    # Durability journals/checkpoints dispatcher and packer state.
    "durability": {"core", "algo", "opt", "gaming", "obs"},
    # The wire front-end frames/validates requests (core codecs + strict
    # parsers) and feeds the engine; gaming only for the ServerSpec/fault
    # vocabulary surfaced in query responses; obs for net.* counters.
    "net": {"core", "engine", "gaming", "obs"},
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(?P<path>[^"]+)"')


def declared_graph_cycle() -> list[str] | None:
    """Returns a cycle in LAYER_DEPS itself, or None. Keeps the policy
    honest: a cyclic declaration would make 'enforce the DAG' meaningless."""
    state: dict[str, int] = {}  # 0 = visiting, 1 = done
    stack: list[str] = []

    def visit(layer: str) -> list[str] | None:
        state[layer] = 0
        stack.append(layer)
        for dep in sorted(LAYER_DEPS.get(layer, ())):
            if state.get(dep) == 0:
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        stack.pop()
        state[layer] = 1
        return None

    for layer in sorted(LAYER_DEPS):
        if layer not in state:
            cycle = visit(layer)
            if cycle:
                return cycle
    return None


def parse_includes(path: Path) -> list[tuple[int, str]]:
    """(1-based line, quoted include path) for every project include."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    out: list[tuple[int, str]] = []
    for idx, line in enumerate(text.splitlines()):
        match = INCLUDE_RE.match(line)
        if match:
            out.append((idx + 1, match.group("path")))
    return out


def is_test_support(root: Path, include: str) -> bool:
    """True when `include` names a header under tests/support next to the
    tree, spelled as test code spells it ("support/x.hpp") or from the
    repository root ("tests/support/x.hpp")."""
    support = (root.parent / "tests" / "support").resolve()
    for candidate in (root.parent / "tests" / include, root.parent / include):
        resolved = candidate.resolve()
        if resolved.is_file() and resolved.is_relative_to(support):
            return True
    return False


def layer_of(rel: Path) -> str:
    return rel.parts[0] if len(rel.parts) > 1 else ""


def check_tree(root: Path, files: list[Path]) -> list[common.Finding]:
    findings: list[common.Finding] = []

    cycle = declared_graph_cycle()
    if cycle:
        findings.append(common.Finding(
            __file__, 1, "layer-dag",
            "the declared LAYER_DEPS graph is itself cyclic: "
            + " -> ".join(cycle)))
        return findings

    rels = {path.resolve().relative_to(root.resolve()) for path in files}
    edges: dict[Path, list[tuple[int, Path]]] = {}

    for path in sorted(files):
        rel = path.resolve().relative_to(root.resolve())
        layer = layer_of(rel)
        if layer not in LAYER_DEPS:
            findings.append(common.Finding(
                str(path), 1, "unknown-layer",
                f"directory '{layer}' is not a declared layer — add it to "
                f"LAYER_DEPS in tools/dbp_layercheck.py with its allowed "
                "dependencies"))
            continue
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        for line_no, include in parse_includes(path):
            target = Path(include)
            if is_test_support(root, include):
                findings.append(common.Finding(
                    str(path), line_no, "test-support",
                    f'"{include}" is a test oracle in tests/support; the '
                    "library must not include test code",
                    lines[line_no - 1].strip()))
                continue
            if target not in rels:
                # Quoted include that is not a file of this tree: either a
                # typo or a path not rooted at src/ (both break the graph).
                findings.append(common.Finding(
                    str(path), line_no, "unresolved-include",
                    f'"{include}" does not resolve inside {root} '
                    "(project includes are rooted at src/)",
                    lines[line_no - 1].strip()))
                continue
            edges.setdefault(rel, []).append((line_no, target))
            target_layer = layer_of(target)
            if target_layer == layer or target_layer in LAYER_DEPS[layer]:
                continue
            allowed = common.allow_rules_for(lines, line_no - 1)
            if "layering" in allowed:
                if not allowed["layering"]:
                    findings.append(common.missing_justification(
                        str(path), line_no, "layering"))
                continue
            findings.append(common.Finding(
                str(path), line_no, "layering",
                f"undeclared layer dependency {layer} -> {target_layer} "
                f"(declared: {', '.join(sorted(LAYER_DEPS[layer])) or 'none'})",
                lines[line_no - 1].strip()))

    findings.extend(find_include_cycles(root, edges))
    return findings


def find_include_cycles(root: Path,
                        edges: dict[Path, list[tuple[int, Path]]]
                        ) -> list[common.Finding]:
    """File-level include cycles via iterative DFS. A cycle is reported
    once, anchored at its lexicographically first file."""
    findings: list[common.Finding] = []
    state: dict[Path, int] = {}  # 0 = visiting, 1 = done
    reported: set[frozenset[Path]] = set()

    def visit(start: Path) -> None:
        stack: list[tuple[Path, int]] = [(start, 0)]
        path_stack: list[Path] = []
        while stack:
            node, child_idx = stack.pop()
            if child_idx == 0:
                state[node] = 0
                path_stack.append(node)
            children = edges.get(node, [])
            advanced = False
            for i in range(child_idx, len(children)):
                line_no, target = children[i]
                if state.get(target) == 0:
                    members = path_stack[path_stack.index(target):]
                    key = frozenset(members)
                    if key not in reported:
                        reported.add(key)
                        chain = " -> ".join(str(m) for m in members + [target])
                        findings.append(common.Finding(
                            str(root / node), line_no, "include-cycle",
                            f"#include cycle: {chain}"))
                    continue
                if target not in state:
                    stack.append((node, i + 1))
                    stack.append((target, 0))
                    advanced = True
                    break
            if not advanced:
                state[node] = 1
                path_stack.pop()

    for node in sorted(edges):
        if node not in state:
            visit(node)
    return findings


def drift_findings(root: Path, files: list[Path],
                   compile_commands: Path) -> list[common.Finding]:
    """Cross-checks the walked .cpp list against the compile database."""
    findings: list[common.Finding] = []
    try:
        entries = common.load_compile_commands(compile_commands)
    except ValueError as err:
        findings.append(common.Finding(str(compile_commands), 1,
                                       "compile-db", str(err)))
        return findings
    resolved_root = root.resolve()
    compiled: set[Path] = set()
    for entry in entries:
        file_path = Path(entry["file"])
        if not file_path.is_absolute():
            file_path = Path(entry.get("directory", ".")) / file_path
        try:
            compiled.add(file_path.resolve().relative_to(resolved_root))
        except ValueError:
            continue  # a TU outside the checked tree (tests, tools, bench)
    walked = {path.resolve().relative_to(resolved_root)
              for path in files if path.suffix == ".cpp"}
    for rel in sorted(walked - compiled):
        findings.append(common.Finding(
            str(root / rel), 1, "build-drift",
            "source exists but is absent from the compile database — "
            "add it to its layer's CMakeLists.txt (or delete it)"))
    for rel in sorted(compiled - walked):
        findings.append(common.Finding(
            str(root / rel), 1, "build-drift",
            "compile database lists a source the tree walk did not find "
            "(stale compile_commands.json? re-run cmake)"))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="layered source root (default: <repo>/src)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json to cross-check the file "
                             "list against (CMAKE_EXPORT_COMPILE_COMMANDS)")
    args = parser.parse_args(argv)

    root = Path(args.root) if args.root \
        else Path(__file__).resolve().parent.parent / "src"
    if not root.is_dir():
        return common.usage_error(TOOL, f"no such directory: {root}")

    files, missing = common.iter_source_files([root])
    if missing:
        return common.usage_error(TOOL, f"no such path: {', '.join(missing)}")

    findings = check_tree(root, files)
    if args.compile_commands:
        findings.extend(drift_findings(root, files, Path(args.compile_commands)))

    return common.report(TOOL, findings, len(files))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
