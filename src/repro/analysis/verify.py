"""One-shot static verifier: every protocol pass, one exit bitmask.

Usage::

    PYTHONPATH=src python -m repro.analysis.verify src/repro \\
        --artifact-dir artifacts --max-seconds 30

Runs, over one shared call-graph build:

* the interprocedural latch/pin type-state pass,
* the lexical rules (I/O-under-latch, fault handling, ...),
* the static lock-order extraction + cycle check,
* the cluster and server rule packs,
* the suppression meta-rule and the suppression budget.

Exit code is a bitmask so CI can tell *which* family regressed:

===============  ===
typestate          1
lock-order cycle   2
lexical            4
cluster pack       8
server pack       16
suppression meta  32
time budget       64
===============  ===

Artifacts (``--artifact-dir``): ``findings.json`` (every finding with
its family) and ``lock_graph.json`` (the full static acquisition
graph: nodes, edges with sample sites, blessed cycles, detected
cycles) — both deterministic, so CI diffs them across commits.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.common import Finding, SuppressionIndex, iter_py_files

EXIT_TYPESTATE = 1
EXIT_LOCKORDER = 2
EXIT_LEXICAL = 4
EXIT_CLUSTER = 8
EXIT_SERVER = 16
EXIT_SUPPRESSION = 32
EXIT_TIME = 64

#: shipped-tree suppression budget (acceptance: every survivor is a
#: documented precision limit, not a dodged finding)
DEFAULT_MAX_SUPPRESSIONS = 12

_TYPESTATE_RULES = frozenset({"latch-release", "pin-balance"})
_LEXICAL_RULES = frozenset(
    {
        "io-under-latch",
        "lock-wait-under-latch",
        "bare-except",
        "swallowed-fault",
        "parse-error",
    }
)


def _family(rule: str) -> tuple[str, int]:
    from repro.analysis.rulepacks import CLUSTER_RULES, SERVER_RULES

    if rule in _TYPESTATE_RULES:
        return "typestate", EXIT_TYPESTATE
    if rule == "lock-order-cycle":
        return "lockorder", EXIT_LOCKORDER
    if rule in CLUSTER_RULES:
        return "cluster", EXIT_CLUSTER
    if rule in SERVER_RULES:
        return "server", EXIT_SERVER
    if rule == "suppression-without-reason" or rule.startswith(
        "suppression-"
    ):
        return "suppression", EXIT_SUPPRESSION
    return "lexical", EXIT_LEXICAL


def count_suppressions(files: list[Path]) -> int:
    """Real (non-docstring) suppression comments across ``files``."""
    total = 0
    for path in files:
        total += len(SuppressionIndex(path.read_text()).entries)
    return total


@dataclass
class Analysis:
    """What the passes computed over one file set (``analyze``)."""

    files: list[Path]
    graph: object  # the call graph
    order: object  # the lock-order graph
    findings: list[Finding]  # lexical, type-state, packs, lock order
    summaries: int
    seconds: float


def analyze(paths: list[str]) -> Analysis:
    """Run every pass over ``paths`` on one shared call-graph build."""
    from repro.analysis import callgraph as cg
    from repro.analysis import lockorder, rulepacks
    from repro.analysis.lint import _lexical_findings
    from repro.analysis.typestate import check_paths

    start = time.monotonic()
    files = iter_py_files(paths)
    graph = cg.build(files)
    findings = _lexical_findings(files)
    ts_findings, engine = check_paths(files, graph=graph)
    findings.extend(ts_findings)
    findings.extend(rulepacks.check_files(files))
    order = lockorder.analyze(files, graph=graph, ts_engine=engine)
    findings.extend(lockorder.findings_for(order))
    seconds = time.monotonic() - start
    return Analysis(files, graph, order, findings, len(engine.summaries), seconds)


def run(
    paths: list[str],
    artifact_dir: str | None = None,
    max_seconds: float | None = None,
    max_suppressions: int = DEFAULT_MAX_SUPPRESSIONS,
    analysis: Analysis | None = None,
) -> tuple[int, list[Finding], dict]:
    """Run every pass (or take ``analysis`` of ``paths`` already run);
    return (exit bitmask, findings, stats)."""
    from repro.analysis import lockorder

    if analysis is None:
        analysis = analyze(paths)
    start = time.monotonic()
    files, graph, order = analysis.files, analysis.graph, analysis.order
    findings = list(analysis.findings)

    n_suppressions = count_suppressions(files)
    if n_suppressions > max_suppressions:
        findings.append(
            Finding(
                path=str(paths[0]) if paths else "<tree>",
                line=0,
                rule="suppression-budget-exceeded",
                message=(
                    f"{n_suppressions} suppressions exceed the budget "
                    f"of {max_suppressions}; burn one down before "
                    "adding another"
                ),
            )
        )

    elapsed = analysis.seconds + time.monotonic() - start
    exit_code = 0
    for finding in findings:
        exit_code |= _family(finding.rule)[1]
    if max_seconds is not None and elapsed > max_seconds:
        exit_code |= EXIT_TIME

    stats = {
        "files": len(files),
        "functions": len(graph.functions),
        "summaries": analysis.summaries,
        "call_edges": sum(len(v) for v in graph.edges.values()),
        "resolved_calls": graph.resolved,
        "unresolved_calls": graph.unresolved,
        "lock_graph_nodes": len(order.nodes),
        "lock_graph_edges": len(order.edges),
        "suppressions": n_suppressions,
        "suppression_budget": max_suppressions,
        "findings": len(findings),
        "elapsed_seconds": round(elapsed, 3),
        "time_budget_seconds": max_seconds,
    }

    if artifact_dir is not None:
        out = Path(artifact_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "stats": stats,
            "findings": [
                dict(f.to_dict(), family=_family(f.rule)[0])
                for f in sorted(
                    findings, key=lambda f: (f.path, f.line, f.rule)
                )
            ],
        }
        (out / "findings.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        lockorder.write_artifact(order, out / "lock_graph.json")

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return exit_code, findings, stats


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.verify",
        description="whole-program protocol verifier "
        "(typestate + lock order + rule packs)",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"])
    parser.add_argument(
        "--artifact-dir",
        default=None,
        help="write findings.json and lock_graph.json here",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="fail (bit 64) if the analysis takes longer than this",
    )
    parser.add_argument(
        "--max-suppressions",
        type=int,
        default=DEFAULT_MAX_SUPPRESSIONS,
        help="suppression budget for the shipped tree "
        f"(default {DEFAULT_MAX_SUPPRESSIONS})",
    )
    args = parser.parse_args(argv)
    paths = args.paths or ["src/repro"]

    exit_code, findings, stats = run(
        paths,
        artifact_dir=args.artifact_dir,
        max_seconds=args.max_seconds,
        max_suppressions=args.max_suppressions,
    )
    for finding in findings:
        family, _bit = _family(finding.rule)
        print(f"[{family}] {finding}")
    print(
        f"{stats['findings']} findings | "
        f"{stats['functions']} functions, "
        f"{stats['summaries']} summaries, "
        f"{stats['lock_graph_edges']} lock-order edges | "
        f"{stats['suppressions']}/{stats['suppression_budget']} "
        f"suppressions | {stats['elapsed_seconds']}s"
        + (
            f" (budget {stats['time_budget_seconds']}s)"
            if stats["time_budget_seconds"]
            else ""
        ),
        file=sys.stderr,
    )
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
