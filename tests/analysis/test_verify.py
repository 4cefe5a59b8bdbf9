"""Verifier-CLI tests: per-family exit bits, artifacts, the
suppression budget, and a clean shipped tree."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.verify import (
    EXIT_CLUSTER,
    EXIT_LOCKORDER,
    EXIT_SERVER,
    EXIT_SUPPRESSION,
    EXIT_TIME,
    EXIT_TYPESTATE,
    main,
    run,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_shipped_tree_verifies_clean(tmp_path: Path, shipped) -> None:
    code, findings, stats = run(
        [str(SRC)],
        artifact_dir=str(tmp_path),
        max_seconds=30,
        analysis=shipped,
    )
    assert findings == [], "\n".join(str(f) for f in findings)
    assert code == 0
    assert stats["suppressions"] <= stats["suppression_budget"]
    # the passes saw the whole tree: a refactor that silently empties
    # one fails here
    assert stats["functions"] > 1000
    assert stats["summaries"] == stats["functions"]
    # artifacts written and internally consistent
    payload = json.loads((tmp_path / "findings.json").read_text())
    assert payload["findings"] == []
    assert payload["stats"]["functions"] == stats["functions"]
    graph = json.loads((tmp_path / "lock_graph.json").read_text())
    assert graph["unblessed_cycles"] == []


def test_exit_bits_identify_the_family() -> None:
    code, findings, _stats = run(
        [
            str(FIXTURES / "scatter_unchecked.py"),
            str(FIXTURES / "deadline_not_forwarded.py"),
            str(FIXTURES / "interproc_leak.py"),
            str(FIXTURES / "lock_cycle.py"),
            str(FIXTURES / "reasonless_suppression.py"),
        ]
    )
    assert code & EXIT_CLUSTER
    assert code & EXIT_SERVER
    assert code & EXIT_TYPESTATE
    assert code & EXIT_LOCKORDER
    assert code & EXIT_SUPPRESSION
    assert not code & EXIT_TIME
    rules = {f.rule for f in findings}
    assert "scatter-result-unchecked" in rules
    assert "lock-order-cycle" in rules


def test_single_family_exit_is_exact() -> None:
    code, _findings, _stats = run(
        [str(FIXTURES / "scatter_unchecked.py")]
    )
    assert code == EXIT_CLUSTER


def test_suppression_budget_enforced(tmp_path: Path) -> None:
    src = tmp_path / "m.py"
    src.write_text(
        "def f(x):\n"
        "    return x  # lint: allow(io-under-latch): one\n"
        "def g(x):\n"
        "    return x  # lint: allow(io-under-latch): two\n"
    )
    code, findings, stats = run([str(tmp_path)], max_suppressions=1)
    assert stats["suppressions"] == 2
    assert any(
        f.rule == "suppression-budget-exceeded" for f in findings
    )
    assert code & EXIT_SUPPRESSION


def test_cli_prints_family_tags(capsys) -> None:
    code = main([str(FIXTURES / "scatter_unchecked.py")])
    assert code == EXIT_CLUSTER
    out = capsys.readouterr().out
    assert "[cluster]" in out
    assert "scatter-result-unchecked" in out
