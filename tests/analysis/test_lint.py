"""Protocol-linter tests: each fixture triggers exactly its rule, the
shipped tree is clean, and suppressions behave."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_file, main

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the one rule it must trigger (and nothing else)
EXPECTED = {
    "leaked_latch.py": "latch-release",
    "interproc_leak.py": "latch-release",
    "sleep_under_latch.py": "io-under-latch",
    "unbalanced_pin.py": "pin-balance",
    "lock_wait_under_latch.py": "lock-wait-under-latch",
    "bare_except.py": "bare-except",
    "swallowed_fault.py": "swallowed-fault",
}


@pytest.mark.parametrize("fixture,rule", sorted(EXPECTED.items()))
def test_fixture_triggers_exactly_its_rule(fixture: str, rule: str) -> None:
    findings = lint_file(FIXTURES / fixture)
    assert findings, f"{fixture} produced no findings"
    assert {f.rule for f in findings} == {rule}, [str(f) for f in findings]


def test_every_rule_has_a_fixture() -> None:
    assert set(EXPECTED.values()) == set(RULES)


def test_abba_fixture_is_lint_clean() -> None:
    # abba_order is a *runtime* fixture: structurally correct code whose
    # acquisition order is only wrong across threads — exactly the class
    # of bug the static prong cannot see and lockdep exists for.
    assert lint_file(FIXTURES / "abba_order.py") == []


def test_shipped_tree_is_clean(shipped) -> None:
    lint_rules = {*RULES, "parse-error"}
    findings = [f for f in shipped.findings if f.rule in lint_rules]
    assert findings == [], "\n".join(str(f) for f in findings)


def test_finding_format() -> None:
    finding = lint_file(FIXTURES / "bare_except.py")[0]
    text = str(finding)
    assert text.startswith(str(FIXTURES / "bare_except.py") + ":")
    assert ": bare-except: " in text
    assert finding.line > 0


def test_line_suppression(tmp_path: Path) -> None:
    text = (FIXTURES / "leaked_latch.py").read_text()
    patched = tmp_path / "leaked_latch.py"
    patched.write_text(
        text.replace(
            "latch.acquire(mode)",
            "latch.acquire(mode)  # lint: allow(latch-release): test",
        )
    )
    assert lint_file(patched) == []


def test_line_suppression_is_rule_specific(tmp_path: Path) -> None:
    text = (FIXTURES / "leaked_latch.py").read_text()
    patched = tmp_path / "leaked_latch.py"
    patched.write_text(
        text.replace(
            "latch.acquire(mode)",
            "latch.acquire(mode)  # lint: allow(pin-balance): wrong rule",
        )
    )
    assert [f.rule for f in lint_file(patched)] == ["latch-release"]


def test_def_level_suppression(tmp_path: Path) -> None:
    text = (FIXTURES / "leaked_latch.py").read_text()
    patched = tmp_path / "leaked_latch.py"
    patched.write_text(
        text.replace(
            "def leak(latch, mode, work):",
            "def leak(latch, mode, work):"
            "  # lint: allow(latch-release): caller releases",
        )
    )
    assert lint_file(patched) == []


def test_file_level_suppression(tmp_path: Path) -> None:
    patched = tmp_path / "leaked_latch.py"
    patched.write_text(
        "# lint: allow-file(latch-release)\n"
        + (FIXTURES / "leaked_latch.py").read_text()
    )
    assert lint_file(patched) == []


def test_parse_error_reported(tmp_path: Path) -> None:
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert [f.rule for f in lint_file(bad)] == ["parse-error"]


def test_cli_flags_findings_and_exits_nonzero(capsys) -> None:
    assert main([str(FIXTURES / "leaked_latch.py")]) == 1
    out = capsys.readouterr().out
    assert "latch-release" in out


def test_cli_clean_file_exits_zero(capsys) -> None:
    assert main([str(FIXTURES / "abba_order.py")]) == 0
    assert capsys.readouterr().out == ""


def test_cli_list_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out
