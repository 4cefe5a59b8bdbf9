"""Cluster/server rule-pack tests: each fixture triggers exactly its
rule, the shipped tree is pack-clean, and the suppression meta-rule
distinguishes justified from reasonless suppressions."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.rulepacks import (
    CLUSTER_RULES,
    META_RULES,
    SERVER_RULES,
    check_files,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the one rule it must trigger (and nothing else)
EXPECTED = {
    "scatter_unchecked.py": "scatter-result-unchecked",
    "frame_without_crc.py": "frame-without-crc",
    "cluster/supervisor_blocking.py": "supervisor-blocking",
    "deadline_not_forwarded.py": "deadline-not-forwarded",
    "retry_without_backoff.py": "retry-without-backoff",
    "cluster/unbounded_queue.py": "unbounded-queue",
    "reasonless_suppression.py": "suppression-without-reason",
}


@pytest.mark.parametrize("fixture,rule", sorted(EXPECTED.items()))
def test_fixture_triggers_exactly_its_rule(fixture: str, rule: str) -> None:
    findings = check_files([FIXTURES / fixture])
    assert findings, f"{fixture} produced no findings"
    assert {f.rule for f in findings} == {rule}, [str(f) for f in findings]


def test_every_pack_rule_has_a_fixture() -> None:
    assert set(EXPECTED.values()) == (
        set(CLUSTER_RULES) | set(SERVER_RULES) | set(META_RULES)
    )


def test_shipped_tree_is_pack_clean(shipped) -> None:
    pack_rules = set(CLUSTER_RULES) | set(SERVER_RULES) | set(META_RULES)
    findings = [f for f in shipped.findings if f.rule in pack_rules]
    assert findings == [], "\n".join(str(f) for f in findings)


def test_reasoned_suppression_passes_meta_rule(tmp_path: Path) -> None:
    patched = tmp_path / "reasoned.py"
    patched.write_text(
        (FIXTURES / "reasonless_suppression.py")
        .read_text()
        .replace(
            "# lint: allow(io-under-latch)",
            "# lint: allow(io-under-latch): justified in the test",
        )
    )
    assert check_files([patched]) == []


def test_docstring_mention_is_not_a_suppression(tmp_path: Path) -> None:
    # the analysis package's own docs talk about `# lint: allow(...)`;
    # a string mention must be neither a suppression nor a meta finding
    doc = tmp_path / "doc.py"
    doc.write_text('"""Docs about `# lint: allow(rule)` syntax."""\n')
    assert check_files([doc]) == []


def test_scatter_bound_to_name_is_clean(tmp_path: Path) -> None:
    patched = tmp_path / "scatter_ok.py"
    patched.write_text(
        (FIXTURES / "scatter_unchecked.py")
        .read_text()
        .replace(
            "self.cluster._scatter(",
            "acked = self.cluster._scatter(",
        )
        + "        return acked\n"
    )
    assert check_files([patched]) == []


def test_forwarded_deadline_is_clean(tmp_path: Path) -> None:
    patched = tmp_path / "deadline_ok.py"
    patched.write_text(
        (FIXTURES / "deadline_not_forwarded.py")
        .read_text()
        .replace(
            "backend.get(tree, key)",
            "backend.get(tree, key, timeout=deadline)",
        )
    )
    assert check_files([patched]) == []


def test_derived_deadline_is_recognized(tmp_path: Path) -> None:
    # one level of local assignment propagates the taint
    patched = tmp_path / "deadline_derived.py"
    patched.write_text(
        "def relay(backend, tree, key, deadline):\n"
        "    remaining = max(0.0, deadline)\n"
        "    return backend.get(tree, key, remaining)\n"
    )
    assert check_files([patched]) == []


def test_retry_with_backoff_is_clean(tmp_path: Path) -> None:
    patched = tmp_path / "retry_ok.py"
    patched.write_text(
        (FIXTURES / "retry_without_backoff.py")
        .read_text()
        .replace(
            "        except TimeoutError:\n            continue",
            "        except TimeoutError:\n"
            "            time.sleep(0.01 * attempt)\n"
            "            continue",
        )
    )
    assert check_files([patched]) == []


def test_drained_queue_is_clean(tmp_path: Path) -> None:
    cluster_dir = tmp_path / "cluster"
    cluster_dir.mkdir()
    patched = cluster_dir / "queue_ok.py"
    patched.write_text(
        (FIXTURES / "cluster" / "unbounded_queue.py").read_text()
        + "\n    def take(self):\n        return self.pending.popleft()\n"
    )
    assert check_files([patched]) == []


def test_bounded_join_is_clean(tmp_path: Path) -> None:
    cluster_dir = tmp_path / "cluster"
    cluster_dir.mkdir()
    patched = cluster_dir / "join_ok.py"
    patched.write_text(
        (FIXTURES / "cluster" / "supervisor_blocking.py")
        .read_text()
        .replace("handle.process.join()", "handle.process.join(timeout=5)")
    )
    assert check_files([patched]) == []
