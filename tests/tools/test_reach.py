"""The reachability audit, run on a small fixture package."""

import shutil
from pathlib import Path

import pytest

from repro.tools.reach import NONE, TIER1, USER, Entry, audit, functions_in

FIXTURE = Path(__file__).parent / "reach_fixture"


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    pytest.importorskip("pytest_benchmark")
    tmp = tmp_path_factory.mktemp("reach")
    shutil.copytree(FIXTURE, tmp / "fixture")
    entries = [
        Entry("user", ("user_entry.py",)),
        Entry(
            "suite",
            ("-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-o", "python_files=check_*.py", "check_suite.py"),
            tier1=True,
        ),
    ]
    return audit(
        entries,
        tmp / "fixture" / "reachpkg",
        cwd=tmp / "fixture",
        work=tmp / "work",
        timeout=120,
    )


def klass(report, name):
    return report.classes[f"mod.py::{name}"]


def test_user_path_functions_are_user(report):
    assert klass(report, "used") == USER


def test_function_called_only_from_a_test_is_tier1_only(report):
    assert klass(report, "test_only") == TIER1


def test_uncalled_function_is_reached_by_nothing(report):
    assert klass(report, "unused") == NONE


def test_cprofile_in_the_middle_does_not_end_recording(report):
    assert klass(report, "profiled") == USER
    assert klass(report, "after_profile") == USER


def test_function_run_in_a_forked_killed_child_is_counted(report):
    assert klass(report, "forked") == USER


def test_child_with_its_own_pythonpath_is_counted(report):
    assert klass(report, "spawned") == USER


def test_benchmark_fixture_does_not_pause_recording(report):
    assert klass(report, "benchmarked") == TIER1


def test_decorated_and_nested_functions_are_matched(report):
    assert klass(report, "decorated") == USER
    assert klass(report, "Box.method") == USER
    assert klass(report, "Box.method.<locals>.inner") == USER


def test_entries_are_recorded_with_exit_status(report):
    by_name = {e["name"]: e for e in report.entries}
    assert by_name["user"]["exit"] == 0
    assert by_name["suite"]["exit"] == 0
    assert not report.unstarted()


def test_entry_that_cannot_start_is_reported(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "m.py").write_text("def f():\n    return 1\n")
    report = audit(
        [Entry("missing", ("no_such_script.py",))],
        root,
        cwd=tmp_path,
        work=tmp_path / "work",
        timeout=60,
    )
    assert report.unstarted() == ["missing"]
    assert report.classes["m.py::f"] == NONE


def test_counts_cover_every_function(report):
    counts = report.counts()
    assert sum(c["functions"] for c in counts.values()) == len(
        functions_in(FIXTURE / "reachpkg")
    )
    text = report.to_text()
    assert "    test_only (line" in text and "    unused (line" in text

