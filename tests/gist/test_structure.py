"""The shape of ``repro.gist``: each protocol step stated once, and the
Figure 3–4 core importable without what is built on it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro.gist

GIST = Path(repro.gist.__file__).parent


def _call_sites(name: str) -> list[str]:
    """``file:line`` of every call of ``name`` under ``src/repro/gist``."""
    sites = []
    for path in sorted(GIST.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called == name:
                sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_each_leaf_record_is_built_in_one_place():
    # one leaf-run writer, one mark traversal
    assert len(_call_sites("AddLeafEntryRecord")) == 1
    assert len(_call_sites("MarkLeafEntryRecord")) == 1


def test_signaling_lock_is_pinned_in_one_place():
    assert len(_call_sites("pin_signaling_to_eot")) == 1


def test_core_imports_without_batch_bulk_unique():
    built_on_core = ["repro.gist.batch", "repro.gist.bulk", "repro.gist.unique"]
    probe = (
        "import sys, repro.gist.tree; "
        f"print([m for m in {built_on_core!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(GIST.parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
