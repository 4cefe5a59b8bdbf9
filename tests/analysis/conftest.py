"""One verifier analysis of the shipped tree, shared by every test that
checks ``src/repro`` (lint, rule packs, lock order, the verifier CLI)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.verify import Analysis, analyze

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="session")
def shipped() -> Analysis:
    return analyze([str(SRC)])
