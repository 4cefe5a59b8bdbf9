"""Reachability audit: which functions does a user path run, and which
only the tests?  ``PYTHONPATH=src python -m repro.tools.reach [--out DIR]``

Each user entry (:func:`default_entries`) runs in a fresh interpreter
under a call hook, then the tier-1 suite does, and every function under
``src/repro`` is classed ``user`` (run by a user entry), ``tier1`` (run
only by tier-1) or ``none``.  ``report.json`` (classes, each entry's
exit status and output tail) and ``report.txt`` (counts, then the
``tier1`` and ``none`` functions by module) land in ``--out``.  Entry
exit statuses are recorded, not judged: the tool exits 2 only when an
entry could not start (failed to spawn or reached no audited function).

The hook is a ``sitecustomize`` module put first on each entry's
``PYTHONPATH``; it records a function the first time any thread calls
it.  It is a ``sys.settrace`` hook, so ``cProfile`` (which owns the
profile hook) cannot clear it; a pytest plugin disarms pytest-benchmark's
``PauseInstrumentation``, which clears both hooks around timed calls; a
wrapped ``subprocess.Popen`` puts the hook back on the path of a child
given a ``PYTHONPATH`` of its own (the benchmark's ``served_btree``
server gets ``src`` only); and each function is written to a per-process
file when first seen, so a forked worker that is SIGKILLed loses nothing.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Entry", "Report", "audit", "default_entries", "functions_in"]

USER, TIER1, NONE = "user", "tier1", "none"
_TAIL = 15  # output lines kept per entry

_HOOK = r'''
import os
import subprocess
import sys
import threading

_OUT = os.environ.get("REPRO_REACH_OUT")
_ROOT = os.path.join(os.environ.get("REPRO_REACH_ROOT", ""), "")
_HOOK_DIR = os.path.dirname(os.path.abspath(__file__))
reach_tracer = None


def _install():
    global reach_tracer
    seen = set()
    fd = [None]

    def open_own_file():  # a forked child writes apart from its parent
        path = os.path.join(_OUT, "%d.reach" % os.getpid())
        fd[0] = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in seen:
            seen.add(code)
            path = os.path.abspath(code.co_filename)
            if path.startswith(_ROOT):  # unbuffered: SIGKILL-safe
                os.write(fd[0], b"%s\t%d\n" % (path.encode(), code.co_firstlineno))
        return None

    open_own_file()
    os.register_at_fork(after_in_child=open_own_file)
    reach_tracer = tracer
    sys.settrace(tracer)
    threading.settrace(tracer)
    popen_init = subprocess.Popen.__init__

    def init(self, *args, **kwargs):
        env = kwargs.get("env")
        if env is not None and "REPRO_REACH_OUT" not in env:  # else: a nested audit
            paths = env.get("PYTHONPATH", "")
            kwargs["env"] = dict(
                env, REPRO_REACH_OUT=_OUT, PYTEST_PLUGINS="repro_reach_plugin",
                REPRO_REACH_ROOT=os.environ["REPRO_REACH_ROOT"],
                PYTHONPATH=os.pathsep.join(p for p in (_HOOK_DIR, paths) if p),
            )
        popen_init(self, *args, **kwargs)

    subprocess.Popen.__init__ = init


if _OUT and _ROOT != os.sep:
    _install()
'''

_PLUGIN = r'''
import contextlib
import sys

import sitecustomize


def pytest_configure(config):
    try:
        from pytest_benchmark import fixture
    except ImportError:
        return
    fixture.PauseInstrumentation = contextlib.nullcontext


def pytest_runtest_setup(item):  # a test that cleared the hook
    tracer = sitecustomize.reach_tracer
    if tracer is not None and sys.gettrace() is not tracer:
        sys.settrace(tracer)
'''


@dataclass(frozen=True)
class Entry:
    """One program to run: ``python *argv`` from the audit's cwd."""

    name: str
    argv: tuple[str, ...]
    tier1: bool = False
    env: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Function:
    path: str  # relative to the audited root
    line: int  # first line, decorators included (``co_firstlineno``)
    qualname: str
    lines: int

    @property
    def id(self) -> str:
        return f"{self.path}::{self.qualname}"


@dataclass
class Report:
    functions: list[Function]
    classes: dict[str, str]  # Function.id -> USER / TIER1 / NONE
    entries: list[dict]

    def counts(self) -> dict:
        out = {k: {"functions": 0, "lines": 0} for k in (USER, TIER1, NONE)}
        for f in self.functions:
            out[self.classes[f.id]]["functions"] += 1
            out[self.classes[f.id]]["lines"] += f.lines
        return out

    def unstarted(self) -> list[str]:
        return [e["name"] for e in self.entries if not e["started"]]

    def to_text(self) -> str:
        out = [f"{k:6} {c['functions']:5} functions {c['lines']:6} lines"
               for k, c in self.counts().items()]
        out += [f"entry {e['name']}: exit {e['exit']}, {e['reached']} "
                f"functions, {e['seconds']:.1f} s"
                + ("" if e["started"] else " (did not start)")
                for e in self.entries]
        for klass in (TIER1, NONE):
            out.append(f"-- {klass} --")
            by_module = defaultdict(list)
            for f in self.functions:
                if self.classes[f.id] == klass:
                    by_module[f.path].append(
                        f"    {f.qualname} (line {f.line}, {f.lines} lines)"
                    )
            for path in sorted(by_module):
                out += [path, *by_module[path]]
        return "\n".join(out) + "\n"


def functions_in(root: Path, exclude: tuple[str, ...] = ()) -> list[Function]:
    """Every ``def`` under ``root`` (nested ones included), in file order."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel not in exclude:
            found += _defs(ast.parse(path.read_text()), rel, ())
    return found


def _defs(node: ast.AST, rel: str, scope: tuple[str, ...]) -> list[Function]:
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            name = ".".join(scope + (child.name,))
            out.append(Function(rel, first, name, child.end_lineno - first + 1))
            out += _defs(child, rel, scope + (child.name, "<locals>"))
        else:
            inner = (child.name,) if isinstance(child, ast.ClassDef) else ()
            out += _defs(child, rel, scope + inner)
    return out


def _run(entry: Entry, env: dict, out: Path, cwd: Path, timeout: float) -> dict:
    """Run one entry to completion (or ``timeout``), then kill its
    process group so no server, spinner or worker outlives it."""
    record = {"name": entry.name, "exit": None, "seconds": 0.0, "tail": []}
    started = time.monotonic()
    log = out / "output.log"
    try:
        with log.open("wb") as sink:
            proc = subprocess.Popen(
                [sys.executable, *entry.argv], cwd=cwd, env=env,
                stdout=sink, stderr=subprocess.STDOUT, start_new_session=True,
            )
    except OSError as exc:
        record["exit"] = repr(exc)
        return record
    try:
        record["exit"] = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        record["exit"] = "timeout"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    record["seconds"] = time.monotonic() - started
    record["tail"] = log.read_text(errors="replace").splitlines()[-_TAIL:]
    return record


def audit(
    entries: list[Entry],
    root: Path,
    *,
    cwd: Path,
    work: Path,
    timeout: float = 3600.0,
    exclude: tuple[str, ...] = (),
) -> Report:
    """Run ``entries`` under the hook and classify every function in the
    package directory ``root`` (its parent goes on ``PYTHONPATH``)."""
    root = Path(os.path.abspath(root))
    hook_dir = work / "hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(_HOOK)
    (hook_dir / "repro_reach_plugin.py").write_text(_PLUGIN)
    functions = functions_in(root, exclude)
    by_site = {(str(root / f.path), f.line): f.id for f in functions}
    reached = {False: set(), True: set()}  # keyed by Entry.tier1
    records = []
    for i, entry in enumerate(entries):
        out = work / "raw" / f"{i:02d}"
        out.mkdir(parents=True)
        paths = [str(hook_dir), str(root.parent), os.environ.get("PYTHONPATH")]
        env = dict(
            os.environ, **dict(entry.env),
            REPRO_REACH_OUT=str(out), REPRO_REACH_ROOT=str(root),
            PYTEST_PLUGINS="repro_reach_plugin",
            PYTHONPATH=os.pathsep.join(p for p in paths if p),
        )
        record = _run(entry, env, out, cwd, timeout)
        hit = set()
        for dump in out.glob("*.reach"):
            for line in dump.read_text().splitlines():
                filename, _, first = line.partition("\t")
                site = by_site.get((filename, int(first or 0)))
                if site is not None:
                    hit.add(site)
        reached[entry.tier1] |= hit
        record.update(tier1=entry.tier1, reached=len(hit), started=bool(hit))
        records.append(record)
    classes = {
        f.id: USER if f.id in reached[False]
        else TIER1 if f.id in reached[True] else NONE
        for f in functions
    }
    return Report(functions, classes, records)


def default_entries(repo: Path, scratch: Path) -> list[Entry]:
    """The user paths, then tier-1.  ``scratch`` takes what they write
    (verifier artifacts, a copy of ``benchmarks/``) so that tracked
    result files are left alone."""
    checks = (("REPRO_PROTOCOL_CHECKS", "1"),)
    scenario = ("-m", "repro.workload.scenario", "--threads", "4", "--check")
    chaos = ("-m", "repro.harness.chaos")
    pytest = ("-m", "pytest", "-q", "-p", "no:cacheprovider")
    return [
        *(Entry(f"example {p.stem}", (f"examples/{p.name}",))
          for p in sorted((repo / "examples").glob("*.py"))),
        Entry("verifier", ("-m", "repro.analysis.verify", "src/repro",
                           "--artifact-dir", str(scratch / "verify"))),
        Entry("lint", ("-m", "repro.analysis.lint", "src/repro")),
        Entry("scenario seed 3", (*scenario, "--ops", "400", "--seed", "3"),
              env=checks),
        Entry("scenario seed 11", (*scenario, "--ops", "200", "--seed", "11",
                                   "--op-tracing"), env=checks),
        Entry("scenario seed 5", (*scenario, "--ops", "400", "--seed", "5",
                                  "--mix", "insert=.4,search=.3,delete=.1,"
                                  "multi_put=.2"), env=checks),
        Entry("bench smoke", ("bench/run.py", "--smoke")),
        Entry("server smoke", ("-m", "repro.server", "--smoke",
                               "--partitions", "2", "--protocol-checks")),
        Entry("chaos", (*chaos, "--trials", "25", "--batch-trials", "10",
                        "--protocol-checks")),
        Entry("chaos partition+server", (*chaos, "--trials", "0",
                                         "--partition-trials", "6",
                                         "--server-trials", "6")),
        Entry("trace demo", ("-m", "repro.tools.trace", "--demo")),
        Entry("benchmarks", (*pytest, "--benchmark-disable", "-o",
                             "python_files=bench_*.py",
                             str(scratch / "benchmarks")),
              env=(("BENCH_QUICK", "1"),)),
        Entry("tier-1", (*pytest, "tests"), tier1=True),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.tools.reach")
    parser.add_argument("--out", default="reach-report",
                        help="directory for report.json and report.txt")
    args = parser.parse_args(argv)
    repo = Path(__file__).resolve().parents[3]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        scratch = Path(tmp)
        shutil.copytree(repo / "benchmarks", scratch / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        report = audit(
            default_entries(repo, scratch),
            repo / "src" / "repro",
            cwd=repo,
            work=scratch / "work",
            exclude=("tools/reach.py",),  # the audit does not judge itself
        )
    functions = [{"id": f.id, "line": f.line, "lines": f.lines,
                  "class": report.classes[f.id]} for f in report.functions]
    (out / "report.json").write_text(json.dumps(
        {"counts": report.counts(), "entries": report.entries,
         "functions": functions}, indent=1))
    (out / "report.txt").write_text(report.to_text())
    print(" ".join(f"{k}={c['functions']}" for k, c in report.counts().items()))
    if report.unstarted():
        print("could not start: " + ", ".join(report.unstarted()),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
