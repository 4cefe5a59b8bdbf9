"""Command line, one run of one workload, reports and ``--repeat``.

Imported by ``run.py`` once the program under test is on ``sys.path``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from dataclasses import replace

from engine import run_round
from layers import layer_metrics, ops_per_s, p50_us, run_ladder, run_probe
from stats import (
    environment,
    load_average,
    median,
    percentile,
    spread,
    tail_percentile,
)
from workloads import (
    BLOCK,
    LADDER_OPS,
    PROBE_GETS,
    PROBE_KEYS,
    ROUNDS,
    SPECS,
    generate_round,
    timed_ops,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: share of a run's ops that the traced run replays (plain, then traced)
TRACE_SHARE = 0.1
SMOKE_SCALE = 1 / 50


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def scaled(spec, scale: float):
    if scale == 1.0:
        return spec
    return replace(
        spec,
        preload=max(100, int(spec.preload * scale)) if spec.preload else 0,
        ingest_keys=max(500, int(spec.ingest_keys * scale))
        if spec.ingest_keys
        else 0,
        count_block=max(20, int(spec.count_block * scale)),
    )


def run_plain(spec, seed: int, seconds: float, scale: float) -> dict:
    """The untraced run: ``ROUNDS`` rounds, end-to-end metrics."""
    n_ops = timed_ops(spec, seconds, scale)
    rounds = []
    for round_no in range(ROUNDS):
        gc.collect()  # the previous round's database is not this one's set-up
        started = time.perf_counter()
        inputs = generate_round(spec, seed, round_no, n_ops, False)
        rounds.append(run_round(spec, ROOT, inputs, started))

    def pooled(kind: str, role: str = "thread") -> list:
        return [ns for r in rounds for ns in r.samples(kind, role)]

    everything = [ns for r in rounds for ns in r.all_samples()]
    tail_q, tail = tail_percentile(everything)
    metrics = {
        "setup_s": median([r.setup_s for r in rounds]),
        "ops_per_s": ops_per_s(rounds),
        "get_p50_us": p50_us(pooled("get")),
        # batch_btree's write path is the 500-key ingest batch
        "insert_p50_us": p50_us(pooled("insert") or pooled("ingest", "ingest")),
        "scan_p50_us": p50_us(pooled("scan")),
        # the one end-to-end number the slow ops move: splits, vacuum
        # passes and stalls all land in it, none in a median
        "op_mean_us": sum(everything) / len(everything) / 1e3,
    }
    notes = {
        # tails are printed, not gated: between seeds p95 swings up to
        # 34% and p99 up to 23% (they sit where ordinary ops end and the
        # ~1% that split a node begin), see README
        "op_p95_us": percentile(everything, 95.0) / 1e3,
        f"op_p{tail_q:g}_us": tail / 1e3,
        "op.samples": len(everything),
        "recovery_s": median([r.recovery_s for r in rounds]),
        "retries": sum(r.retries for r in rounds),
        "ops_per_round": n_ops,
    }
    for kind in spec.mix:
        samples = pooled(kind)
        q, value = tail_percentile(samples)
        notes[f"{kind}.samples"] = len(samples)
        notes[f"{kind}.p{q:g}_us"] = value / 1e3
    return _outcome(metrics, rounds, [], notes)


def run_traced(spec, seed: int, seconds: float, scale: float) -> dict:
    """The traced run: one plain and one traced round of the same ops."""
    # a tenth of the whole run's ops, in one round
    n_ops = timed_ops(spec, seconds, scale * TRACE_SHARE * ROUNDS)
    started = time.perf_counter()
    inputs = generate_round(spec, seed, 0, n_ops, True)
    plain = run_round(spec, ROOT, inputs, started)
    traced = run_round(spec, ROOT, inputs, time.perf_counter(), traced=True)
    ladder = probe = None
    extra = []
    if spec.kind == "served":
        # the cluster rungs keep their WAL shadows on disk
        tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
        try:
            ladder, tallies = run_ladder(
                ROOT, seed, max(BLOCK, int(LADDER_OPS * scale)), spec.preload, tmp
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        extra += tallies
    if spec.kind == "batch":
        probe, tallies = run_probe(
            seed, max(500, int(PROBE_KEYS * scale)), max(50, int(PROBE_GETS * scale))
        )
        extra += tallies
    metrics = layer_metrics(spec, plain, traced, ladder, probe)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{spec.name}.jsonl")
    notes = {
        "trace_file": os.path.relpath(path, ROOT),
        "spans": traced.rec.write_jsonl(path),
        "ops_traced": n_ops,
    }
    return _outcome(metrics, [plain, traced], extra, notes)


def _outcome(metrics: dict, rounds: list, extra: list, notes: dict) -> dict:
    tallies = [t for r in rounds for t in r.tallies] + extra
    failed = sum(t.failed for t in tallies)
    return {
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "problems": [p for t in tallies for p in t.problems][:10],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale=1.0):
    """Run, stamp, check the metric names against BENCHMARK.json, save."""
    doc = declared()
    spec = scaled(SPECS[name], scale)
    env = environment(ROOT)
    started = time.perf_counter()
    outcome = (run_traced if trace else run_plain)(spec, seed, seconds, scale)
    env["load_1m_end"] = load_average()
    units = {
        m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]
    }
    if set(units) != set(outcome["metrics"]):
        raise SystemExit(
            "bench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(outcome['metrics']))}"
        )
    outcome["metrics"] = {
        name: {"value": outcome["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    outcome.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        scale=scale,
        wall_s=time.perf_counter() - started,
        environment=env,
    )
    os.makedirs(OUT, exist_ok=True)
    suffix = "-trace" if trace else ""
    with open(
        os.path.join(OUT, f"result-{name}-seed{seed}{suffix}.json"), "w"
    ) as fh:
        json.dump(outcome, fh, indent=1, default=str)
    return outcome


def warn_if_loaded() -> None:
    """Once, before the first run: later runs would only see this one's load."""
    load, nproc = load_average(), os.cpu_count() or 1
    if load > nproc / 2:
        print(
            f"bench: warning: 1-min load average {load:.2f} exceeds nproc/2 = "
            f"{nproc / 2:g} before the first run; timings are suspect",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def print_outcome(outcome: dict) -> None:
    env = outcome["environment"]
    print(
        f"== {outcome['workload']}  seed={outcome['seed']} "
        f"seconds={outcome['seconds']:g} trace={outcome['trace']} "
        f"scale={outcome['scale']:g}  "
        f"(wall {outcome['wall_s']:.1f} s; git {env['git_sha'][:12]}, "
        f"python {env['python']}, nproc {env['nproc']}, "
        f"load {env['load_1m_start']:.2f}→{env['load_1m_end']:.2f})"
    )
    for name, metric in outcome["metrics"].items():
        print(f"  {name:36s} {metric['value']:>14.4f} {metric['unit']}")
    for name, value in outcome["notes"].items():
        shown = f"{value:.4f}" if isinstance(value, float) else value
        print(f"  . {name:34s} {shown:>14}")
    print(
        f"  attempted {outcome['attempted']}  failed {outcome['failed']}  "
        f"correct {outcome['correct']}"
    )
    for problem in outcome["problems"]:
        print(f"  ! {problem}")


def contract_line(outcome: dict) -> str:
    return json.dumps(
        {key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def repeat(names: list, n: int, seed: int, seconds: float) -> int:
    """``n`` runs per workload on consecutive seeds; spread vs bound."""
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    disagreements = 0
    for name in names:
        runs = [run_workload(name, seed + i, seconds, False) for i in range(n)]
        failed = sum(r["failed"] for r in runs)
        print(f"== {name}: {n} runs, seeds {seed}..{seed + n - 1}, failed ops {failed}")
        print(
            f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
            f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}"
        )
        disagreements += failed
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric]["value"] for r in runs])
            # set-up time is held to its bound between medians of whole
            # sets of runs, not within one set
            over = s["iqr_rel"] > bound and metric != "setup_s"
            disagreements += over
            print(
                f"  {metric:16s} {s['median']:12.3f} {s['q1']:12.3f} "
                f"{s['q3']:12.3f} {s['iqr_rel']:8.2%} {s['range_rel']:9.2%} "
                f"{bound:6.0%}{'  << over its bound' if over else ''}"
            )
    return 1 if disagreements else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument(
        "--smoke", action="store_true", help="1/50 size; any failed op fails"
    )
    args = parser.parse_args(argv)
    if args.workload and args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(SPECS)}")
    names = [args.workload] if args.workload else list(SPECS)
    seconds = args.seconds or declared()["run_seconds"]
    warn_if_loaded()
    if args.repeat:
        return repeat(names, args.repeat, args.seed, seconds)
    scale = SMOKE_SCALE if args.smoke else 1.0
    status = 0
    for name in names:
        outcome = run_workload(name, args.seed, seconds, bool(args.trace), scale)
        print_outcome(outcome)
        status |= not outcome["correct"]
    if args.workload:
        print(contract_line(outcome))
    return status
