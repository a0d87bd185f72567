"""Benchmark entry point.

    python3 bench/run.py --workload fact-suite|closure-large|golden-cli \
        --seed N --seconds S --trace 0|1

Run from anywhere; the repo root is found from this file. Rounds run one
after another, each in a fresh interpreter (bench/worker.py), until
--seconds have passed (at least MIN_ROUNDS). One client, closed loop,
one process at a time.

--trace 0 prints the end-to-end metrics: medians over rounds of set-up
time, timed-phase wall time, throughput and peak RSS, plus the median and
tail latency over all ops of all rounds. --trace 1 alternates untraced and
traced rounds on the same inputs and prints the per-layer metrics from
the traced ones, with tracing overhead as the difference of the two
wall-time medians.

Stdout ends with two JSON lines: a report (environment, parameters, every
metric with its unit, failures, output digests) and the result object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_ROUNDS = 3
LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for module, attr in tracer.TRACED:
        name = tracer.span_name(module, attr)
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    for pred in workloads.FACT_COUNTS:
        units.update({f"harness.{pred}.s": "s", f"harness.{pred}.instances": "count"})
    for key in ("enumeration.labelled_posets", "closure.elements", "lattice.cells",
                "germs.grm.hits", "germs.grm.misses"):
        units[key] = "count"
    units["germs.grm.hit_ratio"] = "ratio"
    for module in tracer.MODULES:
        units[f"{module}.share"] = "ratio"
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


PER_LAYER = per_layer_units()


class BenchError(Exception):
    pass


def run_round(params: dict, budget_s: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(params)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget_s,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {params} did not finish in {budget_s:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"round {params} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            overrides: dict | None = None) -> tuple[dict, dict]:
    """Run the rounds and return (report, result)."""
    if not (ROOT / "src" / "germclosure" / "__init__.py").is_file():
        raise BenchError(f"no germclosure sources under {ROOT / 'src'}")
    started = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - started

    def params(round_index: int, traced: bool) -> dict:
        return {"workload": workload, "seed": seed, "round": round_index,
                "trace": traced, **(overrides or {})}

    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        if trace:
            # same inputs (round 0) on both sides, so the difference is tracing
            plain.append(run_round(params(0, False), LIMIT_S - elapsed()))
            traced.append(run_round(params(0, True), LIMIT_S - elapsed()))
        else:
            plain.append(run_round(params(len(plain), False), LIMIT_S - elapsed()))
        if (trace or len(plain) >= MIN_ROUNDS) and elapsed() >= seconds:
            break

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    latencies = sorted(x for r in plain for x in r["latencies"])
    n = len(latencies)
    tail_rank = n - 11 if n > 10 else n - 1
    absent: list[str] = []
    if trace:
        layers = [r["layers"] for r in traced]
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        values = {
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": plain_wall,
            "trace.overhead_s": traced_wall - plain_wall,
        }
        for name in PER_LAYER:
            if name in values:
                continue
            got = [layer[name] for layer in layers if name in layer]
            if len(got) < len(layers):
                absent.append(name)
            else:
                values[name] = statistics.median(got)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "ops_per_s": statistics.median(len(r["latencies"]) / r["wall_s"] for r in plain),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": latencies[tail_rank] * 1e3,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024,
        }
        units = END_TO_END

    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "parameters": workload_parameters(workload, overrides),
        "environment": environment(),
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "elapsed_s": elapsed(),
        "metrics": metrics,
        "fail_ratio": {"value": len(failures) / attempted if attempted else 1.0,
                       "unit": "ratio"},
        "op_tail": {"percentile": 100.0 * (tail_rank + 1) / n if n else 0.0,
                    "samples": n, "beyond": n - 1 - tail_rank},
        "absent": absent,
        "failures": failures[:20],
        "round_wall_s": [r["wall_s"] for r in plain],
        "digests": [r["digest"][:16] for r in rounds],
    }
    result = {
        "correct": not failures and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": metrics,
    }
    return report, result


def workload_parameters(workload: str, overrides: dict | None) -> dict:
    if workload == "fact-suite":
        out = {"poset_max": workloads.FACT_POSET_MAX,
               "lattice_max": workloads.FACT_LATTICE_MAX,
               "predicates": len(workloads.FACT_COUNTS)}
    elif workload == "closure-large":
        out = {"requests": workloads.CLOSURE_REQUESTS,
               "sparse_points": workloads.SPARSE_POINTS,
               "sparse_out_degree": workloads.SPARSE_OUT_DEGREE,
               "ordinal_levels": workloads.ORDINAL_LEVELS,
               "ordinal_width": workloads.ORDINAL_WIDTH}
    else:
        out = {"cases": len(workloads.GOLDEN_CASES),
               "expected_dir": workloads.GOLDEN_EXPECTED}
    return {**out, **(overrides or {})}


def environment() -> dict:
    src = sorted((ROOT / "src" / "germclosure").glob("*.py"))
    h = hashlib.sha256()
    for path in src:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(),
        "source_sha256": h.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
