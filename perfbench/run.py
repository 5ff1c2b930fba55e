"""Run one qtkostka benchmark workload and print its metrics.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Run from a checkout that holds src/qtkostka.  Every pass runs in a fresh
interpreter (`worker.py`), so no pass starts with a cache another one
filled; passes repeat until the next one would end after --seconds, and each
metric is the median over passes.  With --trace 1 the run makes one untraced
and one traced pass instead and prints the per-layer metrics.  The lines
before the last describe the run; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  A copy of the result, with the
environment and every sample, goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import METRICS as LAYER_METRICS, merge  # noqa: E402
from worker import family_shapes  # noqa: E402

# Sizes of each workload; README.md says why each was chosen.
WORKLOADS: dict[str, dict] = {
    "macdonald-cold": {"n": 13, "queries": 20000},
    "macdonald-session": {"sizes": [9, 11], "queries": 100000},
    "battery": {"max_n": 8, "oracle_degree": 6, "n_points": 3, "queries": 20000},
    "crosscheck": {"n": 10, "oracle_n": 9, "queries": 20000},
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
}
SETUP_SAMPLES = 3  # set-up-only workers before each pass, on top of the passes' own
RUN_LIMIT_S = 170  # every worker of a run ends within this many seconds of its start


class BenchError(RuntimeError):
    """A worker failed to run; the run prints no result."""


def _worker(spec: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker, killing it at the deadline (a perf_counter value).

    Returns the seconds from spawn to its "ready" line, and its result.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        bufsize=0,  # unbuffered, so readline takes no bytes past "ready"
    )
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {spec['workload']} ran past the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"worker for {spec['workload']} exited with {proc.returncode}")
    return ready, json.loads(rest.decode().strip().splitlines()[-1])


def _specs(workload: str, seed: int, pass_no: int) -> list[dict]:
    """The worker specs of one pass: one per shape for macdonald-cold, else one."""
    base = {"workload": workload, "seed": seed, "pass": pass_no, **WORKLOADS[workload]}
    if workload != "macdonald-cold":
        return [base]
    shapes = family_shapes(base["n"])
    random.Random(f"{seed}:{pass_no}").shuffle(shapes)
    return [{**base, "mu": list(mu)} for mu in shapes]


def _pass(workload: str, seed: int, pass_no: int, trace: bool, setups: list,
          deadline: float) -> dict:
    """Run one pass and fold its workers into one record."""
    record = {"wall_s": 0.0, "shape_s": [], "warm_s": 0.0, "warm_queries": 0,
              "peak_rss_mib": 0.0, "attempted": 0, "failures": [], "layers": []}
    for i, spec in enumerate(_specs(workload, seed, pass_no)):
        spec["trace"] = trace
        if trace:
            out_dir = ROOT / ".perfbench" / "spans"
            out_dir.mkdir(parents=True, exist_ok=True)
            spec["spans"] = str(out_dir / f"{workload}-seed{seed}-{i}.spans")
        ready, res = _worker(spec, deadline)
        setups.append(ready if workload == "macdonald-cold" else res["setup_s"])
        for key in ("wall_s", "warm_s", "warm_queries", "attempted"):
            record[key] += res[key]
        record["shape_s"] += res["shape_s"]
        record["failures"] += res["failures"]
        record["peak_rss_mib"] = max(record["peak_rss_mib"], res["peak_rss_mib"])
        if trace:
            record["layers"].append(res["layers"])
    return record


def _setup_only(workload: str, seed: int, setups: list, deadline: float) -> None:
    for _ in range(SETUP_SAMPLES):
        spec = {**_specs(workload, seed, 0)[0], "trace": False, "setup_only": True}
        ready, res = _worker(spec, deadline)
        setups.append(ready if workload == "macdonald-cold" else res["setup_s"])


def _environment(seed: int) -> dict:
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha or "unknown (not a git checkout)",
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups: list[float] = []
    passes: list[dict] = []
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    if trace:
        _setup_only(workload, seed, setups, deadline)
        passes.append(_pass(workload, seed, 0, False, setups, deadline))
        passes.append(_pass(workload, seed, 0, True, setups, deadline))
    else:
        while True:
            begun = perf_counter()
            _setup_only(workload, seed, setups, deadline)
            passes.append(_pass(workload, seed, len(passes), False, setups, deadline))
            now = perf_counter()
            if now + (now - begun) > start + seconds:
                break
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    shape_ms = [1000 * s for p in passes for s in p["shape_s"]]
    if trace:
        metrics = merge(passes[1]["layers"])
        metrics["trace.overhead_s"] = passes[1]["wall_s"] - passes[0]["wall_s"]
        units = LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        units = END_TO_END
    return {
        "workload": workload,
        "environment": _environment(seed),
        "passes": len(passes),
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "shape_ms": shape_ms,
        "warm_query_us": [1e6 * p["warm_s"] / p["warm_queries"] for p in passes],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "samples": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def describe(result: dict) -> list[str]:
    """Human-readable lines for one workload's result."""
    env = result["environment"]
    lines = [
        f"workload {result['workload']}: {result['passes']} pass(es), "
        f"{result['setup_samples']} set-up samples",
        "environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    warm = result["warm_query_us"]
    lines.append(f"  {'warm_query_us':<38} {statistics.median(warm):>14.6g} us"
                 f"  (median over {len(warm)} passes)")
    shape_ms = result["shape_ms"]
    if len(shape_ms) >= 2:
        lines.append(f"  {'shape_ms.p50':<38} {statistics.median(shape_ms):>14.6g} ms"
                     f"  ({len(shape_ms)} samples)")
    if len(shape_ms) >= 100:
        lines.append(f"  {'shape_ms.p90':<38} {_percentile(shape_ms, 90):>14.6g} ms"
                     f"  ({len(shape_ms)} samples, {len(shape_ms) // 10} beyond)")
    elif len(shape_ms) >= 2:
        lines.append(f"  {'shape_ms.p90':<38} {'n/a':>14} ms"
                     f"  ({len(shape_ms)} samples; p90 needs 100)")
    rate = result["failed"] / result["attempted"]
    lines.append(f"  {'error_rate':<38} {rate:>14.6g} ratio"
                 f"  ({result['failed']} failed / {result['attempted']} attempted)")
    lines += [f"  FAILED: {f}" for f in result["failures"][:20]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtkostka" / "__init__.py").is_file():
        print(f"error: no src/qtkostka under {ROOT}; run from a qtkostka checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print("\n".join(describe(results[-1])), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    for res in results:
        path = out_dir / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
