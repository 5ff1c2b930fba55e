"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py '<spec as JSON>'

The worker imports qtkostka and builds the pass's inputs from the spec (that
is its set-up), prints the line "ready", runs the timed phase, checks every
output, and prints one JSON line with its measurements.  `run.py` starts one
worker per pass, or per shape for macdonald-cold, so no pass inherits a
cache from another.  The spec holds the workload name, the seed, the pass
number, the sizes (`run.WORKLOADS`), "trace" and optionally "spans" (where
to write the spans) or "setup_only".  The inputs depend on the seed and the
pass number only.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def family_shapes(n: int) -> list[tuple[int, ...]]:
    """One direct shape per family of size n: (2^a 1^b), (3 2^a 1^b), (4 2^a 1^b)."""
    out = []
    for m in (2, 3, 4):
        head = () if m == 2 else (m,)
        rest = n - sum(head)
        out.append(head + (2,) * (rest // 2) + (1,) * (rest % 2))
    return out


def canonical_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def mu_key(mu) -> str:
    return ",".join(map(str, mu))


def profile_payload(profile) -> list:
    return sorted([ts.text(), list(counts)] for ts, counts in profile.items())


def supported_shapes(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Every shape of size lo..hi that macdonald supports, conjugates included."""
    from qtkostka.partitions import partitions_of
    from qtkostka.vertex import UnsupportedShapeError, classify_shape

    shapes = []
    for n in range(lo, hi + 1):
        for mu in partitions_of(n):
            try:
                classify_shape(mu)
            except UnsupportedShapeError:
                continue
            shapes.append(mu)
    return shapes


def _queries(rng: random.Random, shapes, count: int) -> list[tuple]:
    """count seeded kostka(lam, mu) arguments, drawn from all (lam, mu) with mu in shapes."""
    from qtkostka.partitions import partitions_of

    pairs = [(lam, mu) for mu in shapes for lam in partitions_of(sum(mu))]
    return rng.choices(pairs, k=count)


def _warm_block(queries) -> tuple[list, float]:
    from qtkostka.vertex import kostka

    start = perf_counter()
    answers = [kostka(lam, mu) for lam, mu in queries]
    return answers, perf_counter() - start


# --- workloads: prepare (set-up) and run (timed phase) -----------------------


def prepare(spec: dict) -> dict:
    import qtkostka.battery  # noqa: F401  (imports every library module)
    from qtkostka.oracle import generic_points
    from qtkostka.partitions import partitions_of

    name, seed, pass_no = spec["workload"], spec["seed"], spec["pass"]
    rng = random.Random(f"{name}:{seed}:{pass_no}:{spec.get('mu')}")
    if name == "macdonald-cold":
        shapes = [tuple(spec["mu"])]
        return {"shapes": shapes, "queries": _queries(rng, shapes, spec["queries"])}
    if name == "macdonald-session":
        shapes = supported_shapes(*spec["sizes"])
        rng.shuffle(shapes)
        return {"shapes": shapes, "queries": _queries(rng, shapes, spec["queries"])}
    if name == "battery":
        shapes = supported_shapes(1, spec["max_n"])
        return {"shapes": shapes, "queries": _queries(rng, shapes, spec["queries"])}
    if name == "crosscheck":
        stat_shapes = family_shapes(spec["n"])
        oracle_shapes = family_shapes(spec["oracle_n"])
        rng.shuffle(stat_shapes)
        rng.shuffle(oracle_shapes)
        point = generic_points(pass_no + 1, seed, max_n=spec["oracle_n"])[pass_no]
        return {
            "stat_shapes": stat_shapes,
            "oracle_shapes": oracle_shapes,
            "point": point,
            "lams": partitions_of(spec["oracle_n"]),
            "queries": _queries(rng, stat_shapes + oracle_shapes, spec["queries"]),
        }
    raise ValueError(f"unknown workload {name!r}")


def run(spec: dict, inp: dict) -> dict:
    """The timed phase.  Each operation that raises is recorded, not propagated."""
    from qtkostka.battery import run_battery
    from qtkostka.oracle import kostka_oracle
    from qtkostka.stats import stat_genfun, unimodal_profile
    from qtkostka.vertex import kostka, macdonald

    out: dict = {"shape_s": [], "errors": [], "expansions": {}}
    name = spec["workload"]
    if name in ("macdonald-cold", "macdonald-session"):
        for mu in inp["shapes"]:
            start = perf_counter()
            try:
                out["expansions"][mu] = macdonald(mu)
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
                out["errors"].append(f"macdonald{mu}: {exc!r}")
            out["shape_s"].append(perf_counter() - start)
    elif name == "battery":
        out["report"] = run_battery(
            max_n=spec["max_n"],
            oracle_degree=spec["oracle_degree"],
            n_points=spec["n_points"],
            seed=spec["seed"],
        )
    elif name == "crosscheck":
        q0, t0 = inp["point"]
        out["genfun_equal"], out["profiles"], out["oracle"] = {}, {}, {}
        for mu in inp["stat_shapes"]:
            start = perf_counter()
            try:
                out["expansions"][mu] = macdonald(mu)
                out["genfun_equal"][mu] = stat_genfun(mu) == out["expansions"][mu]
                out["profiles"][mu] = unimodal_profile(mu)
            except Exception as exc:  # noqa: BLE001
                out["errors"].append(f"crosscheck{mu}: {exc!r}")
            out["shape_s"].append(perf_counter() - start)
        for mu in inp["oracle_shapes"]:
            start = perf_counter()
            for lam in inp["lams"]:
                try:
                    out["oracle"][lam, mu] = (
                        kostka(lam, mu).evaluate(q0, t0),
                        kostka_oracle(lam, mu, q0, t0),
                    )
                except Exception as exc:  # noqa: BLE001
                    out["errors"].append(f"oracle{lam}{mu}: {exc!r}")
            out["shape_s"].append(perf_counter() - start)
    try:
        out["answers"], out["warm_s"] = _warm_block(inp["queries"])
    except Exception as exc:  # noqa: BLE001
        out["answers"], out["warm_s"] = None, 0.0
        out["errors"].append(f"warm kostka block: {exc!r}")
    return out


# --- output checks -------------------------------------------------------------


def check(spec: dict, inp: dict, out: dict) -> tuple[int, list[str]]:
    """(operations attempted, failure messages) for one pass."""
    from qtkostka.oracle import count_syt
    from qtkostka.partitions import partitions_of
    from qtkostka.vertex import macdonald

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    failures = list(out["errors"])
    attempted = len(inp["queries"])

    def check_expansion(mu, f) -> None:
        problems = []
        if canonical_digest(f.to_json()) != reference["macdonald"].get(mu_key(mu)):
            problems.append("digest differs from the reference")
        at_one = {lam: sum(c for _, c in coeff.terms()) for lam, coeff in f.terms()}
        if at_one != {lam: count_syt(lam) for lam in partitions_of(sum(mu))}:
            problems.append("coefficients at q=t=1 are not count_syt")
        if problems:
            failures.append(f"macdonald{mu}: " + "; ".join(problems))

    name = spec["workload"]
    if name in ("macdonald-cold", "macdonald-session"):
        attempted += len(inp["shapes"])
    elif name == "battery":
        report = out["report"]
        attempted += len(report)
        failures += [f"battery {e['check']} {e['params']}" for e in report if e["status"] != "pass"]
        if spec["seed"] == 0 and (spec["max_n"], spec["oracle_degree"], spec["n_points"]) == (8, 6, 3):
            attempted += 1
            if canonical_digest(report) != reference["battery_seed0"]:
                failures.append("battery report digest differs from the seed-0 reference")
    elif name == "crosscheck":
        attempted += 2 * len(inp["stat_shapes"]) + len(inp["oracle_shapes"]) * len(inp["lams"])
        for mu, equal in out["genfun_equal"].items():
            if not equal:
                failures.append(f"stat_genfun{mu} != macdonald{mu}")
        for mu, profile in out["profiles"].items():
            total = sum(sum(counts) for counts in profile.values())
            digest = canonical_digest(profile_payload(profile))
            if total != sum(count_syt(lam) for lam in partitions_of(sum(mu))):
                failures.append(f"unimodal_profile{mu} does not count every standard tableau")
            elif digest != reference["profile"].get(mu_key(mu)):
                failures.append(f"unimodal_profile{mu}: digest differs from the reference")
        for (lam, mu), (got, want) in out["oracle"].items():
            if got != want:
                failures.append(f"kostka{lam}{mu} != kostka_oracle at {inp['point']}")
    for mu, f in out["expansions"].items():
        check_expansion(mu, f)
    for mu in inp.get("oracle_shapes", ()):
        check_expansion(mu, macdonald(mu))
    if out["answers"] is not None:
        for (lam, mu), got in zip(inp["queries"], out["answers"]):
            if got != macdonald(mu).coefficient(lam):
                failures.append(f"warm kostka{lam}{mu} differs from macdonald{mu}")
    return attempted, failures


def main() -> int:
    spec = json.loads(sys.argv[1])
    inp = prepare(spec)
    setup_s = perf_counter() - _T0
    print("ready", flush=True)
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with Tracer() if spec["trace"] else nullcontext() as tracer:
        start = perf_counter()
        out = run(spec, inp)
        wall_s = perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failures = check(spec, inp, out)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "shape_s": out["shape_s"],
        "warm_queries": len(inp["queries"]),
        "warm_s": out["warm_s"],
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(out.get("report", []))
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
