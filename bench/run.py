"""Benchmark of the lgschubert command line, end to end and per layer.

Run from the repository root (the package is used from ``src``, uninstalled):

    python3 bench/run.py --workload pieri|table|verify --seed N --seconds S --trace 0|1

One client sends requests in a closed loop: each request is a call of
``lgschubert.cli.main`` and the next one starts when it returns.  The unit of
work is a round (see bench/workloads.py), run in a fresh interpreter with
``SCHUBERT_CACHE_DIR`` pointing at an empty directory under bench/out, so a
user's own cache never warms a cold table.  ``--seconds`` buys a fixed
number of rounds (its share of NOMINAL_ROUND_S), so a faster commit measures
the same inputs, not more of them; every output is checked.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
medians over the rounds, times at reference host speed (below):

* setup_s      import of the package and load of the reference digests in
               a fresh interpreter, timed inside it, so that the
               interpreter's own start-up (some 50 ms, none of it the
               package's) does not dilute work moved to import time
               (median of SETUP_REPEATS);
* wall_s       one round;
* cold_s       the round's cold phase, every memo table empty;
* warm_per_s   warm-phase requests completed per second of the round's
               warm phase (a rate over the whole phase, not a median
               latency: pieri pair costs are heavy-tailed, and only the
               rate over a whole matching is the same for every seed);
* peak_rss_mb  peak resident memory of the round's interpreter.

On a shared 2-core VM each CPU flips between two speeds about 1.7x apart,
independently of the other and often within a second, with process CPU time
tracking wall time, so repeating work inside one run cannot average it out.
Each round therefore runs pinned to one CPU (``child._pin``), and a
calibration loop (``workloads.calibrate``, about 10 ms) runs on it before
the first request of a round and after each request, outside the timing;
each request's time is scaled by the reference loop time over the median of
the loops around it (``workloads.scaled``).  Each setup sample is scaled by
the loops just before and after it, in its own pinned interpreter.  The
metric times read as seconds on a host where the loop takes
``workloads.CALIBRATION_REF_S``; the workload line reports the raw figures
and the median loop time beside them.

The lines before the last one report the environment (Python, nproc, commit,
seed, load average) and the workload's own figures under the names
staircase_s, product_p50_ms, product_p90_ms, products_per_s, table_cold_s,
table_warm_ms and error_rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 21
CHILD_TIMEOUT_S = 150
# Seconds one untraced round takes at the seed commit on a 2-core x86 host;
# fixes how many rounds a given --seconds buys.
NOMINAL_ROUND_S = {"pieri": 12.0, "table": 1.3, "verify": 4.5}
SLOW_HOST_STOP = 1.3

sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

LAYER_FUNCTIONS = (
    "partitions.grow_strips",
    "partitions.shrink_strips",
    "quantum.quantum_pieri",
    "polyring.EPoly.mul",
    "qtilde.expand_in_basis",
    "polyring.XPoly.mul",
)
SELF_ONLY = ("quantum.giambelli_special", "polyring.epoly_to_xpoly",
             "cli.load_cache", "cli.save_cache")
COUNTERS = ("partitions.strips_out", "polyring.EPoly.mul.terms_out",
            "qtilde.expand_in_basis.terms_in", "cli.cache_bytes", "cli.cache_hits",
            "cli.cache_misses")
MEMO_LAYERS = ("partitions", "polyring", "qtilde", "symplectic", "quantum")
SUITES = tuple(argv.split()[0] for argv in workloads.VERIFY_COLD + workloads.VERIFY_WARM)


class RoundFailed(Exception):
    pass


def _environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lgschubert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
    }


def _child(work: Path, *argv: str) -> tuple[dict, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cache = Path(tempfile.mkdtemp(dir=work))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "--cache-dir", str(cache), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round timed out after {CHILD_TIMEOUT_S} s: {argv}") from exc
    elapsed = time.perf_counter() - t0
    shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise RoundFailed(f"round exited {proc.returncode}: {argv}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def _tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile (at most 90) with at least ten samples beyond
    it, and its nearest-rank value; (0, nan) below eleven samples."""
    n = len(values)
    if n < 11:
        return 0, math.nan
    level = min(90, math.floor(100 * (n - 10) / n))
    rank = math.ceil(level * n / 100)
    return level, sorted(values)[rank - 1]


def _rounds(args, work: Path) -> list[tuple[bool, dict, float]]:
    """Run the workload's rounds: as many as fit in ``--seconds`` at the
    nominal round time, so both sides of a comparison run the same inputs.
    With tracing, untraced and traced rounds of round 0's inputs alternate.
    A host far slower than nominal stops early, after at least one of each."""
    nominal = NOMINAL_ROUND_S[args.workload]
    if args.trace:
        plan = [(False, 0), (True, 0)] * max(1, int(args.seconds / (3 * nominal)))
    else:
        plan = [(False, r) for r in range(max(1, round(args.seconds / nominal)))]
    t_start = time.perf_counter()
    done: list[tuple[bool, dict, float]] = []
    for k, (traced, rnd) in enumerate(plan):
        typical = statistics.median(e for _, _, e in done) if done else 0.0
        if k >= 2 and time.perf_counter() - t_start + typical > SLOW_HOST_STOP * args.seconds:
            break
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--round", str(rnd), "--trace", str(int(traced))]
        if traced:
            argv += ["--spans", str(OUT / f"spans-{args.workload}.json")]
        result, elapsed = _child(work, *argv)
        done.append((traced, result, elapsed))
    return done


def _layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    med = statistics.median
    first = traced[0]["trace"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracer.LAYERS:
        calls = sum(c for k, c in first["calls"].items() if k.split(".")[0] == layer)
        self_s = med([sum(s for k, s in r["trace"]["self_s"].items() if k.split(".")[0] == layer)
                      for r in traced])
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
    for name in LAYER_FUNCTIONS + SELF_ONLY:
        metrics[f"{name}.self_s"] = (med([r["trace"]["self_s"].get(name, 0.0) for r in traced]), "s")
    counters = first["counters"]
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "B" if name.endswith("bytes") else "count")
    strips = counters.get("partitions.strips_out", 0)
    strict = counters.get("partitions.strict_strips_out", 0)
    metrics["partitions.strict_strip_share"] = (strict / strips if strips else 0.0, "share")
    memo = plain[0]["memo"]
    for layer in MEMO_LAYERS:
        m = memo[layer]
        lookups = m["hits"] + m["misses"]
        metrics[f"{layer}.memo_entries"] = (m["entries"], "count")
        metrics[f"{layer}.memo_hit_rate"] = (m["hits"] / lookups if lookups else 0.0, "share")
    for suite in SUITES:
        metrics[f"suites.{suite}.wall_s"] = (med([r["suites_s"].get(suite, 0.0) for r in plain]), "s")
    plain_wall = med([r["reference"]["wall_s"] for r in plain])
    traced_wall = med([r["reference"]["wall_s"] for r in traced])
    metrics["traced_wall_s"] = (med([r["wall_s"] for r in traced]), "s")
    metrics["trace_overhead_share"] = ((traced_wall - plain_wall) / plain_wall, "share")
    return metrics


def _workload_figures(workload: str, plain: list[dict]) -> dict:
    """The workload's own end-to-end figures, unscaled, under their own names."""
    cold = statistics.median(r["cold_s"] for r in plain)
    warm = [x for r in plain for x in r["warm_latencies_s"]]
    if workload == "pieri":
        level, tail = _tail(warm)
        return {
            "staircase_s": (cold, "s"),
            "product_p50_ms": (1000 * statistics.median(warm), "ms"),
            f"product_p{level}_ms": (1000 * tail, "ms"),
            "product_samples": (len(warm), "count"),
            "products_per_s": (len(warm) / sum(warm), "1/s"),
        }
    if workload == "table":
        return {"table_cold_s": (cold, "s"),
                "table_warm_ms": (1000 * statistics.median(warm), "ms"),
                "table_warm_samples": (len(warm), "count")}
    return {}


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("pieri", "table", "verify"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "lgschubert" / "cli.py", BENCH / "ref" / "pieri_n7.json")
               if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = _environment(args)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setups = [_child(work, "--workload", "setup", "--round", str(k))[0]
                  for k in range(SETUP_REPEATS)]
        rounds = _rounds(args, work)
        error = None
    except RoundFailed as exc:
        rounds, error = [], str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    print(json.dumps({"environment": env}))

    plain = [r for traced, r, _ in rounds if not traced]
    traced = [r for t, r, _ in rounds if t]
    if error or not plain:
        print(error or "no round completed", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    figures = _workload_figures(args.workload, plain)
    figures["raw_setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
    figures["raw_wall_s"] = (statistics.median(r["wall_s"] for r in plain), "s")
    figures["calibration_s"] = (statistics.median(
        statistics.median(r["calibration_s"]) for r in plain), "s")
    figures["error_rate"] = (failed / attempted, "share")
    print(json.dumps({"workload": _as_json(figures), "rounds": len(plain),
                      "attempted": attempted, "failed": failed}))

    if args.trace:
        metrics = _layer_metrics(traced, plain)
    else:
        def ref(key):
            return statistics.median(r["reference"][key] for r in plain)

        metrics = {
            "setup_s": (statistics.median(
                workloads.scaled([s["setup_s"]], s["calibration_s"])[0] for s in setups), "s"),
            "wall_s": (ref("wall_s"), "s"),
            "cold_s": (ref("cold_s"), "s"),
            "warm_per_s": (ref("warm_per_s"), "1/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
        print(json.dumps({"memo": plain[0]["memo"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
