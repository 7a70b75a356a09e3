"""One round of a benchmark workload in a fresh interpreter.

    PYTHONPATH=src python3 bench/child.py --workload pieri --seed 1 --round 0 \
        --trace 0 --cache-dir DIR [--spans FILE]

Runs the round's requests through ``lgschubert.cli.main`` in-process, one
after another, times each one, checks every output once the round is over,
and prints one JSON object with the timings, checks, peak RSS and memo
counters (plus per-layer figures with ``--trace 1``).  The calibration loop
runs before the first request and after each one, outside their timing, and
gives each phase's time at reference host speed as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent


def _measures() -> dict:
    """Counters taken at a layer boundary, from a call's arguments and result."""

    def strips(counters, args, result):
        counters["partitions.strips_out"] += len(result)
        # strictness tested here, not with partitions.is_strict, whose wrapper
        # would count these calls as the program's
        counters["partitions.strict_strips_out"] += sum(
            1 for s in result if len(set(s[0])) == len(s[0]))

    def mul_terms(counters, args, result):
        counters["polyring.EPoly.mul.terms_out"] += len(result.terms)

    def expand_terms(counters, args, result):
        counters["qtilde.expand_in_basis.terms_in"] += len(args[0].terms)

    loaded = [0]

    def load(counters, args, result):
        loaded[0] = len(result)
        counters["cli.cache_hits"] += len(result)

    def save(counters, args, result):
        from lgschubert import cli

        # save_cache gets every cell of the table; those not loaded were computed
        counters["cli.cache_misses"] += len(args[2]) - loaded[0]
        counters["cli.cache_bytes"] = cli._cache_path(args[0], args[1]).stat().st_size

    return {
        "partitions.grow_strips": strips,
        "partitions.shrink_strips": strips,
        "polyring.EPoly.mul": mul_terms,
        "qtilde.expand_in_basis": expand_terms,
        "cli.load_cache": load,
        "cli.save_cache": save,
    }


def _timed(requests, latencies, outputs, calibration):
    """Run requests in order, timing each; the calibration loop runs after
    each one, outside its timing."""
    for argv in requests:
        t0 = time.perf_counter()
        try:
            rc, out = workloads.call(argv)
        except Exception as exc:  # an internal error fails this request only
            rc, out = None, repr(exc)
        latencies.append(time.perf_counter() - t0)
        outputs.append((argv, rc, out))
        calibration.append(workloads.calibrate())


def _pin(rnd: int) -> None:
    """Run the round on one CPU, chosen by round number in turn.  ``table``
    computes its cells on a worker thread; pinned, that thread shares its CPU
    with the calibration loop, whose timing then reflects that CPU's speed.
    On a shared host the two CPUs' speeds differ and change independently."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[rnd % len(cpus)]})


def _setup() -> int:
    """Time the import of the package and the load of the reference digests,
    between two calibration loops."""
    calibration = [workloads.calibrate()]
    t0 = time.perf_counter()
    from lgschubert import cli  # noqa: F401  (imports every layer)

    json.loads((HERE / "ref" / f"pieri_n{workloads.PIERI_N}.json").read_text())
    setup_s = time.perf_counter() - t0
    calibration.append(workloads.calibrate())
    print(json.dumps({"setup_s": setup_s, "calibration_s": calibration}))
    return 0


def _passes(check, k: int, output) -> bool:
    """A check that raises (say, on stdout that is not JSON) fails its output."""
    try:
        return bool(check(k, *output))
    except Exception:
        return False


def _pieri(seed: int, rnd: int):
    from lgschubert.partitions import all_strict_upto, rho

    n = workloads.PIERI_N
    classes = all_strict_upto(n)
    pairs = workloads.pieri_pairs(seed, rnd, len(classes))
    cold = [workloads.product_argv(k, rho(k), rho(k)) for k in range(1, n + 1)]
    warm = [workloads.product_argv(n, classes[i], classes[j]) for i, j in pairs]
    ref = json.loads((HERE / "ref" / f"pieri_n{n}.json").read_text())["rows"]

    def check_cold(k, argv, rc, out):
        return rc == 0 and workloads.staircase_ok(out, k + 1)

    def check_warm(k, argv, rc, out):
        i, j = pairs[k]
        return (rc == 0
                and workloads.product_ok(out, n, classes[i], classes[j])
                and ref[i][8 * j:8 * j + 8] == workloads.short_digest(out))

    return cold, warm, check_cold, check_warm


def _table(seed: int, rnd: int):
    argv = ["table", "--n", str(workloads.TABLE_N), "--workers", "1"]

    def check(k, argv, rc, out):
        return rc == 0 and hashlib.sha256(out.encode()).hexdigest() == workloads.TABLE_SHA256

    return [argv], [argv] * workloads.TABLE_WARM, check, check


def _verify(seed: int, rnd: int):
    cold, warm = workloads.verify_requests()

    def check(k, argv, rc, out):
        return workloads.verify_ok(argv, rc, out)

    return cold, warm, check, check


WORKLOADS = {"pieri": _pieri, "table": _table, "verify": _verify}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["setup"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    if args.cache_dir:
        os.environ["SCHUBERT_CACHE_DIR"] = args.cache_dir
    _pin(args.round)
    if args.workload == "setup":
        return _setup()
    from lgschubert import cli  # noqa: F401  (imports every layer)

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr, _measures())
    cold, warm, check_cold, check_warm = WORKLOADS[args.workload](args.seed, args.round)

    cold_lat, warm_lat, cold_out, warm_out = [], [], [], []
    suite_s: dict[str, float] = {}
    calibration = [workloads.calibrate()]
    _timed(cold, cold_lat, cold_out, calibration)
    _timed(warm, warm_lat, warm_out, calibration)
    scaled = workloads.scaled(cold_lat + warm_lat, calibration)
    cold_ref = sum(scaled[:len(cold_lat)])
    warm_ref = sum(scaled[len(cold_lat):])

    failed = sum(not _passes(check_cold, k, o) for k, o in enumerate(cold_out))
    failed += sum(not _passes(check_warm, k, o) for k, o in enumerate(warm_out))
    if args.workload == "verify":
        for lat, (argv, _, _) in zip(cold_lat + warm_lat, cold_out + warm_out):
            suite_s[argv[1]] = lat

    result = {
        "wall_s": sum(cold_lat) + sum(warm_lat),
        "cold_s": sum(cold_lat),
        "reference": {"wall_s": cold_ref + warm_ref, "cold_s": cold_ref,
                      "warm_per_s": len(warm_lat) / warm_ref},
        "calibration_s": calibration,
        "warm_latencies_s": warm_lat,
        "attempted": len(cold_out) + len(warm_out),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "memo": tracer.memo_counters(),
        "suites_s": suite_s,
    }
    if tr is not None:
        result["trace"] = tr.summary()
        result["trace"]["counters"] = dict(tr.counters)
        result["trace"]["spans"] = len(tr.name)
        if args.spans:
            tr.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
