"""Requests and output checks of the three benchmark workloads.

A round is the unit of work the benchmark repeats, each time in a fresh
interpreter.  It has two phases: a cold phase that starts with every memo
table empty, and a warm phase of requests that follow it in the same
interpreter.  Every request is one call of ``lgschubert.cli.main``.

* pieri:  cold = sigma_rho * sigma_rho for n = 1..7;
          warm = 128 seeded pairs from D_7 x D_7 (one matching, below).
* table:  cold = ``table --n 4`` with an empty cache directory;
          warm = ``TABLE_WARM`` more ``table --n 4`` that read that cache.
* verify: cold = the polynomial suites (XPoly, symplectic, extension);
          warm = the quantum-product suites, which reuse the product memos.

Round r of the pieri workload draws its pairs as a random matching of D_7
with itself: a seeded permutation of the lambdas against a seeded
permutation of the mus.  Each pair is uniform on D_7 x D_7, and each lambda
and each mu occurs once per round, so the heavy tail of long mu (many Pieri
steps) has the same share in every round, whatever the seed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import statistics
import time

PIERI_N = 7
# At n = 5 the cold table (10 s, 187 MB) swung by up to 1.5x, and its
# quartile spread across seeds reached 0.24.  That was measured before rounds
# were pinned to one CPU: the table computes on a worker thread, which could
# then run on another CPU than the calibration loop.  n = 4 runs the same
# code on 256 cells in a few tenths of a second, so a run holds some 25 cold
# tables rather than two or three.
TABLE_N = 4
TABLE_WARM = 40
# sha256 of the stdout of `table --n 4`, recorded at the commit that defined
# this benchmark and confirmed cell by cell against the pieri engine.
TABLE_SHA256 = "2ddcf88099450ff8936770a044305963e0561644f45aba6174c6fe0d54db735d"

# The calibration loop takes about CALIBRATION_REF_S on the reference host.
CALIBRATION_LOOPS = 50_000
CALIBRATION_REF_S = 0.01

VERIFY_COLD = (
    "extension --m 5",
    "cprime-expansion --m 6",
    "lem2 --m 6",
    "pfaffian-prime --m 6",
    "pfaffian-double-prime --m 6",
)
# engines-agree runs exhaustively through n = 4.  A 40-pair sample at n = 5
# cost 0.7 s to 8 s depending on its seed (the cost grows steeply with the
# largest |lambda| + |mu| drawn), and even a fixed sample swung as much as
# the n = 5 table.
VERIFY_WARM = (
    "engines-agree --n 4",
    "eightfold --n 4",
    "vanishing --n 4",
    "lines --n 4",
    "relations --n 6",
)


def calibrate() -> float:
    """Seconds a fixed loop of tuple-keyed dict updates takes: the host's speed
    at this moment, in the operations the engines spend their time on.

    The garbage collector is off during the loop: its tuples would otherwise
    trigger collections of the program's young objects inside it, and on a
    small heap about half of the loops took twice as long for that reason."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(CALIBRATION_LOOPS):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def scaled(latencies: list[float], calibration: list[float]) -> list[float]:
    """Latencies at reference host speed.  calibration[i] and [i + 1] were
    timed just before and just after request i; the request is scaled by the
    median of those two and the two on either side, which damps the jitter
    of single 10 ms loops.  A change of the CPU's speed in the middle of a
    long request is only partly caught; the median over rounds absorbs it."""
    return [lat * CALIBRATION_REF_S / statistics.median(calibration[max(0, i - 2):i + 4])
            for i, lat in enumerate(latencies)]


def call(argv: list[str]) -> tuple[int, str]:
    """Run one CLI request in-process; return its exit code and stdout."""
    from lgschubert import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _pstr(lam) -> str:
    return ",".join(str(x) for x in lam)


def product_argv(n: int, lam, mu) -> list[str]:
    return ["product", "--engine", "pieri", "--json", "--n", str(n),
            "--lambda", _pstr(lam), "--mu", _pstr(mu)]


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def staircase_ok(out: str, n: int) -> bool:
    """sigma_rho^2 = q^n in QH(LG(n, 2n))."""
    return json.loads(out) == {f"|{n}": 1}


def product_ok(out: str, n: int, lam, mu) -> bool:
    """Weight identity |lam| + |mu| = |nu| + d(n+1) and positive coefficients
    on every term of a quantum product."""
    total = sum(lam) + sum(mu)
    for key, c in json.loads(out).items():
        nu_s, d_s = key.rsplit("|", 1)
        nu = [int(x) for x in nu_s.split(",")] if nu_s else []
        if c <= 0 or sum(nu) + int(d_s) * (n + 1) != total:
            return False
    return True


def pieri_pairs(seed: int, rnd: int, size: int) -> list[tuple[int, int]]:
    """Index pairs (lambda, mu) of round ``rnd``: a seeded random matching."""
    rng = random.Random(f"pieri:{seed}:{rnd}")
    lams = list(range(size))
    mus = list(range(size))
    rng.shuffle(lams)
    rng.shuffle(mus)
    return list(zip(lams, mus))


def verify_requests() -> tuple[list[list[str]], list[list[str]]]:
    cold = [["verify"] + s.split() for s in VERIFY_COLD]
    warm = [["verify"] + s.split() for s in VERIFY_WARM]
    return cold, warm


def verify_ok(argv: list[str], rc: int, out: str) -> bool:
    if rc != 0:
        return False
    report = json.loads(out)
    return report.get("suite") == argv[1] and report.get("pass") is True
