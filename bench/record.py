"""Record the reference outputs that bench/run.py checks every run against.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/record.py

It writes bench/ref/pieri_n7.json: for every pair (lambda, mu) in D_7 x D_7,
the first 8 hex digits of the sha256 of the exact stdout of
``lgschubert product --engine pieri --json --n 7 --lambda L --mu M``.
Rows follow ``all_strict_upto(7)`` for lambda, columns the same order for mu.

Before writing anything it confirms what a second route can afford:
the staircase squares sigma_rho^2 = q^n for n <= 7 by the pieri engine and,
for n <= 5, by the quotient engine; and the benchmark's table (constants
engine, n = ``TABLE_N``, sha256 ``TABLE_SHA256`` in bench/workloads.py) cell
by cell against the pieri engine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

REF_N = workloads.PIERI_N


def _pieri_row(lam_index: int) -> str:
    from lgschubert.partitions import all_strict_upto

    classes = all_strict_upto(REF_N)
    lam = classes[lam_index]
    digests = []
    for mu in classes:
        _, out = workloads.call(workloads.product_argv(REF_N, lam, mu))
        digests.append(workloads.short_digest(out))
    return "".join(digests)


def confirm_staircase() -> None:
    from lgschubert.partitions import rho
    from lgschubert.quantum import qprod_quotient

    for n in range(1, REF_N + 1):
        r = rho(n)
        rc, out = workloads.call(workloads.product_argv(n, r, r))
        if rc != 0 or not workloads.staircase_ok(out, n):
            raise SystemExit(f"staircase square wrong at n={n}: {out!r}")
        if n <= 5 and qprod_quotient(r, r, n) != {((), n): 1}:
            raise SystemExit(f"quotient engine disagrees on the staircase at n={n}")


def confirm_table(tmp: Path) -> None:
    from lgschubert.quantum import qprod_pieri, quantum_from_json

    n = workloads.TABLE_N
    os.environ["SCHUBERT_CACHE_DIR"] = str(tmp)
    rc, out = workloads.call(["table", "--n", str(n)])
    if rc != 0 or hashlib.sha256(out.encode()).hexdigest() != workloads.TABLE_SHA256:
        raise SystemExit(f"table --n {n} does not match its recorded sha256")
    for entry in json.loads(out)["entries"]:
        lam = tuple(int(x) for x in entry["lambda"].split(",") if x)
        mu = tuple(int(x) for x in entry["mu"].split(",") if x)
        if qprod_pieri(lam, mu, n) != quantum_from_json(entry["product"]):
            raise SystemExit(f"table cell {lam} x {mu} disagrees with the pieri engine")


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()

    confirm_staircase()
    with tempfile.TemporaryDirectory(dir=ROOT / "bench") as tmp:
        confirm_table(Path(tmp))

    from lgschubert.partitions import all_strict_upto

    count = len(all_strict_upto(REF_N))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count() or 1) as pool:
        rows = pool.map(_pieri_row, range(count), chunksize=1)
    ref = {
        "n": REF_N,
        "engine": "pieri",
        "order": "all_strict_upto",
        "digest": "sha256(stdout)[:8]",
        "rows": rows,
    }
    out = ROOT / "bench" / "ref" / f"pieri_n{REF_N}.json"
    out.write_text(json.dumps(ref, indent=0) + "\n")
    print(f"wrote {out.relative_to(ROOT)}: {count} x {count} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
