"""Command-line front end: products, invariant queries, verification
suites, and multiplication-table generation with a persistent cache.

Partitions on the command line are comma-separated parts; "" and "0" both
denote the empty partition.  Exit codes: 0 success, 1 verification failure,
2 usage error (an OSError, such as an unwritable ``--out``, included), 3
internal error (any other exception, reported on stderr).
The table cache header carries ``code_fingerprint()``, so a cache written by
other code is never served.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import quantum
from .classical import classical_product
from .partitions import all_strict_upto, partition_from_str, partition_to_str
from .quantum import quantum_from_json, quantum_to_json
from .suites import DEFAULT_SAMPLE_SEED, SUITES

CACHE_FORMAT = 1
TABLE_ENGINE = "constants"  # the engine behind ``table`` and its cache
ENGINES = {
    "constants": quantum.qprod_constants,
    "quotient": quantum.qprod_quotient,
    "pieri": quantum.qprod_pieri,
}


def _format_classical(coeffs) -> str:
    if not coeffs:
        return "0"
    bits = []
    for lam in sorted(coeffs, reverse=True):
        c = coeffs[lam]
        name = f"s[{partition_to_str(lam)}]"
        bits.append(name if c == 1 else f"{c}*{name}")
    return " + ".join(bits)


def _format_quantum(cls) -> str:
    if not cls:
        return "0"
    bits = []
    for (lam, d), c in sorted(cls.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        factors = []
        if c != 1 or (not lam and d == 0):
            factors.append(str(c))
        if lam:
            factors.append(f"s[{partition_to_str(lam)}]")
        if d == 1:
            factors.append("q")
        elif d > 1:
            factors.append(f"q^{d}")
        bits.append("*".join(factors) if factors else "1")
    return " + ".join(bits)


def cmd_product(args) -> int:
    lam = partition_from_str(args.lam)
    mu = partition_from_str(args.mu)
    if args.ring == "classical":
        coeffs = classical_product(lam, mu, args.n)
        if args.json:
            out = {partition_to_str(k): v for k, v in sorted(coeffs.items(), reverse=True)}
            print(json.dumps(out))
        else:
            print(_format_classical(coeffs))
    else:
        cls = ENGINES[args.engine](lam, mu, args.n)
        if args.json:
            print(json.dumps(quantum_to_json(cls)))
        else:
            print(_format_quantum(cls))
    return 0


def cmd_gw(args) -> int:
    lam, mu, nu = (partition_from_str(t) for t in (args.lam, args.mu, args.nu))
    value = quantum.gw(lam, mu, nu, args.d, args.n)
    permitted = quantum.vanishing_bounds(lam, mu, nu, args.d, args.n)
    if args.json:
        print(json.dumps({"value": value, "within_bounds": permitted}))
    else:
        note = "within bounds" if permitted else "outside bounds (must vanish)"
        print(f"{value}  [{note}]")
    return 0


def cmd_verify(args) -> int:
    runner = SUITES[args.suite]
    failures = runner(args)
    report = {
        "suite": args.suite,
        "params": {
            k: v
            for k, v in vars(args).items()
            if k in ("n", "m", "wmax", "pmax", "sample", "seed") and v is not None
        },
        "pass": not failures,
        "failures": [_jsonable(f) for f in failures],
    }
    print(json.dumps(report, indent=2))
    return 0 if not failures else 1


def _jsonable(record):
    out = {}
    for k, v in record.items():
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


def cache_dir() -> Path:
    env = os.environ.get("SCHUBERT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "lgschubert"


@cache
def code_fingerprint() -> str:
    """Short sha256 of the package's Python sources, read on first use."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cache_path(n: int, engine: str) -> Path:
    return cache_dir() / f"table-n{n}-{engine}.jsonl"


def _valid_record(lam, mu, product: dict, n: int, weight: dict) -> bool:
    """A cached product the engines could have computed: every index in D_n
    (the keys of ``weight``, which maps each to its size), 0 <= d <= len(mu),
    |lam| + |mu| = |nu| + d(n+1), and positive integer coefficients."""
    if lam not in weight or mu not in weight:
        return False
    w = weight[lam] + weight[mu]
    for (nu, d), c in product.items():
        if not (weight.get(nu) == w - d * (n + 1) and 0 <= d <= len(mu)
                and type(c) is int and c > 0):
            return False
    return True


def load_cache(n: int) -> dict:
    """Read the cache file; a header mismatch (format, n, engine or code
    fingerprint), or a record of the wrong shape or that fails
    ``_valid_record``, means it is ignored whole."""
    path = _cache_path(n, TABLE_ENGINE)
    if not path.exists():
        return {}
    try:
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        if header != _cache_header(n):
            return {}
        weight = {nu: sum(nu) for nu in all_strict_upto(n)}
        out = {}
        for line in lines[1:]:
            rec = json.loads(line)
            lam, mu = partition_from_str(rec["lambda"]), partition_from_str(rec["mu"])
            product = quantum_from_json(rec["product"])
            if not _valid_record(lam, mu, product, n, weight):
                return {}
            out[(lam, mu)] = product
        return out
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return {}


def _cache_header(n: int) -> dict:
    return {"format": CACHE_FORMAT, "n": n, "engine": TABLE_ENGINE, "code": code_fingerprint()}


def save_cache(n: int, engine: str, table: dict) -> None:
    """Rewrite the cache file atomically, records sorted for stable diffs.
    ``engine`` is always TABLE_ENGINE; it stays a parameter, as in
    ``_cache_path``, because the benchmark's trace counters (bench/child.py)
    read the (n, engine, table) arguments of this call."""
    path = _cache_path(n, engine)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(_cache_header(n))]
    for lam, mu in sorted(table, key=_record_order):
        lines.append(
            json.dumps(
                {
                    "lambda": partition_to_str(lam),
                    "mu": partition_to_str(mu),
                    "product": quantum_to_json(table[(lam, mu)]),
                },
                sort_keys=True,
            )
        )
    tmp = path.with_suffix(".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)


def _record_order(key):
    lam, mu = key
    return (sum(lam), sum(mu), tuple(-x for x in lam), tuple(-x for x in mu))


def cmd_table(args) -> int:
    classes = all_strict_upto(args.n)
    table = load_cache(args.n)
    pending = [(lam, mu) for lam in classes for mu in classes if (lam, mu) not in table]
    for lam, mu in pending:
        table[(lam, mu)] = quantum.qprod_constants(lam, mu, args.n)
    if pending:
        save_cache(args.n, TABLE_ENGINE, table)

    entries = []
    for lam, mu in sorted(((l, m) for l in classes for m in classes), key=_record_order):
        entries.append((lam, mu, quantum_to_json(table[(lam, mu)])))

    out_path = Path(args.out) if args.out else None
    if args.format == "json":
        payload = json.dumps(
            {
                "format": CACHE_FORMAT,
                "ring": "quantum",
                "n": args.n,
                "engine": TABLE_ENGINE,
                "entries": [
                    {"lambda": partition_to_str(l), "mu": partition_to_str(m), "product": p}
                    for l, m, p in entries
                ],
            },
            sort_keys=True,
            indent=2,
        ) + "\n"
    else:
        rows = ["lambda\tmu\tproduct"]
        for l, m, p in entries:
            prod = ";".join(f"{k}={v}" for k, v in p.items())
            rows.append(f"{partition_to_str(l)}\t{partition_to_str(m)}\t{prod}")
        payload = "\n".join(rows) + "\n"

    if out_path:
        out_path.write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _positive_int(text: str) -> int:
    """Argument type for ranks and variable counts, which must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgschubert",
        description="Exact Schubert calculus on the Lagrangian Grassmannian LG(n, 2n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="expand a product of two Schubert classes")
    p.add_argument("--ring", choices=("classical", "quantum"), default="quantum")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--engine", choices=tuple(ENGINES), default="pieri")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("gw", help="three-point genus-zero invariant")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--n", type=_positive_int, default=4)
    p.add_argument("--m", type=_positive_int, default=5)
    p.add_argument("--wmax", type=int, default=None)
    p.add_argument("--pmax", type=int, default=12)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SAMPLE_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="full quantum multiplication table for D_n x D_n")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    # accepted for compatibility and ignored: cells are computed in order
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
