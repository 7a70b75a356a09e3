"""Command-line front end: products, invariant queries, verification
suites, and multiplication-table generation with a persistent cache.

Partitions on the command line are comma-separated parts; "" and "0" both
denote the empty partition.  Exit codes: 0 success, 1 verification failure,
2 usage error (an OSError, such as an unwritable ``--out``, included), 3
internal error (any other exception, reported on stderr).
The table cache header carries ``code_fingerprint()``, so a cache written by
other code is never served; a cache that cannot be read is recomputed, and
one that cannot be written is reported on stderr without failing ``table``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import cache, partial
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import quantum
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
    cls = ENGINES[args.engine](lam, mu, args.n)
    if args.ring == "classical":  # H* is QH* at q = 0
        coeffs = {nu: c for (nu, d), c in cls.items() if d == 0}
        if args.json:
            out = {partition_to_str(k): v for k, v in sorted(coeffs.items(), reverse=True)}
            print(json.dumps(out))
        else:
            print(_format_classical(coeffs))
    elif args.json:
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
        "failures": failures,
    }
    print(json.dumps(report, indent=2))
    return 0 if not failures else 1


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


def load_cache(n: int) -> dict:
    """Read the cache file as {(lam, mu): product}, each product in
    ``quantum_to_json`` form as stored.  The file is ignored whole on a
    header mismatch (format, n, engine or code fingerprint), on a body that
    does not parse (a record nested too deep for ``json`` included), or on
    one record no engine could have produced.  A record passes when lambda
    and mu are index strings of D_n in ``partition_to_str`` form, and each
    product term "nu|d" has nu in that form, 0 <= d <= len(mu),
    |lam| + |mu| = |nu| + d(n+1), and a positive integer coefficient; both
    are lookups in maps built once per call.  A cache that cannot be read
    (missing, or a directory in its place) is no cache."""
    try:
        header, *lines = _cache_path(n, TABLE_ENGINE).read_text().splitlines()
        if json.loads(header) != _cache_header(n):
            return {}
        records = json.loads("[" + ",".join(lines) + "]")
        index = {partition_to_str(nu): nu for nu in all_strict_upto(n)}
        terms = {f"{s}|{d}": (sum(nu) + d * (n + 1), d)
                 for s, nu in index.items() for d in range(n + 1)}
        out = {}
        for rec in records:
            lam, mu, product = index[rec["lambda"]], index[rec["mu"]], rec["product"]
            w = sum(lam) + sum(mu)
            for key, c in product.items():
                weight, d = terms[key]
                if weight != w or d > len(mu) or type(c) is not int or c <= 0:
                    return {}
            out[(lam, mu)] = product
        return out
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError):
        return {}


def _cache_header(n: int) -> dict:
    return {"format": CACHE_FORMAT, "n": n, "engine": TABLE_ENGINE, "code": code_fingerprint()}


def save_cache(n: int, engine: str, table: dict) -> None:
    """Rewrite the cache file atomically, records in ``_record_pairs`` order
    for stable diffs; ``table`` maps every pair of D_n to its product in
    ``quantum_to_json`` form.
    ``engine`` is always TABLE_ENGINE; it stays a parameter, as in
    ``_cache_path``, because the benchmark's trace counters (bench/child.py)
    read the (n, engine, table) arguments of this call."""
    path = _cache_path(n, engine)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(_cache_header(n))]
    for lam, mu in _record_pairs(n):
        record = {"lambda": partition_to_str(lam), "mu": partition_to_str(mu),
                  "product": table[(lam, mu)]}
        lines.append(json.dumps(record, sort_keys=True))
    tmp = path.with_suffix(".tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _record_pairs(n: int) -> list:
    """Every pair of D_n, by |lam|, then |mu|, then each in descending lex
    order, the order in which ``all_strict_upto`` lists one weight."""
    by_weight = [list(g) for _, g in groupby(all_strict_upto(n), key=sum)]
    return [(l, m) for ls in by_weight for ms in by_weight for l in ls for m in ms]


def _render_json(n: int, entries) -> str:
    """The table as ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``
    writes it, from f-strings and the C string encoder ``json.dumps`` uses:
    any ``indent`` makes ``json`` fall back to its pure-Python encoder.
    tests/test_cli.py pins the layout to that call."""
    cells = []
    for lam, mu, product in entries:
        body = ",\n".join([f"        {_quote(k)}: {product[k]}" for k in sorted(product)])
        block = f"{{\n{body}\n      }}" if body else "{}"
        cells.append(f'    {{\n      "lambda": {_quote(lam)},\n      "mu": {_quote(mu)},'
                     f'\n      "product": {block}\n    }}')
    listing = ",\n".join(cells)
    return (f'{{\n  "engine": {_quote(TABLE_ENGINE)},\n  "entries": [\n{listing}\n  ],\n'
            f'  "format": {CACHE_FORMAT},\n  "n": {n},\n  "ring": "quantum"\n}}\n')


def cmd_table(args) -> int:
    """Print every product of D_n x D_n, in ``_record_pairs`` order.  Cells
    come from ``load_cache`` as stored; missing ones are computed, turned
    once into ``quantum_to_json`` form and saved; a cache that cannot be
    written costs a warning on stderr, not the table.  JSON is written by
    ``_render_json``, whose layout the tests fix; TSV lists each product's
    terms in ``quantum_to_json`` order, by q-degree and then index."""
    out_path = Path(args.out) if args.out else None
    if out_path:
        # fail on an unwritable path before computing; append mode keeps an
        # existing file intact until the table replaces it
        out_path.open("a").close()
    classes = all_strict_upto(args.n)
    table = load_cache(args.n)
    pending = [(lam, mu) for lam in classes for mu in classes if (lam, mu) not in table]
    engine = ENGINES[TABLE_ENGINE]
    for lam, mu in pending:
        table[(lam, mu)] = quantum_to_json(engine(lam, mu, args.n))
    if pending:
        try:
            save_cache(args.n, TABLE_ENGINE, table)
        except OSError as exc:
            print(f"warning: table cache not saved: {exc}", file=sys.stderr)

    names = {nu: partition_to_str(nu) for nu in classes}
    entries = [(names[l], names[m], table[(l, m)]) for l, m in _record_pairs(args.n)]
    if args.format == "json":
        payload = _render_json(args.n, entries)
    else:
        rows = ["lambda\tmu\tproduct"]
        for l, m, p in entries:
            prod = ";".join(f"{k}={v}" for k, v in quantum_to_json(quantum_from_json(p)).items())
            rows.append(f"{l}\t{m}\t{prod}")
        payload = "\n".join(rows) + "\n"

    if out_path:
        out_path.write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _bounded_int(low: int, text: str) -> int:
    """Argument type, with ``low`` bound by ``partial``, for an integer >= low:
    1 for ranks, variable counts and sample sizes, 0 for the sweep bounds
    --wmax and --pmax."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it
    (parsing leaves no state in it).  Built lazily, not at import, so that
    importing the package stays cheap and each ``func`` default is the
    ``cmd_*`` binding current at the first ``main`` call."""
    positive, nonnegative = partial(_bounded_int, 1), partial(_bounded_int, 0)
    parser = argparse.ArgumentParser(
        prog="lgschubert",
        description="Exact Schubert calculus on the Lagrangian Grassmannian LG(n, 2n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="expand a product of two Schubert classes")
    p.add_argument("--ring", choices=("classical", "quantum"), default="quantum")
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--engine", choices=tuple(ENGINES), default="pieri")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("gw", help="three-point genus-zero invariant")
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--n", type=positive, default=4)
    p.add_argument("--m", type=positive, default=5)
    p.add_argument("--wmax", type=nonnegative, default=None)
    p.add_argument("--pmax", type=nonnegative, default=12)
    p.add_argument("--sample", type=positive, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SAMPLE_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="full quantum multiplication table for D_n x D_n")
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    # accepted for compatibility and ignored: cells are computed in order
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
