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
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import NamedTuple

from . import quantum
from .partitions import all_strict_upto, partition_from_str, partition_to_str
from .quantum import json_key_class, quantum_to_json
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
    """$SCHUBERT_CACHE_DIR, else ~/.cache/lgschubert.  With no home
    directory to be found, an OSError: a cache that cannot be read or
    written, not an internal error."""
    env = os.environ.get("SCHUBERT_CACHE_DIR")
    if env:
        return Path(env)
    try:
        home = Path.home()
    except RuntimeError as exc:
        raise OSError(str(exc)) from exc
    return home / ".cache" / "lgschubert"


@cache
def code_fingerprint() -> str:
    """Short sha256 of the package's Python sources, read on first use."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cache_path(n: int, engine: str) -> Path:
    return cache_dir() / f"table-n{n}-{engine}.jsonl"


class _Layout(NamedTuple):
    """What a table of D_n x D_n fixes before any product is known: tuples
    with one entry per cell, in ``_layout`` order."""

    pairs: tuple  # (lam, mu)
    names: tuple  # (lam, mu) as index strings
    keys: tuple  # frozenset of the product keys "nu|d" the cell may hold
    heads: tuple  # the JSON text from the previous cell's product to this one's


@cache
def _layout(n: int) -> _Layout:
    """The cells of D_n x D_n, by |lam|, then |mu|, then each in descending
    lex order, the order in which ``all_strict_upto`` lists one weight.
    A cell may hold the keys "nu|d" with nu in D_n, 0 <= d <= len(mu) and
    |lam| + |mu| = |nu| + d(n+1); that set depends on |lam| + |mu| and
    len(mu) alone, so it is built once for each of those and shared."""
    classes = all_strict_upto(n)
    groups = [(w, list(g)) for w, g in groupby(classes, key=sum)]
    index = {nu: partition_to_str(nu) for nu in classes}
    quoted = {nu: _quote(s) for nu, s in index.items()}
    index_at = {w: [index[nu] for nu in g] for w, g in groups}
    key_sets = {}
    for w in range(n * (n + 1) + 1):
        terms = []
        for d in range(n + 1):
            terms += [f"{s}|{d}" for s in index_at.get(w - d * (n + 1), ())]
            key_sets[w, d] = frozenset(terms)
    pairs, names, keys, heads = [], [], [], []
    head = '{\n  "engine": ' + _quote(TABLE_ENGINE) + ',\n  "entries": [\n'
    for a, ls in groups:
        for b, ms in groups:
            for lam in ls:
                for mu in ms:
                    pairs.append((lam, mu))
                    names.append((index[lam], index[mu]))
                    keys.append(key_sets[a + b, len(mu)])
                    heads.append(f'{head}    {{\n      "lambda": {quoted[lam]},'
                                 f'\n      "mu": {quoted[mu]},\n      "product": ')
                    head = "\n    },\n"
    return _Layout(tuple(pairs), tuple(names), tuple(keys), tuple(heads))


def load_cache(n: int) -> list:
    """The cached products of D_n x D_n in ``_layout`` order, each in
    ``quantum_to_json`` form as stored, or [] when the cache is ignored.
    The file is ignored whole on a header mismatch (format, n, engine or
    code fingerprint), on a body that does not parse (a record nested too
    deep for ``json`` included), on a record count other than |D_n|^2, or
    on one record no engine could have produced: one that is not an object,
    holds a key outside its cell's ``_layout`` key set, or a coefficient
    that is not a positive integer.  A cache that cannot be read (missing,
    or a directory in its place) is no cache."""
    layout = _layout(n)
    try:
        header, *lines = _cache_path(n, TABLE_ENGINE).read_text().splitlines()
        if json.loads(header) != _cache_header(n) or len(lines) != len(layout.keys):
            return []
        products = json.loads("[" + ",".join(lines) + "]")
    except (OSError, ValueError, RecursionError):
        return []
    if (len(products) == len(lines) and set(map(type, products)) == {dict}
            and all(map(frozenset.issuperset, layout.keys, products))):
        coefficients = [*chain.from_iterable(map(dict.values, products))]
        if set(map(type, coefficients)) <= {int} and min(coefficients, default=1) > 0:
            return products
    return []


def _cache_header(n: int) -> dict:
    return {"format": CACHE_FORMAT, "n": n, "engine": TABLE_ENGINE, "code": code_fingerprint()}


def save_cache(n: int, engine: str, table: list) -> None:
    """Rewrite the cache file atomically: the header, then each product of
    ``table`` (every cell of D_n x D_n in ``_layout`` order, in
    ``quantum_to_json`` form) on its own line with sorted keys.  A record
    holds no indices, as the header and the fingerprinted code fix the
    order.  ``engine`` is always TABLE_ENGINE; it stays a parameter, as in
    ``_cache_path``, because the benchmark's trace counters (bench/child.py)
    read the (n, engine, table) arguments of this call."""
    path = _cache_path(n, engine)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(_cache_header(n))]
    lines += [json.dumps(product, sort_keys=True) for product in table]
    tmp = path.with_suffix(".tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _render_json(n: int, products: list) -> str:
    """The table as ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``
    writes it: ``_layout``'s cell heads joined with the products.  One
    ``json.dumps`` call writes every product with sorted keys through the C
    encoder (any ``indent`` makes ``json`` fall back to its pure-Python
    one), and a string replace indents them, as a product key "nu|d" holds
    no space, quote or brace.  tests/test_cli.py pins the layout to that
    call."""
    bodies = json.dumps(products, sort_keys=True)[2:-2]
    blocks = [f"{{\n        {body}\n      }}" if body else "{}"
              for body in bodies.replace(', "', ',\n        "').split("}, {")]
    cells = "".join(chain.from_iterable(zip(_layout(n).heads, blocks)))
    return (f'{cells}\n    }}\n  ],\n  "format": {CACHE_FORMAT},\n  "n": {n},'
            f'\n  "ring": "quantum"\n}}\n')


def cmd_table(args) -> int:
    """Print every product of D_n x D_n, in ``_layout`` order.  A cache that
    ``load_cache`` accepts is served whole, as stored; otherwise every cell
    is computed, turned once into ``quantum_to_json`` form and saved, and a
    cache that cannot be written costs a warning on stderr, not the table.
    JSON is written by ``_render_json``, whose layout the tests fix; TSV
    lists each product's terms in ``quantum_to_json`` order, by q-degree
    and then index, sorting the stored keys on their parsed class."""
    out_path = Path(args.out) if args.out else None
    if out_path:
        # fail on an unwritable path before computing; append mode keeps an
        # existing file intact until the table replaces it
        out_path.open("a").close()
    layout = _layout(args.n)
    products = load_cache(args.n)
    if not products:
        engine = ENGINES[TABLE_ENGINE]
        products = [quantum_to_json(engine(lam, mu, args.n)) for lam, mu in layout.pairs]
        try:
            save_cache(args.n, TABLE_ENGINE, products)
        except OSError as exc:
            print(f"warning: table cache not saved: {exc}", file=sys.stderr)

    if args.format == "json":
        payload = _render_json(args.n, products)
    else:
        rows = ["lambda\tmu\tproduct"]
        for (l, m), p in zip(layout.names, products):
            prod = ";".join(f"{k}={p[k]}" for k in sorted(p, key=lambda s: json_key_class(s)[::-1]))
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
    --wmax and --pmax.  ASCII digits only: no sign, blank, underscore or
    other script's digits, all of which ``int`` reads."""
    value = int(text) if text.isascii() and text.isdigit() else low - 1
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
