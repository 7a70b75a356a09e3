"""Exhaustive verification sweeps shared by the CLI and the acceptance tests.

Every suite returns a list of failure records (dicts with a witness); an
empty list means the sweep passed, and a sweep that checked no case returns
one record saying so.  Sweeps cover all ranks or variable counts up to the
given bound, matching the exhaustive ranges the engine is expected to
satisfy at desk scale.
"""

from __future__ import annotations

import random

from . import classical, quantum
from .partitions import all_strict_upto, dual, enumerate_partitions
from .polyring import check_var_limit
from .qtilde import VerificationError, f_constant, property_cases, property_check
from .symplectic import (
    dawson,
    verify_cprime_expansion,
    verify_extension_formula,
    verify_lem2,
    verify_pfaffian_identity_double_prime,
    verify_pfaffian_identity_prime,
)

DEFAULT_SAMPLE_SEED = 20030503
NO_CASES = "no cases checked"


def _sweep(suite: str, cases, check) -> list[dict]:
    """Failure records of ``check(**case)`` over ``cases``, dicts of named
    witnesses: one per case that fails or raises VerificationError, or a
    single record when no case was checked, so an empty sweep never passes."""
    failures, checked = [], 0
    for case in cases:
        checked += 1
        try:
            if not check(**case):
                failures.append({"suite": suite, **case})
        except VerificationError as exc:
            failures.append({"suite": suite, **case, "error": str(exc)})
    return failures if checked else [{"suite": suite, "error": NO_CASES}]


def _strict_cases(lo: int, m: int, key: str, keep=lambda lam: True):
    """Cases {"lam": lam, key: mm} for lam in D_mm, lo <= mm <= m."""
    return ({"lam": lam, key: mm} for mm in range(lo, m + 1) for lam in all_strict_upto(mm)
            if keep(lam))


def suite_qtilde_properties(m: int, wmax: int = 10) -> list[dict]:
    """Defining properties of the basis for every variable count up to m;
    with wmax >= 0 each count checks at least the empty partition."""
    return _sweep("qtilde-properties", (case for mm in range(1, m + 1)
                                        for case in property_cases(mm, wmax)), property_check)


def suite_extension(m: int, wmax: int | None = None) -> list[dict]:
    """One-variable peeling identity over all partitions with parts <= m."""
    check_var_limit(m)
    return _sweep("extension", (
        {"lam": lam, "m": mm}
        for mm in range(1, m + 1)
        for w in range((wmax if wmax is not None else 2 * mm) + 1)
        for lam in enumerate_partitions(w, mm)), verify_extension_formula)


def suite_pfaffian_prime(m: int) -> list[dict]:
    check_var_limit(m)
    return _sweep("pfaffian-prime", _strict_cases(3, m, "m", lambda lam: len(lam) >= 3),
                  verify_pfaffian_identity_prime)


def suite_pfaffian_double_prime(m: int) -> list[dict]:
    check_var_limit(m)
    return _sweep("pfaffian-double-prime",
                  _strict_cases(4, m, "m", lambda lam: len(lam) >= 4 and len(lam) % 2 == 0),
                  verify_pfaffian_identity_double_prime)


def suite_lem2(m: int) -> list[dict]:
    check_var_limit(m)
    return _sweep("lem2", _strict_cases(2, m, "m", lambda lam: lam and len(lam) % 2 == 0),
                  verify_lem2)


def suite_cprime_expansion(m: int) -> list[dict]:
    check_var_limit(m)
    return _sweep("cprime-expansion", _strict_cases(1, m, "m", bool), verify_cprime_expansion)


def suite_dawson(pmax: int = 12) -> list[dict]:
    return _sweep("dawson", ({"p": p, "q": q} for p in range(pmax + 1)
                             for q in range(-p - 2, p + 3)), dawson)


def suite_giambelli_classical(n: int) -> list[dict]:
    return _sweep("giambelli-classical", _strict_cases(3, n, "n", lambda lam: len(lam) >= 3),
                  classical.giambelli_check)


def suite_duality(n: int) -> list[dict]:
    """Poincare pairing, the degree-0 invariant of lam, mu and the unit, is
    the complement indicator in top degree."""
    return _sweep("duality", (
        {"lam": lam, "mu": mu, "n": nn}
        for nn in range(1, n + 1)
        for lam in all_strict_upto(nn)
        for mu in all_strict_upto(nn)
        if sum(lam) + sum(mu) == nn * (nn + 1) // 2),
        lambda lam, mu, n: quantum.gw(lam, mu, (), 0, n) == int(mu == dual(lam, n)))


def suite_relations(n: int) -> list[dict]:
    return _sweep("relations", ({"i": i, "n": nn} for nn in range(1, n + 1)
                                for i in range(1, nn + 1)), quantum.relation_check)


def suite_pieri_operators(n: int) -> list[dict]:
    """Route B's Pieri operators on every class of D_nn, nn <= n: sigma_i
    and sigma_j commute (i < j), and the i-th presentation relation holds
    as an operator identity (i = j)."""
    return _sweep("pieri-operators", ({"lam": lam, "i": i, "j": j, "n": nn}
                                      for nn in range(1, n + 1)
                                      for lam in all_strict_upto(nn)
                                      for j in range(1, nn + 1)
                                      for i in range(1, j + 1)),
                  quantum.pieri_operator_check)


def _engine_pairs(n: int, sample: int | None, seed: int):
    classes = all_strict_upto(n)
    pairs = [(lam, mu) for lam in classes for mu in classes]
    if sample is not None and sample < len(pairs):
        pairs = random.Random(seed).sample(pairs, sample)
    return pairs


def suite_engines_agree(
    n: int, sample: int | None = None, seed: int = DEFAULT_SAMPLE_SEED
) -> list[dict]:
    """The three multiplication engines agree; exhaustive through rank 4,
    sampled pairs (default 200 per rank) beyond."""
    return _sweep("engines-agree", (
        {"lam": lam, "mu": mu, "n": nn}
        for nn in range(1, n + 1)
        for lam, mu in _engine_pairs(
            nn, (sample if sample is not None else 200) if nn > 4 else None, seed + nn)),
        lambda lam, mu, n: (quantum.qprod_constants(lam, mu, n) == quantum.qprod_quotient(lam, mu, n)
                            == quantum.qprod_pieri(lam, mu, n)))


def _triples(n: int, degrees):
    """Cases (lam, mu, nu, d, nn) of D_nn, nn <= n, whose weights fit a
    degree-d invariant for d in ``degrees`` (increasing), in the order of
    the cube lam, mu, nu over ``all_strict_upto(nn)``.  Each rank's classes
    are grouped by weight once, in that order, and nu is taken from the
    weight that fits each d and from nothing else."""
    for nn in range(1, n + 1):
        top = nn * (nn + 1) // 2
        groups = [enumerate_partitions(w, nn, strict=True) for w in range(top + 1)]
        classes = [(lam, w) for w, group in enumerate(groups) for lam in group]
        for lam, a in classes:
            for mu, b in classes:
                for d in degrees:
                    w = top + d * (nn + 1) - a - b
                    if w > top:
                        break
                    if w >= 0:
                        for nu in groups[w]:
                            yield lam, mu, nu, d, nn


def _admissible_triples(n: int):
    """Cases (lam, mu, nu, d) of D_nn whose weights fit a degree-d invariant
    (d <= n, since the weights of lam and mu sum to at most n(n + 1))."""
    return ({"lam": lam, "mu": mu, "nu": nu, "d": d, "n": nn}
            for lam, mu, nu, d, nn in _triples(n, range(n + 1)))


def suite_eightfold(n: int) -> list[dict]:
    """Power-of-two symmetry of the invariants, plus vanishing beyond the
    length of the first index."""
    return _sweep("eightfold", _admissible_triples(n), quantum.eightfold_check)


def suite_vanishing(n: int) -> list[dict]:
    """Every nonzero invariant sits inside the two inequality windows."""
    return _sweep("vanishing", _admissible_triples(n), lambda lam, mu, nu, d, n: (
        not quantum.gw(lam, mu, nu, d, n) or quantum.vanishing_bounds(lam, mu, nu, d, n)))


def _pairs_by_mu(lo: int, n: int, keep):
    """Cases (lam, mu) of D_nn, lo <= nn <= n, mu filtered by keep, mu outer."""
    for nn in range(lo, n + 1):
        classes = all_strict_upto(nn)
        for mu in classes:
            if keep(mu):
                for lam in classes:
                    yield {"lam": lam, "mu": mu, "n": nn}


def suite_qlr(n: int) -> list[dict]:
    return _sweep("qlr", _pairs_by_mu(2, n, lambda mu: len(mu) in (2, 3)), quantum.qlr_check)


def suite_fform(n: int) -> list[dict]:
    return _sweep("fform", _pairs_by_mu(1, n, bool), quantum.fform_check)


def suite_rho(n: int) -> list[dict]:
    return _sweep("rho", _strict_cases(1, n, "n"), quantum.rho_product)


def suite_lines(n: int) -> list[dict]:
    """Degree-one invariants against triple intersection numbers one rank up."""
    return _sweep("lines", ({"lam": lam, "mu": mu, "nu": nu, "n": nn}
                            for lam, mu, nu, _, nn in _triples(n, (1,))),
                  classical.line_count_check)


def suite_sigma_ij(n: int) -> list[dict]:
    return _sweep("sigma-ij", ({"i": i, "j": j, "n": nn}
                               for nn in range(1, n + 1)
                               for i in range(1, nn + 1)
                               for j in range(1, i + 1) if i + j >= nn + 1),
                  quantum.sigma_ij_product_check)


def suite_pieri_oracle(wmax: int = 10) -> list[dict]:
    """Route B's Pieri rows (``quantum.pieri_row_check``) against the
    polynomial product, for every strict lam of weight <= wmax,
    0 <= k <= 6, and every rank n from max(lam_1, k, 1) to lam_1 + k, the
    top rank holding the full uncapped Pieri rule."""
    return _sweep("pieri-oracle", (
        {"lam": lam, "k": k, "n": n}
        for w in range(wmax + 1)
        for lam in enumerate_partitions(w, w, strict=True)
        for k in range(7)
        for n in range(max(lam[:1] + (k, 1)), sum(lam[:1]) + k + 1)),
        quantum.pieri_row_check)


def suite_stembridge(total_max: int = 12) -> list[dict]:
    """Rescaled constants of strict pairs are nonnegative integers on every
    strict expansion index."""
    strict = [lam for w in range(total_max + 1) for lam in enumerate_partitions(w, w, strict=True)]
    return _sweep("stembridge", (
        {"lam": lam, "mu": mu, "nu": nu}
        for lam in strict
        for mu in strict
        if sum(lam) + sum(mu) <= total_max
        for nu in enumerate_partitions(sum(lam) + sum(mu), sum(lam) + sum(mu), strict=True)),
        lambda lam, mu, nu: f_constant(lam, mu, nu) >= 0)


SUITES = {
    "qtilde-properties": lambda args: suite_qtilde_properties(
        args.m, 10 if args.wmax is None else args.wmax),
    "extension": lambda args: suite_extension(args.m, args.wmax),
    "pfaffian-prime": lambda args: suite_pfaffian_prime(args.m),
    "pfaffian-double-prime": lambda args: suite_pfaffian_double_prime(args.m),
    "cprime-expansion": lambda args: suite_cprime_expansion(args.m),
    "lem2": lambda args: suite_lem2(args.m),
    "dawson": lambda args: suite_dawson(args.pmax),
    "giambelli-classical": lambda args: suite_giambelli_classical(args.n),
    "duality": lambda args: suite_duality(args.n),
    "relations": lambda args: suite_relations(args.n),
    "pieri-operators": lambda args: suite_pieri_operators(args.n),
    "engines-agree": lambda args: suite_engines_agree(args.n, args.sample, args.seed),
    "eightfold": lambda args: suite_eightfold(args.n),
    "vanishing": lambda args: suite_vanishing(args.n),
    "qlr": lambda args: suite_qlr(args.n),
    "fform": lambda args: suite_fform(args.n),
    "rho": lambda args: suite_rho(args.n),
    "lines": lambda args: suite_lines(args.n),
    "sigma-ij": lambda args: suite_sigma_ij(args.n),
    "pieri-oracle": lambda args: suite_pieri_oracle(10 if args.wmax is None else args.wmax),
    "stembridge": lambda args: suite_stembridge(12 if args.wmax is None else args.wmax),
}
