"""Exhaustive verification sweeps shared by the CLI and the acceptance tests.

Every suite returns a list of failure records (dicts with a witness); an
empty list means the sweep passed.  Sweeps cover all ranks or variable
counts up to the given bound, matching the exhaustive ranges the engine is
expected to satisfy at desk scale.
"""

from __future__ import annotations

import random

from . import classical, quantum
from .partitions import all_strict_upto, dual, enumerate_partitions
from .polyring import EPoly
from .qtilde import (
    VerificationError,
    expand_in_basis,
    f_constant,
    pieri_strict,
    universal,
    verify_extension_formula,
    verify_qtilde_properties,
)
from .symplectic import (
    dawson,
    verify_cprime_expansion,
    verify_lem2,
    verify_pfaffian_identity_double_prime,
    verify_pfaffian_identity_prime,
)

DEFAULT_SAMPLE_SEED = 20030503


def suite_qtilde_properties(m: int, wmax: int = 10) -> list[dict]:
    """Defining properties of the basis for every variable count up to m."""
    failures = []
    for mm in range(1, m + 1):
        failures.extend(verify_qtilde_properties(mm, wmax))
    return failures


def suite_extension(m: int, wmax: int | None = None) -> list[dict]:
    """One-variable peeling identity over all partitions with parts <= m."""
    failures = []
    for mm in range(1, m + 1):
        bound = wmax if wmax is not None else 2 * mm
        for w in range(bound + 1):
            for lam in enumerate_partitions(w, mm):
                if not verify_extension_formula(lam, mm):
                    failures.append({"suite": "extension", "lam": lam, "m": mm})
    return failures


def suite_pfaffian_prime(m: int) -> list[dict]:
    failures = []
    for mm in range(3, m + 1):
        for lam in all_strict_upto(mm):
            if len(lam) >= 3 and not verify_pfaffian_identity_prime(lam, mm):
                failures.append({"suite": "pfaffian-prime", "lam": lam, "m": mm})
    return failures


def suite_pfaffian_double_prime(m: int) -> list[dict]:
    failures = []
    for mm in range(4, m + 1):
        for lam in all_strict_upto(mm):
            if len(lam) >= 4 and len(lam) % 2 == 0:
                if not verify_pfaffian_identity_double_prime(lam, mm):
                    failures.append({"suite": "pfaffian-double-prime", "lam": lam, "m": mm})
    return failures


def suite_lem2(m: int) -> list[dict]:
    failures = []
    for mm in range(2, m + 1):
        for lam in all_strict_upto(mm):
            if lam and len(lam) % 2 == 0:
                if not verify_lem2(lam, mm):
                    failures.append({"suite": "lem2", "lam": lam, "m": mm})
    return failures


def suite_cprime_expansion(m: int) -> list[dict]:
    failures = []
    for mm in range(1, m + 1):
        for lam in all_strict_upto(mm):
            if lam and not verify_cprime_expansion(lam, mm):
                failures.append({"suite": "cprime-expansion", "lam": lam, "m": mm})
    return failures


def suite_dawson(pmax: int = 12) -> list[dict]:
    failures = []
    for p in range(pmax + 1):
        for q in range(-p - 2, p + 3):
            if not dawson(p, q):
                failures.append({"suite": "dawson", "p": p, "q": q})
    return failures


def suite_giambelli_classical(n: int) -> list[dict]:
    failures = []
    for nn in range(3, n + 1):
        for lam in all_strict_upto(nn):
            if len(lam) >= 3 and not classical.giambelli_check(lam, nn):
                failures.append({"suite": "giambelli-classical", "lam": lam, "n": nn})
    return failures


def suite_duality(n: int) -> list[dict]:
    """Poincare pairing is the complement indicator in top degree."""
    failures = []
    for nn in range(1, n + 1):
        dim = nn * (nn + 1) // 2
        classes = all_strict_upto(nn)
        for lam in classes:
            for mu in classes:
                if sum(lam) + sum(mu) != dim:
                    continue
                want = 1 if mu == dual(lam, nn) else 0
                if classical.poincare_pairing(lam, mu, nn) != want:
                    failures.append({"suite": "duality", "lam": lam, "mu": mu, "n": nn})
    return failures


def suite_relations(n: int) -> list[dict]:
    failures = []
    for nn in range(1, n + 1):
        for i in range(1, nn + 1):
            if not quantum.relation_check(i, nn):
                failures.append({"suite": "relations", "i": i, "n": nn})
    return failures


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
    failures = []
    for nn in range(1, n + 1):
        per_rank = (sample if sample is not None else 200) if nn > 4 else None
        for lam, mu in _engine_pairs(nn, per_rank, seed + nn):
            try:
                c = quantum.qprod_constants(lam, mu, nn)
                a = quantum.qprod_quotient(lam, mu, nn)
                b = quantum.qprod_pieri(lam, mu, nn)
            except VerificationError as exc:
                failures.append({"suite": "engines-agree", "lam": lam, "mu": mu, "n": nn, "error": str(exc)})
                continue
            if not (a == b == c):
                failures.append({"suite": "engines-agree", "lam": lam, "mu": mu, "n": nn})
    return failures


def _admissible_degree(lam, mu, nu, n: int) -> int | None:
    excess = sum(lam) + sum(mu) + sum(nu) - n * (n + 1) // 2
    if excess < 0 or excess % (n + 1):
        return None
    return excess // (n + 1)


def suite_eightfold(n: int) -> list[dict]:
    """Power-of-two symmetry of the invariants, plus vanishing beyond the
    length of the first index."""
    failures = []
    for nn in range(1, n + 1):
        classes = all_strict_upto(nn)
        for lam in classes:
            for mu in classes:
                for nu in classes:
                    d = _admissible_degree(lam, mu, nu, nn)
                    if d is None:
                        continue
                    if not quantum.eightfold_check(lam, mu, nu, d, nn):
                        failures.append(
                            {"suite": "eightfold", "lam": lam, "mu": mu, "nu": nu, "d": d, "n": nn}
                        )
    return failures


def suite_vanishing(n: int) -> list[dict]:
    """Every nonzero invariant sits inside the two inequality windows."""
    failures = []
    for nn in range(1, n + 1):
        classes = all_strict_upto(nn)
        for lam in classes:
            for mu in classes:
                for nu in classes:
                    d = _admissible_degree(lam, mu, nu, nn)
                    if d is None:
                        continue
                    if quantum.gw(lam, mu, nu, d, nn) and not quantum.vanishing_bounds(
                        lam, mu, nu, d, nn
                    ):
                        failures.append(
                            {"suite": "vanishing", "lam": lam, "mu": mu, "nu": nu, "d": d, "n": nn}
                        )
    return failures


def suite_qlr(n: int) -> list[dict]:
    failures = []
    for nn in range(2, n + 1):
        classes = all_strict_upto(nn)
        for mu in classes:
            if len(mu) not in (2, 3):
                continue
            for lam in classes:
                if not quantum.qlr_check(lam, mu, nn):
                    failures.append({"suite": "qlr", "lam": lam, "mu": mu, "n": nn})
    return failures


def suite_fform(n: int) -> list[dict]:
    failures = []
    for nn in range(1, n + 1):
        classes = all_strict_upto(nn)
        for mu in classes:
            if not mu:
                continue
            for lam in classes:
                if not quantum.fform_check(lam, mu, nn):
                    failures.append({"suite": "fform", "lam": lam, "mu": mu, "n": nn})
    return failures


def suite_rho(n: int) -> list[dict]:
    failures = []
    for nn in range(1, n + 1):
        for lam in all_strict_upto(nn):
            try:
                quantum.rho_product(lam, nn)
            except VerificationError as exc:
                failures.append({"suite": "rho", "lam": lam, "n": nn, "error": str(exc)})
    return failures


def suite_lines(n: int) -> list[dict]:
    """Degree-one invariants against triple intersection numbers one rank up."""
    failures = []
    for nn in range(1, n + 1):
        classes = all_strict_upto(nn)
        target = nn * (nn + 1) // 2 + nn + 1
        for lam in classes:
            for mu in classes:
                for nu in classes:
                    if sum(lam) + sum(mu) + sum(nu) != target:
                        continue
                    if not quantum.line_count_check(lam, mu, nu, nn):
                        failures.append(
                            {"suite": "lines", "lam": lam, "mu": mu, "nu": nu, "n": nn}
                        )
    return failures


def suite_sigma_ij(n: int) -> list[dict]:
    failures = []
    for nn in range(1, n + 1):
        for i in range(1, nn + 1):
            for j in range(1, i + 1):
                if i + j >= nn + 1 and not quantum.sigma_ij_product_check(i, j, nn):
                    failures.append({"suite": "sigma-ij", "i": i, "j": j, "n": nn})
    return failures


def suite_pieri_oracle(wmax: int = 10, kmax: int = 6) -> list[dict]:
    """Combinatorial Pieri rule against the polynomial product, for every
    strict partition of weight <= wmax and 0 <= k <= kmax."""
    failures = []
    for w in range(wmax + 1):
        for lam in enumerate_partitions(w, w, strict=True):
            for k in range(kmax + 1):
                lhs = pieri_strict(lam, k)
                rhs = expand_in_basis(universal(lam) * EPoly.gen(k, None))
                if lhs != rhs:
                    failures.append({"suite": "pieri-oracle", "lam": lam, "k": k})
    return failures


def suite_stembridge(total_max: int = 12) -> list[dict]:
    """Rescaled constants of strict pairs are nonnegative integers on every
    strict expansion index."""
    failures = []
    strict = [
        lam
        for w in range(total_max + 1)
        for lam in enumerate_partitions(w, w, strict=True)
    ]
    for lam in strict:
        for mu in strict:
            w = sum(lam) + sum(mu)
            if w > total_max:
                continue
            for nu in enumerate_partitions(w, w, strict=True):
                try:
                    f = f_constant(lam, mu, nu)
                except VerificationError as exc:
                    failures.append(
                        {"suite": "stembridge", "lam": lam, "mu": mu, "nu": nu, "error": str(exc)}
                    )
                    continue
                if f < 0:
                    failures.append({"suite": "stembridge", "lam": lam, "mu": mu, "nu": nu, "f": f})
    return failures


SUITES = {
    "qtilde-properties": lambda args: suite_qtilde_properties(args.m, args.wmax or 10),
    "extension": lambda args: suite_extension(args.m, args.wmax),
    "pfaffian-prime": lambda args: suite_pfaffian_prime(args.m),
    "pfaffian-double-prime": lambda args: suite_pfaffian_double_prime(args.m),
    "cprime-expansion": lambda args: suite_cprime_expansion(args.m),
    "lem2": lambda args: suite_lem2(args.m),
    "dawson": lambda args: suite_dawson(args.pmax),
    "giambelli-classical": lambda args: suite_giambelli_classical(args.n),
    "duality": lambda args: suite_duality(args.n),
    "relations": lambda args: suite_relations(args.n),
    "engines-agree": lambda args: suite_engines_agree(args.n, args.sample, args.seed),
    "eightfold": lambda args: suite_eightfold(args.n),
    "vanishing": lambda args: suite_vanishing(args.n),
    "qlr": lambda args: suite_qlr(args.n),
    "fform": lambda args: suite_fform(args.n),
    "rho": lambda args: suite_rho(args.n),
    "lines": lambda args: suite_lines(args.n),
    "sigma-ij": lambda args: suite_sigma_ij(args.n),
    "pieri-oracle": lambda args: suite_pieri_oracle(args.wmax or 10),
    "stembridge": lambda args: suite_stembridge(args.wmax or 12),
}
