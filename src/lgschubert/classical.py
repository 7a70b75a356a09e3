"""Classical cohomology of the Lagrangian Grassmannian LG(n, 2n).

Classes are finite maps from strict partitions with parts <= n to integers.
The ring is the quotient of the symmetric-function ring by the equal-pair
relations, realized as plain key filtering: a basis element survives exactly
when its index is strict with parts <= n (a non-strict index splits off an
equal pair, hence dies; a part > n dies by truncation).
"""

from __future__ import annotations

from .partitions import Partition, dual, in_d, pfaffian_terms, rho
from .polyring import add_into
from .qtilde import structure_constants

CohClass = dict  # map Partition -> int


def reduce_to_lg(expansion: dict[Partition, int], n: int) -> CohClass:
    """Project a basis expansion onto the Schubert basis of LG(n, 2n)."""
    return {lam: c for lam, c in expansion.items() if in_d(lam, n)}


def classical_product(lam: Partition, mu: Partition, n: int) -> CohClass:
    """Product of two Schubert classes in H*(LG(n, 2n))."""
    lam, mu = tuple(lam), tuple(mu)
    for p in (lam, mu):
        if not in_d(p, n):
            raise ValueError(f"{p} does not index a Schubert class for n={n}")
    return reduce_to_lg(structure_constants(lam, mu), n)


def class_product(x: CohClass, y: CohClass, n: int) -> CohClass:
    """Bilinear extension of classical_product to whole classes."""
    out: CohClass = {}
    for lam, a in x.items():
        for mu, b in y.items():
            add_into(out, classical_product(lam, mu, n).items(), a * b)
    return out


def integral(x: CohClass, n: int) -> int:
    """Coefficient of the point class (the full staircase partition)."""
    return x.get(rho(n), 0)


def triple_number(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """Integral of a triple product of Schubert classes; zero unless the
    weights add up to dim LG(n, 2n) = n(n+1)/2."""
    if sum(lam) + sum(mu) + sum(nu) != n * (n + 1) // 2:
        return 0
    return integral(class_product(classical_product(lam, mu, n), {tuple(nu): 1}, n), n)


def poincare_pairing(lam: Partition, mu: Partition, n: int) -> int:
    """Integral of a product of two Schubert classes: 1 exactly when mu is
    the complement of lam in the staircase."""
    return integral(classical_product(lam, mu, n), n)


def giambelli_check(lam: Partition, n: int) -> bool:
    """Check the Pfaffian expansion of a Schubert class into two-condition
    classes inside H*(LG(n, 2n)), for len(lam) >= 3."""
    lam = tuple(lam)
    if not in_d(lam, n) or len(lam) < 3:
        raise ValueError(f"{lam} must be in D_{n} with length >= 3")
    acc: CohClass = {}
    for sign, pair, rest in pfaffian_terms(lam):
        add_into(acc, classical_product(pair, rest, n).items(), sign)
    return acc == {lam: 1}


__all__ = [
    "CohClass",
    "class_product",
    "classical_product",
    "dual",
    "giambelli_check",
    "integral",
    "poincare_pairing",
    "reduce_to_lg",
    "triple_number",
]
