"""Classical cohomology of the Lagrangian Grassmannian LG(n, 2n).

Classes are finite maps from strict partitions with parts <= n to integers.
The quantum ring is a deformation of this one over Z[q]: setting q = 0 gives
back H*(LG(n, 2n)).  So the classical product is the q-degree-0 part of the
route-C quantum product, and route C's one memoised read-out serves both
rings; this module holds no memo of its own.
"""

from __future__ import annotations

from .partitions import Partition, dual, pfaffian_terms, require_dn, rho
from .polyring import add_into
from .quantum import gw, qprod_constants

CohClass = dict  # map Partition -> int


def classical_product(lam: Partition, mu: Partition, n: int) -> CohClass:
    """Product of two Schubert classes in H*(LG(n, 2n)): the q-degree-0
    part of ``qprod_constants``, as a fresh dict."""
    return {nu: c for (nu, d), c in qprod_constants(lam, mu, n).items() if d == 0}


def integral(x: CohClass, n: int) -> int:
    """Coefficient of the point class (the full staircase partition)."""
    return x.get(rho(n), 0)


def triple_number(lam: Partition, mu: Partition, nu: Partition, n: int) -> int:
    """Integral of a triple product of Schubert classes; zero unless the
    weights add up to dim LG(n, 2n) = n(n+1)/2.  By Poincare duality it is
    the coefficient of sigma_dual(nu) in sigma_lam sigma_mu, read off one
    product."""
    if sum(lam) + sum(mu) + sum(nu) != n * (n + 1) // 2:
        return 0
    return classical_product(lam, mu, n).get(dual(nu, n), 0)


def poincare_pairing(lam: Partition, mu: Partition, n: int) -> int:
    """Integral of a product of two Schubert classes: 1 exactly when mu is
    the complement of lam in the staircase."""
    return integral(classical_product(lam, mu, n), n)


def line_count_check(lam: Partition, mu: Partition, nu: Partition, n: int) -> bool:
    """Twice a degree-one invariant equals the triple intersection number of
    the same indices one rank up."""
    return 2 * gw(lam, mu, nu, 1, n) == triple_number(lam, mu, nu, n + 1)


def giambelli_check(lam: Partition, n: int) -> bool:
    """Check the Pfaffian expansion of a Schubert class into two-condition
    classes inside H*(LG(n, 2n)), for len(lam) >= 3."""
    lam = require_dn(lam, n)
    if len(lam) < 3:
        raise ValueError(f"{lam} must have length >= 3")
    acc: CohClass = {}
    for sign, pair, rest in pfaffian_terms(lam):
        add_into(acc, classical_product(pair, rest, n).items(), sign)
    return acc == {lam: 1}

