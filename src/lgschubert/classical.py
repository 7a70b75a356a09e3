"""Classical cohomology of the Lagrangian Grassmannian LG(n, 2n).

Classes are finite maps from strict partitions with parts <= n to integers.
The quantum ring is a deformation of this one over Z[q]: setting q = 0 gives
back H*(LG(n, 2n)).  So the classical product is the q-degree-0 part of the
route-C quantum product, and route C's one memoised read-out serves both
rings; this module holds no memo of its own.  The classical numbers are
degree-0 invariants and have no reader here: the triple intersection
number of lam, mu, nu is ``quantum.gw(lam, mu, nu, 0, n)``, and the
Poincare pairing of lam and mu is ``quantum.gw(lam, mu, (), 0, n)``.
"""

from __future__ import annotations

from .partitions import Partition, pfaffian_terms, require_dn
from .polyring import add_into
from .quantum import gw, qprod_constants

CohClass = dict  # map Partition -> int


def classical_product(lam: Partition, mu: Partition, n: int) -> CohClass:
    """Product of two Schubert classes in H*(LG(n, 2n)): the q-degree-0
    part of ``qprod_constants``, as a fresh dict."""
    return {nu: c for (nu, d), c in qprod_constants(lam, mu, n).items() if d == 0}


def line_count_check(lam: Partition, mu: Partition, nu: Partition, n: int) -> bool:
    """Twice a degree-one invariant equals the triple intersection number of
    the same indices one rank up, the degree-0 invariant there."""
    return 2 * gw(lam, mu, nu, 1, n) == gw(lam, mu, nu, 0, n + 1)


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

