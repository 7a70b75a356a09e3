"""Exact classical and quantum Schubert calculus on the Lagrangian
Grassmannian LG(n, 2n), built on an integer symmetric-function engine."""

from .partitions import (
    Partition,
    dual,
    enumerate_partitions,
    grow_strips,
    prepend,
    rho,
    star,
    straighten,
)
from .polyring import EPoly, XPoly, ddiff0, ddiff1prime
from .qtilde import (
    VerificationError,
    basis,
    expand_in_basis,
    f_constant,
    pieri_strict,
    structure_constants,
)
from .classical import classical_product, giambelli_check
from .quantum import (
    eightfold_check,
    giambelli_special,
    gw,
    qmul,
    qprod_constants,
    qprod_pieri,
    qprod_quotient,
    quantum_pieri,
    relation_check,
    rho_product,
    vanishing_bounds,
)

__version__ = "0.1.0"
