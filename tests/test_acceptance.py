"""Acceptance suite: one test per criterion, every check exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its measured runtime.
"""

import time

from lgschubert import suites
from lgschubert.partitions import all_strict_upto, in_d
from lgschubert.qtilde import stable_expansion
from lgschubert.quantum import qprod_constants, qprod_pieri, qprod_quotient


def report(number, description, elapsed):
    print(f"criterion {number:02d} PASS ({elapsed:.1f}s): {description}")


def test_criterion_01_point_class_cube():
    t0 = time.time()
    expected = {((), 3): 1}
    assert qprod_constants((3, 2, 1), (3, 2, 1), 3) == expected
    assert qprod_quotient((3, 2, 1), (3, 2, 1), 3) == expected
    assert qprod_pieri((3, 2, 1), (3, 2, 1), 3) == expected
    report(1, "square of the point-degree class is q^3 via all three engines", time.time() - t0)


def test_criterion_02_known_expansion_coefficients():
    t0 = time.time()
    sc = stable_expansion((3, 2, 1), (3, 2, 1))
    assert sc[(4, 4, 4)] == 8
    assert sc[(4, 3, 2, 2, 1)] == 4
    assert sc[(4, 2, 2, 2, 2)] == 4
    assert sc[(4, 4, 2, 2)] == -4  # the known negative constant
    report(2, "four known expansion coefficients incl. the negative one", time.time() - t0)


def test_criterion_03_presentation_relations():
    t0 = time.time()
    assert suites.suite_relations(6) == []
    report(3, "presentation relations for all 1 <= i <= n, n <= 6", time.time() - t0)


def test_criterion_04_engine_agreement():
    t0 = time.time()
    # a sample as large as D_5 x D_5 takes every pair
    assert suites.suite_engines_agree(5, sample=len(all_strict_upto(5)) ** 2) == []
    report(4, "routes A, B, C agree: n <= 5 exhaustive", time.time() - t0)


def test_criterion_05_divisibility_and_positivity():
    t0 = time.time()
    for n in range(1, 5):
        classes = all_strict_upto(n)
        for lam in classes:
            for mu in classes:
                for key, c in stable_expansion(lam, mu).items():
                    if key and key[0] > n + 1:
                        continue
                    d = 0
                    while d < len(key) and key[d] == n + 1:
                        d += 1
                    if not in_d(key[d:], n):
                        continue
                    assert c > 0 and c % (1 << d) == 0, (lam, mu, key, c)
    report(5, "quantum keys carry nonnegative coefficients divisible by 2^d, n <= 4", time.time() - t0)


def test_criterion_06_eightfold_symmetry():
    t0 = time.time()
    assert suites.suite_eightfold(4) == []
    report(6, "eight-fold symmetry and vanishing beyond len(lam), n <= 4", time.time() - t0)


def test_criterion_07_vanishing_bounds():
    t0 = time.time()
    assert suites.suite_vanishing(4) == []
    report(7, "every nonzero invariant satisfies both inequality windows, n <= 4", time.time() - t0)


def test_criterion_08_staircase_products():
    t0 = time.time()
    assert suites.suite_rho(5) == []
    assert suites.suite_sigma_ij(8) == []
    report(8, "staircase products sigma_lam * sigma_rho = sigma_(lam'*) q^len, n <= 5; "
              "special products sigma_i * sigma_j with i + j > n, n <= 8", time.time() - t0)


def test_criterion_09_line_counts():
    t0 = time.time()
    assert suites.suite_lines(4) == []
    report(9, "degree-1 invariants are half the triple numbers one rank up, n <= 4", time.time() - t0)


def test_criterion_10_polynomial_identity_suite():
    t0 = time.time()
    assert suites.suite_cprime_expansion(5) == []
    assert suites.suite_pfaffian_prime(5) == []
    assert suites.suite_pfaffian_double_prime(5) == []
    assert suites.suite_lem2(5) == []
    assert suites.suite_extension(5) == []
    assert suites.suite_dawson(12) == []
    report(10, "divided-difference identity suite at m <= 5 plus Dawson p <= 12", time.time() - t0)


def test_criterion_11_basis_property_suite():
    t0 = time.time()
    assert suites.suite_qtilde_properties(5, 10) == []
    report(11, "basis properties (a)-(e) for m <= 5, weights <= 10", time.time() - t0)


def test_criterion_12_classical_layer():
    t0 = time.time()
    assert suites.suite_duality(5) == []
    assert suites.suite_giambelli_classical(5) == []
    assert suites.suite_pieri_oracle(10) == []
    report(12, "Poincare duality, classical Giambelli (n <= 5), Pieri oracle (w <= 10)", time.time() - t0)


def test_criterion_13_qlr_and_constant_identities():
    t0 = time.time()
    assert suites.suite_qlr(4) == []
    assert suites.suite_fform(4) == []
    report(13, "quantum LR formulas and both structure-constant identities, n <= 4", time.time() - t0)


def test_criterion_14_stembridge_integrality():
    t0 = time.time()
    assert suites.suite_stembridge(12) == []
    report(14, "rescaled constants integral and nonnegative, |lam|+|mu| <= 12", time.time() - t0)


def test_criterion_10_optional_m6_tier():
    t0 = time.time()
    assert suites.suite_cprime_expansion(6) == []
    assert suites.suite_pfaffian_prime(6) == []
    assert suites.suite_pfaffian_double_prime(6) == []
    assert suites.suite_lem2(6) == []
    assert suites.suite_extension(6) == []
    report(10, "identity suite at m = 6", time.time() - t0)
