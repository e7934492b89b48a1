import random
from collections import Counter

import pytest
from conftest import canonical_algebras

from cubictrace import _kernels
from cubictrace.algebra import ZpCubicAlgebra, disc_cubic


def random_cubic(rng, p):
    while True:
        f = tuple(rng.randrange(p) for _ in range(3))
        if disc_cubic(f[2], f[1], f[0]) % p:
            return f


def test_histogram_kernel_matches_algebra_tally():
    for p in (5, 7, 11, 13):
        for B in canonical_algebras(p).values():
            # the full p^3 enumeration is the reference
            tally = Counter((B.trace(x), B.norm(x)) for x in B.elements() if B.norm(x))
            hist = _kernels.trace_norm_histogram(p, B.f)
            assert hist == [tally[(s, n)] for s in range(p) for n in range(p)]
            assert sum(hist) == B.unit_group_order()
            # the norm-n units form a coset of the torus T_B, one per n != 0
            for n in range(p):
                column = sum(hist[s * p + n] for s in range(p))
                assert column == (B.torus_order() if n else 0)
            # negative and large coefficients are taken mod p
            f0, f1, f2 = B.f
            assert _kernels.trace_norm_histogram(p, (f0 - 2 * p, f1 + 3 * p, f2 - p)) == hist


def test_histogram_kernel_needs_prime_at_least_5():
    for p in (2, 3, 4, 9, 25):
        with pytest.raises(ValueError, match="prime >= 5"):
            _kernels.trace_norm_histogram(p, (1, 0, 0))


def test_sweep_kernel_matches_algebra():
    rng = random.Random(0)
    for p, k in [(5, 1), (5, 3), (7, 2), (7, 4), (11, 2)]:
        # unreduced (negative or large) coefficients must be taken mod p^k
        f = tuple(x + rng.choice((-1, 0, 3)) * p**k for x in random_cubic(rng, p))
        A = ZpCubicAlgebra(p, k, f)
        m = A.modulus
        checked = 0
        while checked < 4:
            eta = tuple(rng.randrange(m) for _ in range(3))
            if not A.is_unit(eta):
                continue
            gamma = tuple(rng.randrange(m) for _ in range(3))
            total = 200
            # a value the trace attains, so that the sweep has hits
            c = A.trace(A.mul(gamma, A.pow(eta, rng.randrange(total))))
            want = [
                n for n in range(total) if A.trace(A.mul(gamma, A.pow(eta, n))) == c
            ]
            assert want
            assert _kernels.zero_class_sweep(p, k, total, eta, gamma, f, c) == want
            checked += 1


def test_sweep_exact_above_int64():
    # p^k = 101^5 > 2^30: Python integers keep the congruences exact
    p, k = 101, 5
    f = (1, 3, 0)
    A = ZpCubicAlgebra(p, k, f)
    eta = (1, 1, 0)
    assert A.is_unit(eta)
    gamma = (1, 2, 3)
    got = _kernels.zero_class_sweep(p, k, 50, eta, gamma, f, A.trace(gamma))
    assert 0 in got  # n = 0 satisfies Tr(gamma) = c by construction
    # values are genuine congruence solutions
    m = p**k
    for n in got:
        assert (A.trace(A.mul(gamma, A.pow(eta, n))) - A.trace(gamma)) % m == 0
