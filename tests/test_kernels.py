import random
from collections import Counter

import pytest
from conftest import canonical_algebras

from cubictrace import _kernels
from cubictrace.algebra import RankDSplitAlgebra, ZpCubicAlgebra, disc_cubic


def random_cubic(rng, p):
    while True:
        f = tuple(rng.randrange(p) for _ in range(3))
        if disc_cubic(f[2], f[1], f[0]) % p:
            return f


def sweep_inputs(A, eta, gamma):
    """The first d traces Tr(gamma eta^i) and the characteristic polynomial of eta."""
    traces = [A.trace(A.mul(gamma, A.pow(eta, i))) for i in range(A.rank)]
    return traces, A.charpoly(eta)


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
            assert _kernels.zero_class_sweep(p, k, total, *sweep_inputs(A, eta, gamma), c) == want
            checked += 1


def test_sweep_exact_above_int64():
    # p^k = 101^5 > 2^30: Python integers keep the congruences exact
    p, k = 101, 5
    f = (1, 3, 0)
    A = ZpCubicAlgebra(p, k, f)
    eta = (1, 1, 0)
    assert A.is_unit(eta)
    gamma = (1, 2, 3)
    got = _kernels.zero_class_sweep(p, k, 50, *sweep_inputs(A, eta, gamma), A.trace(gamma))
    assert 0 in got  # n = 0 satisfies Tr(gamma) = c by construction
    # values are genuine congruence solutions
    m = p**k
    for n in got:
        assert (A.trace(A.mul(gamma, A.pow(eta, n))) - A.trace(gamma)) % m == 0


def unreduce(rng, xs, m):
    return [x + rng.choice((-3, -1, 2)) * m for x in xs]


def test_sweep_kernel_matches_rank_d_algebra():
    rng = random.Random(1)
    for d in (2, 3, 4):
        for k in (1, 2, 3, 4):
            p = rng.choice((5, 7))
            A = RankDSplitAlgebra(p, k, d)
            m = A.modulus
            etas = [tuple(rng.randrange(1, m) for _ in range(d)) for _ in range(3)]
            # repeated coordinates: eta's characteristic polynomial has a multiple root
            etas.append((etas[0][0],) * (d - 1) + (etas[0][-1],))
            for eta in etas:
                if not A.is_unit(eta):
                    continue
                gamma = tuple(rng.randrange(m) for _ in range(d))
                traces, coeffs = sweep_inputs(A, eta, gamma)
                # the reference: the algebra's own trace, product and powers
                seq = [A.trace(A.mul(gamma, A.pow(eta, n))) for n in range(120)]
                for c in {seq[0], seq[d - 1], seq[rng.randrange(120)], rng.randrange(m)}:
                    for total in (0, 1, 2, d, 120):
                        want = [n for n in range(total) if seq[n] == c]
                        assert _kernels.zero_class_sweep(p, k, total, traces, coeffs, c) == want
                    # negative and unreduced inputs are taken mod p^k
                    got = _kernels.zero_class_sweep(
                        p, k, 120, unreduce(rng, traces, m), unreduce(rng, coeffs, m), c - 5 * m
                    )
                    assert got == [n for n in range(120) if seq[n] == c]


def test_sweep_kernel_needs_one_coefficient_per_trace():
    for traces, coeffs in [((), ()), ((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2))]:
        with pytest.raises(ValueError, match="starting traces"):
            _kernels.zero_class_sweep(5, 2, 10, traces, coeffs, 0)
