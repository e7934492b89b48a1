import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import canonical_algebras

from cubictrace import _kernels
from cubictrace.algebra import RankDSplitAlgebra, ZpCubicAlgebra, disc_cubic
from cubictrace.branch import BranchContext, brute_force_zero_oracle


def random_cubic(rng, p):
    while True:
        f = tuple(rng.randrange(p) for _ in range(3))
        if disc_cubic(f[2], f[1], f[0]) % p:
            return f


def random_unit(rng, A):
    while True:
        x = tuple(rng.randrange(A.modulus) for _ in range(A.rank))
        if A.is_unit(x):
            return x


def sweep_inputs(A, eta, gamma):
    """The first d traces Tr(gamma eta^i) and the characteristic polynomial of eta.

    A cubic algebra has its own charpoly.  In the split algebra of rank d it
    is prod (T - eta_i), expanded one linear factor at a time, constant first.
    """
    traces = [A.trace(A.mul(gamma, A.pow(eta, i))) for i in range(A.rank)]
    if not isinstance(A, RankDSplitAlgebra):
        return traces, A.charpoly(eta)
    m = A.modulus
    poly = [1]
    for a in eta:
        poly = [(-a * poly[0]) % m] + [
            (poly[i - 1] - a * poly[i]) % m for i in range(1, len(poly))
        ] + [1]
    return traces, tuple(poly[:-1])


def full_sweep(ctx):
    """The zero classes of a branch context by a sweep of all P*p^(k_work-1) classes."""
    p, k = ctx.p, ctx.k_work
    traces, coeffs = sweep_inputs(ctx.A, ctx.eta_elt, ctx.gamma_elt)
    return _kernels.zero_class_sweep(p, k, ctx.P * p ** (k - 1), traces, coeffs, ctx.c_int)


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


def test_split_charpoly_annihilates():
    # Cayley-Hamilton for the rank-d charpoly that the sweep reference runs on
    rng = random.Random(1)
    for d in (2, 3, 4):
        A = RankDSplitAlgebra(7, 3, d)
        m = A.modulus
        for _ in range(20):
            x = tuple(rng.randrange(m) for _ in range(d))
            coeffs = sweep_inputs(A, x, A.one)[1]
            assert len(coeffs) == d
            assert coeffs[0] == (-1) ** d * A.norm(x) % m
            assert coeffs[-1] == (-A.trace(x)) % m
            # x^d + c_{d-1} x^{d-1} + ... + c_0 = 0
            val = A.pow(x, d)
            xi = A.one
            for ci in coeffs:
                val = A.add(val, A.scalar_mul(ci, xi))
                xi = A.mul(xi, x)
            assert val == (0,) * d
            unreduced = tuple(v + rng.choice((-2, -1, 3)) * m for v in x)
            assert sweep_inputs(A, unreduced, A.one)[1] == coeffs


def test_digit_lift_oracle_equals_full_sweep():
    # the oracle lifts n digit by digit from the survivors; the sweep visits every class
    rng = random.Random(31)
    algebras = [B.at_precision(7) for p in (5, 7) for B in canonical_algebras(p).values()]
    algebras += [RankDSplitAlgebra(p, 7, d) for p in (5, 7) for d in (2, 4)]
    compared = nonempty = 0
    for A in algebras:
        p, m = A.p, A.modulus
        # plain, gamma divisible by p, gamma_den > 0, fractional c with integral gamma, k = 1
        for style in range(5):
            for _ in range(4):
                eta = random_unit(rng, A)
                gamma = tuple(rng.randrange(m) for _ in range(A.rank))
                if style == 1:
                    gamma = tuple(g * p ** rng.randrange(1, 3) for g in gamma)
                # a value the trace attains, so that most zero sets are nonempty
                c = A.trace(A.mul(gamma, A.pow(eta, rng.randrange(p))))
                k, gden = rng.randrange(2, 6), 0
                if style == 2:
                    gden = rng.randrange(1, 3)
                    c = Fraction(c, p**gden)
                elif style == 3:
                    c = Fraction(rng.randrange(1, p * p), p ** rng.randrange(1, 3))
                elif style == 4:
                    k = 1
                ctx = BranchContext(A, eta, gamma, c=c, k=k, gamma_den=gden)
                if ctx.P * p ** (ctx.k_work - 1) > 20_000:
                    continue
                got = brute_force_zero_oracle(ctx)
                assert got == full_sweep(ctx), (A, eta, gamma, c, k, gden)
                compared += 1
                nonempty += bool(got)
    assert nonempty >= 120, (compared, nonempty)
