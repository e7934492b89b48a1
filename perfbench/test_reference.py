"""Tests of the benchmark's reference computations and seeded inputs.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import itertools
import random

import pytest

import reference as ref
from workloads import CertifiedDeep, random_cubic


def cubics(p):
    """One seeded squarefree cubic of each splitting type mod p."""
    return {t: random_cubic(random.Random(p), p, t) for t in (ref.SPLIT, ref.MIXED, ref.INERT)}


def enumerate_counts(p, f):
    """{(s, n): #{x : Tr x = s, N x = n}} by running over all p^3 elements."""
    tally = {}
    for x in itertools.product(range(p), repeat=3):
        n = ref.poly_norm(x, f, p)
        if n:
            key = (ref.poly_trace(x, f, p), n)
            tally[key] = tally.get(key, 0) + 1
    return tally


def test_companion_matrix_trace_and_norm():
    f = (3, 5, 2)
    for m in (7, 49, 11**3):
        assert ref.poly_trace((0, 1, 0), f, m) == -2 % m
        assert ref.poly_norm((0, 1, 0), f, m) == -3 % m
        assert ref.poly_trace((1, 0, 0), f, m) == 3 % m
        assert ref.poly_norm((1, 0, 0), f, m) == 1


def test_norm_is_multiplicative_and_trace_additive():
    rng = random.Random(5)
    p, k = 11, 3
    m = p**k
    f = random_cubic(rng, p, ref.INERT)
    for _ in range(50):
        x = tuple(rng.randrange(m) for _ in range(3))
        y = tuple(rng.randrange(m) for _ in range(3))
        xy = ref.poly_mulmod(x, y, f, m)
        assert ref.poly_norm(xy, f, m) == ref.poly_norm(x, f, m) * ref.poly_norm(y, f, m) % m
        s = tuple(a + b for a, b in zip(x, y))
        assert ref.poly_trace(s, f, m) == (ref.poly_trace(x, f, m) + ref.poly_trace(y, f, m)) % m


def test_trace_power_agrees_with_split_coordinates():
    # for f = (T - r1)(T - r2)(T - r3), Tr(x) is the sum of x(r_i)
    rng = random.Random(7)
    p, k = 7, 4
    m = p**k
    roots = [r + p * rng.randrange(p**3) for r in (1, 3, 4)]
    r1, r2, r3 = roots
    f = (-r1 * r2 * r3 % m, (r1 * r2 + r1 * r3 + r2 * r3) % m, -(r1 + r2 + r3) % m)

    def at_roots(x):
        return [(x[0] + x[1] * r + x[2] * r * r) % m for r in roots]

    for _ in range(20):
        gamma = tuple(rng.randrange(m) for _ in range(3))
        eta = tuple(rng.randrange(m) for _ in range(3))
        n = rng.randrange(10**6)
        assert ref.trace_power(gamma, eta, n, f, m) == ref.split_trace_power(at_roots(gamma), at_roots(eta), n, m)


@pytest.mark.parametrize("p,k,splitting", [(5, 3, ref.INERT), (7, 3, ref.MIXED), (5, 4, ref.SPLIT)])
def test_digit_lift_matches_enumeration(p, k, splitting):
    rng = random.Random(p * k)
    m = p**k
    f = random_cubic(rng, p, splitting)
    eta = (1 + p * rng.randrange(m), p * rng.randrange(m), p * rng.randrange(m))
    eta = tuple(x % m for x in eta)  # eta = 1 mod p, so its period P is 1

    def mul(x, y):
        return ref.poly_mulmod(x, y, f, m)

    def trace(x):
        return ref.poly_trace(x, f, m)

    found = 0
    for _ in range(30):
        gamma = tuple(rng.randrange(m) for _ in range(3))
        c = rng.choice([0, rng.randrange(m)])
        want = [t for t in range(p ** (k - 1)) if (ref.trace_power(gamma, eta, t, f, m) - c) % m == 0]
        assert ref.digit_lift(mul, trace, gamma, eta, c, p, k) == want
        found += bool(want)
    assert found


@pytest.mark.parametrize("splitting,want", [(ref.SPLIT, 3), (ref.MIXED, 5), (ref.INERT, 6)])
def test_worked_values_at_p5(splitting, want):
    assert ref.n_b(5, splitting, 0, 1) == want


@pytest.mark.parametrize("splitting,p,want", [
    (ref.SPLIT, 7, 4), (ref.SPLIT, 5, 4), (ref.MIXED, 7, 8),
    (ref.MIXED, 5, 4), (ref.INERT, 7, 7), (ref.INERT, 5, 7),
])
def test_nodal_table_cells(splitting, p, want):
    assert ref.n_b(p, splitting, 3, 1) == want  # s = 3, n = s^3/27 = 1


@pytest.mark.parametrize("p", [5, 7, 11])
def test_elliptic_route_matches_enumeration(p):
    for splitting, f in cubics(p).items():
        tally = enumerate_counts(p, f)
        table = ref.count_table(p, splitting)
        assert {key: v for key, v in table.items() if v} == tally, (p, splitting)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_torus_orders_and_fibre_sums(p):
    for splitting, f in cubics(p).items():
        ones = sum(1 for x in itertools.product(range(p), repeat=3) if ref.poly_norm(x, f, p) == 1)
        assert ones == ref.torus_order(p, splitting)
        table = ref.count_table(p, splitting)
        for n in range(1, p):
            assert sum(table[(s, n)] for s in range(p)) == ref.torus_order(p, splitting)


def test_legendre_and_divisors():
    chi = ref.legendre_table(13)
    squares = {x * x % 13 for x in range(1, 13)}
    assert [a for a in range(1, 13) if chi[a] == 1] == sorted(squares)
    assert [ref.divisor_count(n) for n in (1, 12, 288, 993)] == [1, 6, 18, 4]


@pytest.mark.parametrize("alt,roots", [("DoubleRoot", 1), ("TwoSimple", 2), ("NoRoot", 0)])
def test_versal_inputs_have_their_alternative(alt, roots):
    # F(t) = p^2 Q(t) mod p^3, and Q has the requested number of roots mod p
    for seed in range(4):
        spec = CertifiedDeep._versal(random.Random(seed), 7, 5, alt)
        p, m = spec["p"], spec["p"] ** spec["k"]
        values = [ref.split_trace_power(spec["gamma"], spec["eta"], t, m) for t in range(p)]
        assert all(v % p**2 == 0 for v in values)
        assert sum(1 for v in values if v % p**3 == 0) == roots
        if alt == "DoubleRoot":
            assert ref.split_trace_power(spec["gamma"], spec["eta"], spec["planted"], m) == 0
