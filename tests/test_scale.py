"""Spot checks at the documented prime cap and contract consistency sweeps."""

import random

import pytest

from cubictrace.algebra import canonical_algebra
from cubictrace.branch import BranchContext, quadratic_singular
from cubictrace.cli import UsageError, parse_algebra_spec, parse_element
from cubictrace.counts import CountQuery, brute_force_count, count, is_smooth_fiber


def test_formula_matches_brute_force_at_cap_prime():
    p = 101
    rng = random.Random(0)
    for name in ("split", "mixed", "inert"):
        B = canonical_algebra(p, name)
        for _ in range(25):
            s = rng.randrange(p)
            n = rng.randrange(1, p)
            q = CountQuery(B, s, n)
            assert count(q).value == brute_force_count(q, cap=101).value


def test_hasse_bound_at_cap_prime():
    from cubictrace.counts import elliptic_count

    p = 101
    rng = random.Random(1)
    for _ in range(30):
        s = rng.randrange(p)
        n = rng.randrange(1, p)
        if not is_smooth_fiber(p, s, n):
            continue
        assert (elliptic_count(p, s, n) - p - 1) ** 2 <= 4 * p


def test_quadratic_alternative_matches_discriminant():
    # NoRoot <=> D nonsquare; TwoSimple <=> D nonzero square; DoubleRoot <=> D = 0
    from cubictrace.algebra import ZpCubicAlgebra

    A = ZpCubicAlgebra.from_split_roots(5, 6, (0, 1, 2))
    eta = A.from_split_coords((1, 6, 11))
    m = A.modulus
    half = pow(2, -1, m)
    squares = {pow(v, 2, 5) for v in range(1, 5)}
    seen = set()
    for C0 in range(1, 5):
        for A0 in range(5):
            for B0 in range(5):
                x = A.from_split_coords(
                    (C0 * half % m, -2 * C0 * half % m, C0 * half % m)
                )
                y = A.from_split_coords((-B0 % m, B0, 0))
                z = A.from_split_coords((A0, 0, 0))
                gamma = A.add(x, A.add(A.scalar_mul(5, y), A.scalar_mul(25, z)))
                ctx = BranchContext(A, eta, gamma, c=0, k=5)
                qs = quadratic_singular(ctx, 0)
                if qs.discriminant == 0:
                    assert qs.alternative == "DoubleRoot"
                elif qs.discriminant in squares:
                    assert qs.alternative == "TwoSimple"
                else:
                    assert qs.alternative == "NoRoot"
                seen.add(qs.alternative)
    assert seen == {"NoRoot", "TwoSimple", "DoubleRoot"}


@pytest.mark.parametrize(
    "bad",
    ["", "1;2;3", "1,2,3,4", "a,b,c", "1,2,3/q^2", "1|2", "1,2,3/p^x"],
)
def test_parse_element_rejects_junk(bad):
    with pytest.raises((UsageError, ValueError)):
        parse_element(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "", "p=5", "p=5;f=1,2", "k=3;f=0,2,2", "p=4;k=1;f=1,1,0", "p=5;k=1;f=0,0,0",
        "p=4;f=1,1,0", "p=5;f=0,0,0",
    ],
)
def test_parse_algebra_rejects_junk(bad):
    with pytest.raises((UsageError, ValueError)):
        parse_algebra_spec(bad)
