import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import canonical_algebras

from cubictrace.counts import (
    DEFAULT_PRIME_CAP,
    CountQuery,
    actual_count,
    brute_force_count,
    count,
    elliptic_count,
    factorization_census,
    is_smooth_fiber,
    nodal_count,
    nodal_parametrization,
    quadratic_character,
    smooth_formula_count,
    unit_histogram,
)


def test_is_smooth_fiber():
    assert is_smooth_fiber(5, 0, 1)
    # s=3, n=1 over F_5: 27 = 2 = 27n -> nodal
    assert not is_smooth_fiber(5, 3, 1)
    for p in (5, 7, 11):
        for n in range(1, p):
            assert is_smooth_fiber(p, 0, n)
    with pytest.raises(ValueError):
        is_smooth_fiber(5, 1, 0)


def test_three_splitting_types_at_5():
    # N = 3, 5, 6 for split, mixed, inert at p=5, s=0, n=1
    algs = canonical_algebras(5)
    expected = {"split": 3, "mixed": 5, "inert": 6}
    for name, alg in algs.items():
        q = CountQuery(alg, 0, 1)
        assert brute_force_count(q).value == expected[name]
        assert smooth_formula_count(q).value == expected[name]
        # same counts at n = -1 (Example at eps = +-1)
        q2 = CountQuery(alg, 0, -1 % 5)
        assert brute_force_count(q2).value == expected[name]


def test_brute_force_partitions_units():
    for p in (5, 7):
        for alg in canonical_algebras(p).values():
            total = sum(
                brute_force_count(CountQuery(alg, s, n)).value
                for s in range(p)
                for n in range(1, p)
            )
            assert total == alg.unit_group_order()


def test_elliptic_count_supersingular():
    # p = 2 mod 3, s = 0: #E = p + 1 for all n
    for p in (5, 11):
        for n in range(1, p):
            assert elliptic_count(p, 0, n) == p + 1
    assert elliptic_count(5, 0, 1) == 6


def _projective_points(p, s, n):
    """Oracle: the (U, V) pairs on the Weierstrass curve, plus infinity."""
    pts = 1
    for u in range(p):
        rhs = (s * s * u * u - 4 * u**3 - 4 * s**3 * n - 27 * n * n + 18 * s * u * n) % p
        for v in range(p):
            if (v * v - rhs) % p == 0:
                pts += 1
    return pts


def test_elliptic_count_vs_affine_enumeration():
    for p, s, n in [(7, 0, 1), (7, 1, 2), (11, 2, 3), (13, 0, 1)]:
        if not is_smooth_fiber(p, s, n):
            continue
        assert elliptic_count(p, s, n) == _projective_points(p, s, n)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((5, 7, 11, 13, 17, 19, 23, 29, 31)),
    st.integers(-100, 100),
    st.integers(-100, 100),
)
def test_elliptic_count_matches_enumeration_on_random_fibers(p, s, n):
    assume(n % p and is_smooth_fiber(p, s, n))
    assert elliptic_count(p, s, n) == _projective_points(p, s, n)


def test_elliptic_count_refuses_nodal():
    with pytest.raises(ValueError):
        elliptic_count(5, 3, 1)


def test_hasse_bound():
    for p in (5, 7, 11, 13):
        for s in range(p):
            for n in range(1, p):
                if not is_smooth_fiber(p, s, n):
                    continue
                assert (elliptic_count(p, s, n) - p - 1) ** 2 <= 4 * p


def test_formula_equals_brute_force_full_table():
    for p in (5, 7):
        for alg in canonical_algebras(p).values():
            for s in range(p):
                for n in range(1, p):
                    q = CountQuery(alg, s, n)
                    if is_smooth_fiber(p, s, n):
                        got = smooth_formula_count(q).value
                    else:
                        got = nodal_count(alg, s).value
                    assert got == brute_force_count(q).value, (p, alg.splitting_type, s, n)


def test_nodal_table_cells():
    # inert q=5 (q=2 mod 3): q+2 ; split q=7 (q=1 mod 3): q-3 ; mixed q=5: q-1
    assert nodal_count(canonical_algebras(5)["inert"], 3).value == 7
    assert nodal_count(canonical_algebras(7)["split"], 3).value == 4
    assert nodal_count(canonical_algebras(5)["mixed"], 3).value == 4
    with pytest.raises(ValueError):
        nodal_count(canonical_algebras(5)["inert"], 0)


def test_inert_sign_symmetry():
    for p in (5, 7, 11):
        alg = canonical_algebras(p)["inert"]
        a = brute_force_count(CountQuery(alg, 0, 1)).value
        b = brute_force_count(CountQuery(alg, 0, -1 % p)).value
        assert a == b


def test_factorization_census():
    # p=5, eps=1: #E = 6, so I = 2
    i, s, l, r = factorization_census(5, 1)
    assert i == 2
    for p in (5, 7, 11, 13):
        for eps in range(1, p):
            i, s, l, r = factorization_census(p, eps)
            e = elliptic_count(p, 0, eps)
            assert i + s + l + r == p
            assert 3 * i == e
            assert 6 * s + 3 * r == e - 3
            assert 2 * l + r == 2 * p + 1 - e


def test_factorization_census_direct_factoring_p5():
    # independent check by explicit root counting for every u
    i, s, l, r = factorization_census(5, 1)
    tally = {"I": 0, "S": 0, "L": 0, "R": 0}
    for u in range(5):
        roots = [x for x in range(5) if (x**3 + u * x - 1) % 5 == 0]
        disc = (-4 * u**3 - 27) % 5
        if disc == 0:
            tally["R"] += 1
        elif len(roots) == 3:
            tally["S"] += 1
        elif len(roots) == 1:
            tally["L"] += 1
        else:
            tally["I"] += 1
    assert (i, s, l, r) == (tally["I"], tally["S"], tally["L"], tally["R"])


def test_nodal_parametrization():
    for p, t, a in [(5, 1, 2), (7, 3, 1), (11, 5, 4)]:
        x = nodal_parametrization(p, t, a)
        assert sum(x) % p == 3 * a % p
        assert x[0] * x[1] * x[2] % p == pow(a, 3, p)
    # t with t^2+t+1 = 0 maps to the node (a,a,a): p=7, t=2
    assert nodal_parametrization(7, 2, 1) == (1, 1, 1)
    # p=5: t^2+t+1 has no root, no parameter hits the node
    assert all((t * t + t + 1) % 5 != 0 for t in range(5))
    for t in range(2, 4):
        assert nodal_parametrization(5, t, 1) != (1, 1, 1)
    with pytest.raises(ValueError):
        nodal_parametrization(5, 0, 1)
    with pytest.raises(ValueError):
        nodal_parametrization(5, 4, 1)  # t = -1


def test_nodal_parametrization_covers_fiber():
    # away from poles/node the parametrization lands on the nodal fiber
    p, a = 7, 2
    s, n = 3 * a % p, pow(a, 3, p)
    B = canonical_algebras(p)["split"]
    fiber = {
        B.split_coords(x)
        for x in B.elements()
        if B.norm(x) == n and B.trace(x) == s
    }
    for t in range(1, p):
        if (t + 1) % p == 0:
            continue
        assert nodal_parametrization(p, t, a) in fiber


def test_prime_cap():
    alg = canonical_algebras(5)["split"]
    with pytest.raises(ValueError):
        brute_force_count(CountQuery(alg, 0, 1), cap=3)


def test_actual_count_reads_the_histogram_above_the_prime_cap():
    # the prime cap bounds only brute_force_count: above it actual_count still
    # reads the enumeration, which agrees with the closed formulas, smooth and nodal
    p = 103
    assert p > DEFAULT_PRIME_CAP
    for B in canonical_algebras(p).values():
        hist = unit_histogram(B)
        for n in (1, 2, p - 1):
            for s in range(p):
                got = actual_count(B, s, n)
                assert got == hist[s * p + n] == count(CountQuery(B, s, n)).value
        assert not is_smooth_fiber(p, 3, 1) and actual_count(B, 3, 1) == nodal_count(B, 3).value
        with pytest.raises(ValueError):
            brute_force_count(CountQuery(B, 0, 1))
        with pytest.raises(ValueError):
            actual_count(B, 0, p)


def test_quadratic_character_table_is_shared_and_immutable():
    chi = quadratic_character(11)
    assert chi is quadratic_character(11)
    assert isinstance(chi, tuple)
    assert chi[0] == 0 and sorted(chi[1:]) == [-1] * 5 + [1] * 5
