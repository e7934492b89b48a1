import random

import pytest
from conftest import canonical_algebras

from cubictrace.algebra import (
    FpCubicAlgebra,
    PrecisionError,
    PrimeModulus,
    RankDSplitAlgebra,
    ZpCubicAlgebra,
    disc_cubic,
)

SPLIT5 = ZpCubicAlgebra.from_split_roots(5, 1, (0, 1, 2))
T = (0, 1, 0)


def test_prime_modulus_validation():
    PrimeModulus(5, 3)
    for bad in (3, 4, 9, 1):
        with pytest.raises(ValueError):
            PrimeModulus(bad)
    with pytest.raises(ValueError):
        PrimeModulus(5, 0)


def test_etale_condition_enforced():
    with pytest.raises(ValueError):
        FpCubicAlgebra(5, (0, 0, 0))  # T^3 is ramified


def test_mul_identity_and_split_coordinatewise():
    x = SPLIT5.from_split_coords((1, 1, 2))
    assert SPLIT5.mul(SPLIT5.one, x) == x
    sq = SPLIT5.mul(x, x)
    assert SPLIT5.split_coords(sq) == (1, 1, 4)


def test_mul_reduces_by_modulus():
    C = FpCubicAlgebra(5, (0, -1, 0))  # T^3 - T
    assert C.mul(T, T) == (0, 0, 1)
    assert C.mul(T, C.mul(T, T)) == (0, 1, 0)  # T^3 = T


def test_trace_basics():
    assert SPLIT5.trace(SPLIT5.one) == 3
    x = SPLIT5.from_split_coords((1, 1, 2))
    assert SPLIT5.trace(x) == 4
    # trace of (1,-1,0) in F_5^3 is zero
    y = SPLIT5.from_split_coords((1, -1, 0))
    assert SPLIT5.trace(y) == 0


def test_norm_basics():
    assert SPLIT5.norm(SPLIT5.one) == 1
    x = SPLIT5.from_split_coords((1, 1, 2))
    assert SPLIT5.norm(x) == 2


def test_norm_of_fprime_is_minus_disc():
    # Norm(f'_w(w)) = -disc(f_w), here for w = T in F_5[T]/(T^3-T)
    C = FpCubicAlgebra(5, (0, -1, 0))
    fp = C.add(C.scalar_mul(3, C.mul(T, T)), (-1, 0, 0))  # 3T^2 - 1
    d = disc_cubic(0, -1, 0) % 5
    assert C.norm(fp) == (-d) % 5


def test_charpoly():
    assert SPLIT5.charpoly(SPLIT5.one) == ((-1) % 5, 3 % 5, (-3) % 5)  # (T-1)^3
    assert SPLIT5.charpoly(T) == SPLIT5.f
    w = SPLIT5.from_split_coords((0, 1, 2))
    assert SPLIT5.charpoly(w) == (0, 2, 2)  # T(T-1)(T-2) = T^3+2T^2+2T mod 5


def test_charpoly_annihilates():
    # Cayley-Hamilton; disc_charpoly and trace_dual_basis are only as right as this
    rng = random.Random(1)
    for k in (1, 3):
        for B in canonical_algebras(7).values():
            alg = B.at_precision(k)
            m = alg.modulus
            for _ in range(20):
                x = tuple(rng.randrange(m) for _ in range(3))
                c0, c1, c2 = alg.charpoly(x)
                x2 = alg.mul(x, x)
                val = alg.add(
                    alg.add(alg.mul(x2, x), alg.scalar_mul(c2, x2)),
                    alg.add(alg.scalar_mul(c1, x), (c0, 0, 0)),
                )
                assert val == (0, 0, 0)
                assert c0 == (-alg.norm(x)) % m and c2 == (-alg.trace(x)) % m
                # negative and unreduced coordinates give the same polynomial
                unreduced = tuple(v + rng.choice((-2, -1, 3)) * m for v in x)
                assert alg.charpoly(unreduced) == (c0, c1, c2)


def test_is_generator_by_type():
    assert SPLIT5.is_generator(SPLIT5.from_split_coords((0, 1, 2)))
    assert not SPLIT5.is_generator(SPLIT5.from_split_coords((1, 1, 1)))
    inert = canonical_algebras(5)["inert"]
    assert not inert.is_generator((2, 0, 0))  # scalars never generate
    assert inert.is_generator(T)
    mixed = canonical_algebras(5)["mixed"]
    # generator iff the quadratic-factor coordinate is outside F_p;
    # T itself generates whenever f has a T^2-free irreducible part
    assert mixed.is_generator(T) == (mixed.disc_charpoly(T) != 0)


def test_generator_iff_nonzero_disc_exhaustive_p5():
    for alg in canonical_algebras(5).values():
        for x in alg.elements():
            gen = alg.is_generator(x)
            assert gen == (alg.disc_charpoly(x) != 0)


def test_trace_dual_basis_duality():
    rng = random.Random(2)
    for p in (5, 7, 11, 13):
        for alg in canonical_algebras(p).values():
            found = 0
            while found < 50:
                x = tuple(rng.randrange(p) for _ in range(3))
                if not alg.is_generator(x):
                    continue
                found += 1
                z = alg.trace_dual_basis(x)
                pows = [alg.one, x, alg.mul(x, x)]
                for i in range(3):
                    for j in range(3):
                        assert alg.trace(alg.mul(pows[i], z[j])) == (1 if i == j else 0)


def test_trace_dual_norm_identity():
    rng = random.Random(3)
    for p in (5, 7, 11):
        for alg in canonical_algebras(p).values():
            for _ in range(10):
                x = tuple(rng.randrange(p) for _ in range(3))
                if not alg.is_generator(x):
                    continue
                z0, z1, z2 = alg.trace_dual_basis(x)
                d = alg.disc_charpoly(x)
                assert alg.norm(z2) * d % p == (-1) % p


def test_trace_additive_norm_multiplicative():
    rng = random.Random(4)
    for p in (5, 13):
        for alg in canonical_algebras(p).values():
            for _ in range(40):
                a = tuple(rng.randrange(p) for _ in range(3))
                b = tuple(rng.randrange(p) for _ in range(3))
                assert alg.trace(alg.add(a, b)) == (alg.trace(a) + alg.trace(b)) % p
                assert alg.norm(alg.mul(a, b)) == alg.norm(a) * alg.norm(b) % p


def test_trace_pairing_nondegenerate_exhaustive():
    # for nonzero x and a generator w, some Tr(x w^m) != 0, m <= 2
    for alg in canonical_algebras(5).values():
        w = next(x for x in alg.elements() if alg.is_generator(x))
        pows = [alg.one, w, alg.mul(w, w)]
        for x in alg.elements():
            if x == (0, 0, 0):
                continue
            assert any(alg.trace(alg.mul(x, wm)) != 0 for wm in pows)


def test_splitting_type_metadata():
    algs = canonical_algebras(7)
    assert algs["split"].frobenius_sign == 1 and algs["split"].fixed_labels == 3
    assert algs["mixed"].frobenius_sign == -1 and algs["mixed"].fixed_labels == 1
    assert algs["inert"].frobenius_sign == 1 and algs["inert"].fixed_labels == 0


def test_fp_algebra_is_the_k1_case():
    B = FpCubicAlgebra(5, (1, 1, 0))
    assert type(B) is ZpCubicAlgebra
    assert (B.k, B.modulus) == (1, 5) and B.reduced is B
    assert B == ZpCubicAlgebra(5, 1, (6, -4, 10))
    A = ZpCubicAlgebra(5, 3, (1, 1, 0))
    assert A.reduced == B and A.reduced.k == 1
    assert (A.splitting_type, A.frobenius_sign, A.fixed_labels) == (
        B.splitting_type, B.frobenius_sign, B.fixed_labels,
    )
    # the residue-field data describe A/pA at every precision
    assert A.unit_group_order() == B.unit_group_order() == 5**3 - 1
    assert A.element_order((0, 1, 0)) == B.element_order((0, 1, 0))


def test_inverse():
    rng = random.Random(5)
    for alg in canonical_algebras(7).values():
        for _ in range(20):
            x = tuple(rng.randrange(7) for _ in range(3))
            if not alg.is_unit(x):
                continue
            assert alg.mul(x, alg.inv(x)) == alg.one


# -- Z/p^k layer --------------------------------------------------------------


def test_zp_mod_pk_mul_and_inverse():
    A = ZpCubicAlgebra(5, 3, (1, 1, 0))
    rng = random.Random(6)
    for _ in range(20):
        x = tuple(rng.randrange(125) for _ in range(3))
        if not A.is_unit(x):
            continue
        assert A.mul(x, A.inv(x)) == A.one


def test_period_examples():
    A = ZpCubicAlgebra.from_split_roots(5, 3, (0, 1, 2))
    eta = A.from_split_coords((1, 6, 11))
    assert A.period(eta) == 1
    # eta = 1 mod p always has period 1
    assert A.period(A.one) == 1
    C = ZpCubicAlgebra(5, 2, (1, 1, 0))
    assert C.splitting_type == "inert"
    assert 124 % C.period(T) == 0


def test_period_divides_group_order_and_coprime_p():
    rng = random.Random(7)
    for p in (5, 7):
        for fint in [(1, 1, 0), (0, 2, 0)]:
            A = ZpCubicAlgebra(p, 2, fint)
            N = A.unit_group_order()
            for _ in range(10):
                x = tuple(rng.randrange(p * p) for _ in range(3))
                if not A.is_unit(x):
                    continue
                P = A.period(x)
                assert N % P == 0 and P % p != 0


def test_log_tangent():
    A = ZpCubicAlgebra.from_split_roots(5, 3, (0, 1, 2))
    eta = A.from_split_coords((1, 6, 11))
    U, om = A.log_tangent(eta, 1)
    assert A.reduced.split_coords(om) == (0, 1, 2)
    # eta = 1 + p*Omega, P=1 -> U = Omega
    assert A.at_precision(2).split_coords(U) == (0 % 25, 1, 2)
    with pytest.raises(PrecisionError):
        ZpCubicAlgebra(5, 1, (1, 1, 0)).log_tangent((0, 1, 0), None)


def test_split_coords_roundtrip_mod_25():
    A = ZpCubicAlgebra.from_split_roots(5, 2, (0, 6, 12))
    x = A.from_split_coords((1, 6, 11))
    assert A.split_coords(x) == (1, 6, 11)
    # trace/norm commute with the conversion
    assert A.trace(x) == (1 + 6 + 11) % 25
    assert A.norm(x) == (1 * 6 * 11) % 25
    assert A.from_split_coords((1, 1, 1)) == A.one
    # roots whose reductions collide give a non-squarefree reduction: rejected
    with pytest.raises(ValueError):
        ZpCubicAlgebra.from_split_roots(5, 2, (0, 6, 11))


def test_hensel_lifted_roots_are_roots():
    A = ZpCubicAlgebra(7, 4, (-6, 11, -6))  # (T-1)(T-2)(T-3)
    m = 7**4
    for r in A.split_roots():
        f0, f1, f2 = A.f
        assert (((r + f2) * r + f1) * r + f0) % m == 0
    assert tuple(r % 7 for r in A.split_roots()) == (1, 2, 3)


def test_split_roots_survive_precision_raise():
    # a root above p^k must stay a root after at_precision lifts the modulus
    A = ZpCubicAlgebra.from_split_roots(5, 2, (0, 26, 7))
    B = A.at_precision(4)
    m = 5**4
    f0, f1, f2 = B.f
    for r in B.split_roots():
        assert (((r + f2) * r + f1) * r + f0) % m == 0
    assert 26 % m in B.split_roots()
    x = B.from_split_coords((3, 4, 5))
    assert B.split_coords(x) == (3, 4, 5)


def test_split_coords_rejects_non_split():
    inert = canonical_algebras(5)["inert"]
    with pytest.raises(ValueError):
        inert.split_coords((1, 0, 0))
    A = ZpCubicAlgebra(5, 2, canonical_algebras(5)["mixed"].f)
    with pytest.raises(ValueError):
        A.split_roots()


# -- rank-d layer --------------------------------------------------------------


def test_rank_d_basics():
    A = RankDSplitAlgebra(7, 3, 4)
    x = (1, 2, 3, 4)
    assert A.trace(x) == 10
    assert A.norm(x) == 24
    assert A.mul(x, A.inv(x)) == A.one
    assert A.pow(x, 3) == tuple(pow(c, 3, 343) for c in x)


def test_rank_d_power_dual_basis():
    A = RankDSplitAlgebra(7, 3, 3)
    omega = (1, 2, 3)
    duals = A.power_dual_basis(omega)
    pows = [A.one, omega, A.mul(omega, omega)]
    for i in range(3):
        for j in range(3):
            assert A.trace(A.mul(pows[i], duals[j])) == (1 if i == j else 0)


def test_rank_d_period():
    A = RankDSplitAlgebra(7, 2, 3)
    eta = tuple((1 + 7 * w) % 49 for w in (1, 2, 3))
    assert A.period(eta) == 1
    U, om = A.log_tangent(eta)
    assert om == (1, 2, 3)
