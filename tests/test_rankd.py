import random

import pytest

from cubictrace.algebra import RankDSplitAlgebra
from cubictrace.branch import (
    BranchContext,
    brute_force_zero_oracle,
    certified_zero_set,
    digit_recursion,
)
from cubictrace.rankd import (
    affine_sharpness,
    jet_versality,
    rankd_classify,
    sharpness_construction,
)


def test_sharpness_construction_examples():
    # p=7, d=3, Omega=(1,2,3): F(0)=F(1)=0, F(2)=49
    A, eta, rep = sharpness_construction(7, 3, (1, 2, 3))
    assert rep.passed
    assert rep.values[:2] == (0, 0) and rep.values[2] == 49
    # p=11, d=4: F(3) = 1331
    A, eta, rep = sharpness_construction(11, 4, (1, 2, 3, 4))
    assert rep.passed and rep.values[3] == 1331
    # gamma coordinates are units
    assert A.is_unit(rep.gamma)


def test_sharpness_zeros_via_generic_engine():
    A, eta, rep = sharpness_construction(7, 3, (1, 2, 3))
    ctx = BranchContext(A, eta, rep.gamma, c=0, k=4)
    zeros = certified_zero_set(ctx).classes
    assert zeros == brute_force_zero_oracle(ctx)
    assert {z % 7 for z in zeros} == {0, 1}
    rec = rankd_classify(ctx, 0, affine=False)
    assert rec.s_shift == 2 and rec.e_degree == 2 and rec.bound == 2


def test_jet_versality_random():
    rng = random.Random(0)
    for p, d in [(5, 3), (7, 3), (7, 4)]:
        for _ in range(15):
            e = rng.randrange(0, d)
            Q = [rng.randrange(p) for _ in range(e + 1)]
            Q[e] = rng.randrange(1, p)
            ctx, rep = jet_versality(p, d, tuple(Q))
            assert rep.passed, (p, d, Q, rep)


def test_jet_versality_constant():
    ctx, rep = jet_versality(7, 3, (3,))
    assert rep.passed and rep.shift == 0


def test_jet_versality_covers_all_cubic_quadratic_jets():
    # every quadratic with nonzero leading binomial coefficient at p=5, d=3
    for c2 in range(1, 5):
        for c0 in range(5):
            for c1 in range(5):
                ctx, rep = jet_versality(5, 3, (c0, c1, c2))
                assert rep.passed


def test_jet_versality_rejects_zero_lead():
    with pytest.raises(ValueError):
        jet_versality(5, 3, (1, 2, 0))


def test_affine_sharpness():
    ctx, rep = affine_sharpness(7, 3)
    assert rep.passed
    assert rep.zeros == (0, 1, 2)
    assert rep.value_at_d == 2058 % 7**5  # -a0 p^d with a0 = -6
    ctx2, rep2 = affine_sharpness(11, 2)
    assert rep2.passed and rep2.zeros == (0, 1)
    # exceptional class is x = c z0: orthogonal to omega, omega^2, trace 1
    A = ctx.A
    x = tuple(c % 7 for c in rep.y)
    red = RankDSplitAlgebra(7, 1, 3)
    om = tuple(w % 7 for w in (1, 2, 3))
    assert red.trace(x) == 1
    assert red.trace(red.mul(x, om)) == 0
    assert red.trace(red.mul(x, red.mul(om, om))) == 0


def test_affine_sharpness_zero_set_via_engine():
    ctx, rep = affine_sharpness(7, 3)
    res = certified_zero_set(ctx)
    assert res.classes == brute_force_zero_oracle(ctx)
    # at precision d+1 the zero classes are exactly t = 0, 1, 2 mod 7
    assert {z % 7 for z in res.classes} == {0, 1, 2}
    assert len(res.classes) == 3 * 7**2
    rec = rankd_classify(ctx, 0, affine=True)
    assert rec.s_shift == 3 and rec.bound == 3 and rec.bound_kind == "affine"


def test_d3_reduces_to_cubic_classification():
    # a rank-3 split context agrees with the cubic engine's answer
    rng = random.Random(1)
    A = RankDSplitAlgebra(7, 4, 3)
    for _ in range(10):
        eta = tuple(1 + 7 * rng.randrange(7) for _ in range(3))
        gamma = tuple(rng.randrange(A.modulus) for _ in range(3))
        if all(g % 7 == 0 for g in gamma):
            continue
        ctx = BranchContext(A, eta, gamma, c=0, k=3)
        assert certified_zero_set(ctx).classes == brute_force_zero_oracle(ctx)


def branch_multiplicity(desc):
    """Zeros with multiplicity represented by one certified descriptor."""
    if desc.kind in ("dead-mod-p", "singular-obstructed", "jet-no-root",
                     "singular-no-root"):
        return 0
    total = 0
    for b in desc.data.get("branches", []):
        total += b.get("degree", 1)
    if desc.kind == "transverse-simple":
        total = 1
    return total


def test_bound_never_violated_random():
    # per-class: certified residues == digit recursion, and the
    # multiplicity-weighted branch count respects the Weierstrass bound
    rng = random.Random(2)
    checked = 0
    while checked < 60:
        p = rng.choice([7, 11])
        d = rng.choice([2, 3, 4])
        A = RankDSplitAlgebra(p, 5, d)
        eta = tuple(rng.randrange(1, A.modulus) for _ in range(d))
        if not A.is_unit(eta):
            continue
        gamma = tuple(rng.randrange(A.modulus) for _ in range(d))
        if all(g % p == 0 for g in gamma):
            continue
        affine = rng.randrange(2) == 1
        c = rng.randrange(p * p) if affine else 0
        ctx = BranchContext(A, eta, gamma, c=c, k=5)
        res = certified_zero_set(ctx)
        for desc in res.descriptors:
            if desc.a is None or desc.kind == "dead-mod-p":
                continue
            assert list(desc.residues) == digit_recursion(ctx, desc.a, ctx.k0)
            if not desc.data.get("branches"):
                continue
            try:
                rec = rankd_classify(ctx, desc.a, affine=c % p != 0)
            except ValueError:
                continue  # hypothesis failure is reported, not a bound claim
            assert branch_multiplicity(desc) <= rec.bound
            checked += 1
