import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubictrace import branch
from cubictrace.algebra import ZpCubicAlgebra, disc_cubic, vp
from cubictrace.branch import (
    ALL_CLASSES,
    NO_CLASSES,
    REDUCED,
    BranchContext,
    binomial_cutoff,
    brute_force_zero_oracle,
    certified_zero_set,
    cubic_degenerate,
    denominator_clear,
    digit_recursion,
    finite_jet,
    higher_order_transverse,
    primitive_reduce,
    quadratic_singular,
    shifted_jet,
)


def split5(k=5):
    return ZpCubicAlgebra.from_split_roots(5, k, (0, 1, 2))


def singular_splits_context(k=3, c=0):
    """The worked example: p=5, eta=(1,6,11), gamma=(1,-2,1)."""
    A = split5()
    eta = A.from_split_coords((1, 6, 11))
    gamma = A.from_split_coords((1, -2, 1))
    return BranchContext(A, eta, gamma, c=c, k=k)


def random_zp_algebra(rng, p, k):
    while True:
        f = tuple(rng.randrange(p) for _ in range(3))
        if disc_cubic(f[2], f[1], f[0]) % p:
            return ZpCubicAlgebra(p, k, f)


def random_unit(rng, A):
    while True:
        x = tuple(rng.randrange(A.modulus) for _ in range(3))
        if A.is_unit(x):
            return x


def class_descriptors(ctx):
    """The descriptors of the classes a mod P that survive mod p."""
    return [d for d in certified_zero_set(ctx).descriptors if d.kind != "dead-mod-p"]


def descriptor(ctx, a):
    return next(d for d in certified_zero_set(ctx).descriptors if d.a == a)


def weierstrass_degree(desc):
    """The index of the last nonzero coefficient of the class's jet."""
    return max(m for m, c in enumerate(desc.data["jet"]) if c)


def series_value(ctx, a, t, N):
    """F_{a,c}(t) mod p^N as the binomial sum of C'_m p^m binom(t, m), m < M(N)."""
    p = ctx.p
    cs = ctx.class_coefficients(a, binomial_cutoff(N, p))
    return sum(C * p**m * comb(t, m) for m, C in enumerate(cs)) % p**N


# -- clearing and reduction ----------------------------------------------------


def test_denominator_clear():
    # integral input: unchanged
    g, c, e, e_aff = denominator_clear(5, (1, 2, 3), 0, 7)
    assert (g, c, e, e_aff) == ((1, 2, 3), 7, 0, 0)
    # gamma = gamma0/p, c = 1 -> e_aff = 1, target 5
    g, c, e, e_aff = denominator_clear(5, (1, 2, 3), 1, 1)
    assert e == 1 and e_aff == 1 and g == (1, 2, 3) and c == 5
    # gamma integral, c = 1/p^2 -> e_aff = 2
    g, c, e, e_aff = denominator_clear(5, (1, 0, 0), 0, Fraction(1, 25))
    assert e == 0 and e_aff == 2 and g == (25, 0, 0) and c == 1
    with pytest.raises(ValueError):
        denominator_clear(5, (1, 0, 0), 0, Fraction(1, 3))


def test_primitive_reduce_trichotomy():
    assert primitive_reduce(5, (0, 0, 0), 0, 3).tag == ALL_CLASSES
    assert primitive_reduce(5, (0, 0, 0), 5, 3).tag == NO_CLASSES
    # gamma = p*gamma0, c = 1, k = 2: case (b)
    assert primitive_reduce(5, (5, 10, 5), 1, 2).tag == NO_CLASSES
    # gamma = p*gamma0, c = p, k = 3: case (c) -> (gamma0, 1, 2, 1)
    r = primitive_reduce(5, (5, 10, 5), 5, 3)
    assert r.tag == REDUCED and r.gamma0 == (1, 2, 1) and r.c0 == 1
    assert r.k0 == 2 and r.s_div == 1
    # k <= s: all classes iff c = 0 mod p^k
    assert primitive_reduce(5, (25, 0, 50), 0, 2).tag == ALL_CLASSES
    assert primitive_reduce(5, (25, 0, 50), 5, 2).tag == NO_CLASSES


# -- series ----------------------------------------------------------------------


def test_branch_series_constant_term():
    ctx = singular_splits_context(k=3)
    # t = 0: series value is T_a - c
    assert series_value(ctx, 0, 0, 3) == ctx.f_eval(0, 0, 3)
    # worked example: T_0 = 0 and Tr(gamma*Omega) = 0, so b_0 = C'_0 = 0 mod 125
    # and b_1 = 5 C'_1 = 0 mod 25
    c0, c1 = ctx.class_coefficients(0, 2)
    assert c0 % 125 == 0
    assert 5 * c1 % 25 == 0


def test_branch_series_matches_direct_evaluation():
    rng = random.Random(10)
    for p in (5, 7):
        A = random_zp_algebra(rng, p, 5)
        eta = random_unit(rng, A)
        gamma = tuple(rng.randrange(A.modulus) for _ in range(3))
        while all(g % p == 0 for g in gamma):
            gamma = tuple(rng.randrange(A.modulus) for _ in range(3))
        c = rng.randrange(p**2)
        ctx = BranchContext(A, eta, gamma, c=c, k=5)
        for _ in range(100):
            a = rng.randrange(ctx.P)
            N = rng.randrange(1, 6)
            t = rng.randrange(p ** (N + 1))
            assert series_value(ctx, a, t, N) == ctx.f_eval(a, t, N)


def test_translation_identity():
    rng = random.Random(11)
    A = random_zp_algebra(rng, 7, 4)
    eta = random_unit(rng, A)
    gamma = random_unit(rng, A)
    ctx = BranchContext(A, eta, gamma, c=3, k=4)
    for _ in range(20):
        a = rng.randrange(ctx.P)
        j = rng.randrange(1, 4)
        t = rng.randrange(7**3)
        assert ctx.f_eval(a + ctx.P * j, t, 4) == ctx.f_eval(a, t + j, 4)


# -- mod-p classes and classification ---------------------------------------------


def test_mod_p_classes_singular_splits():
    ctx = singular_splits_context()
    assert [d.a for d in class_descriptors(ctx)] == [0]


def test_mod_p_classes_empty_fiber():
    # gamma a unit, c chosen so the trace fiber over the orbit is empty
    rng = random.Random(12)
    A = random_zp_algebra(rng, 5, 3)
    eta = A.one  # P = 1: single class, trace(gamma) fixed
    gamma = random_unit(rng, A)
    bad_c = (A.trace(gamma) + 1) % 5
    ctx = BranchContext(A, eta, gamma, c=bad_c, k=3)
    assert class_descriptors(ctx) == []


def test_mod_p_classes_orbit_form():
    rng = random.Random(13)
    A = random_zp_algebra(rng, 7, 3)
    red = A.reduced
    eta = random_unit(rng, A)
    gamma = random_unit(rng, A)
    c = rng.randrange(7)
    ctx = BranchContext(A, eta, gamma, c=c, k=3)
    # bijection with {h in <eta-bar> : Tr(gamma-bar h) = c-bar}
    etab = red.reduce(eta)
    gb = red.reduce(gamma)
    orbit_count = 0
    h = red.one
    for _ in range(ctx.P):
        if red.trace(red.mul(gb, h)) == c % 7:
            orbit_count += 1
        h = red.mul(h, etab)
    assert len(class_descriptors(ctx)) == orbit_count


def test_classify_scalar_tangent():
    # omega scalar, nonzero affine target: every class transverse with d_a = lambda*s
    p = 5
    A = ZpCubicAlgebra(p, 4, (1, 1, 0))
    lam = 2
    eta = A.add(A.one, A.scalar_mul(p * lam, A.one))  # 1 + p*lambda
    rng = random.Random(14)
    gamma = random_unit(rng, A)
    c = A.trace(gamma) % p  # hit the class a = 0
    if c == 0:
        c = p  # keep target reduction nonzero? fall back below
    ctx = BranchContext(A, eta, gamma, c=A.trace(gamma), k=4)
    s = ctx.s0
    if s != 0:
        assert descriptor(ctx, 0).data["d_a"] == lam * s % p


def test_classify_singular_splits():
    ctx = singular_splits_context()
    d = descriptor(ctx, 0)
    assert d.data["d_a"] == 0 and d.data["delta_a"] == 2
    assert d.data["shift"] == 2 and d.data["jet"] == (0, 0, 2)
    # zero lower obstruction: the singular class is not cut off mod p^2, and
    # it has no single transverse branch
    assert d.kind == "singular-simple-root" and "tau" not in d.data


def test_classify_transverse_tau_matches_certified():
    rng = random.Random(30)
    A = random_zp_algebra(rng, 7, 5)
    eta = random_unit(rng, A)
    gamma = random_unit(rng, A)
    ctx = BranchContext(A, eta, gamma, c=0, k=4)
    res = certified_zero_set(ctx)
    checked = 0
    for d in res.descriptors:
        if d.kind != "transverse-simple":
            continue
        tau = d.data["tau"]
        # first digit rho = -((T_a - c)/p) / d_a mod p, then Hensel's unique lift
        t_diff = ctx.class_coefficients(d.a, 1)[0]
        assert tau % 7 == -(t_diff % 49 // 7) * pow(d.data["d_a"], -1, 7) % 7
        assert ctx.f_eval(d.a, tau, ctx.k0) == 0
        assert list(d.residues) == digit_recursion(ctx, d.a) == [tau % 7 ** (ctx.k0 - 1)]
        checked += 1
    assert checked > 0


def test_classify_singular_nonzero_obstruction_dies():
    # a singular class with nonzero lower obstruction has no lift mod p^2
    rng = random.Random(31)
    found = 0
    while found < 3:
        A = random_zp_algebra(rng, 5, 4)
        eta = random_unit(rng, A)
        gamma = random_unit(rng, A)
        ctx = BranchContext(A, eta, gamma, c=0, k=4)
        for d in class_descriptors(ctx):
            if d.data["d_a"]:
                continue
            obstruction = ctx.class_coefficients(d.a, 1)[0] % 25 // 5
            assert (d.kind == "singular-obstructed") == (obstruction != 0)
            if obstruction:
                assert d.residues == ()
                assert digit_recursion(ctx, d.a, 2) == []
                found += 1


def test_quadratic_singular_worked_example():
    ctx = singular_splits_context()
    qs = quadratic_singular(ctx, 0)
    assert qs.Q == (0, 0, 2)  # Q_0 = 2*binom(X,2) = X(X-1)
    assert qs.alternative == "TwoSimple" and set(qs.roots) == {0, 1}


def versal_context(A0, B0, C0, k=5):
    """gamma = (C0/2)(1,-2,1) + 5(-B0,B0,0) + 25(A0,0,0) in Z_5^3."""
    A = split5(k + 1)
    m = A.modulus
    half = pow(2, -1, m)
    x = A.from_split_coords((C0 * half % m, -2 * C0 * half % m, C0 * half % m))
    y = A.from_split_coords((-B0 % m, B0 % m, 0))
    z = A.from_split_coords((A0 % m, 0, 0))
    gamma = A.add(x, A.add(A.scalar_mul(5, y), A.scalar_mul(25, z)))
    eta = A.from_split_coords((1, 6, 11))
    return BranchContext(A, eta, gamma, c=0, k=k)


def test_versal_alternatives_table():
    # (0,0): two simple; (2,1): no root; (0,1): double root
    assert quadratic_singular(versal_context(0, 0, 2), 0).alternative == "TwoSimple"
    assert quadratic_singular(versal_context(2, 1, 2), 0).alternative == "NoRoot"
    assert quadratic_singular(versal_context(0, 1, 2), 0).alternative == "DoubleRoot"


def test_versality_exhaustive_p5():
    # every quadratic with nonzero leading binomial coefficient is realized exactly
    for C0 in range(1, 5):
        for A0 in range(5):
            for B0 in range(5):
                qs = quadratic_singular(versal_context(A0, B0, C0), 0)
                assert qs.Q == (A0, B0, C0)


def test_weierstrass_quadratic():
    ctx = versal_context(0, 1, 2, k=5)
    d = descriptor(ctx, 0)
    assert d.kind == "quadratic-weierstrass-disk"
    assert quadratic_singular(ctx, 0).alternative == "DoubleRoot"
    (disk,) = d.data["branches"]
    assert disk["root"] == 0 and disk["degree"] == 2
    W = disk["factor"]
    # monic quadratic with lower coefficients in pZ
    assert W[2] == 1 and W[0] % 5 == 0 and W[1] % 5 == 0
    # residue-disk congruence solutions match the brute-force zero set
    p, k0 = 5, ctx.k0
    disk = [t for t in brute_force_zero_oracle(ctx) if t % p == 0]
    from cubictrace.branch import _poly_eval

    want = [
        t
        for t in range(0, p ** (k0 - 1), p)
        if _poly_eval(W, t, p ** (k0 - 2)) == 0
    ]
    assert sorted(t % p ** (k0 - 1) for t in disk) == want


def double_root_versal(rng, p, k):
    """Split context whose class 0 has a double-root quadratic model, with a planted zero.

    With eta = 1 + p*w, x = (w2-w3, w3-w1, w1-w2) has Tr(x) = Tr(x w) = 0,
    y = lam*(-1, 1, 0) and z = (A, 0, 0); then F(t) = p^2 Q(t) mod p^3 with
    Q = A + B t + delta binom(t, 2), and A is chosen so that Q has zero
    discriminant.  A multiple of p^3 added to gamma's first coordinate makes
    F vanish mod p^k at a random t0 on the double-root disk.
    """
    m = p**k
    roots = [r + p * rng.randrange(p ** (k - 1)) for r in rng.sample(range(p), 3)]
    A = ZpCubicAlgebra.from_split_roots(p, k, roots)
    w = rng.sample(range(p), 3)
    eta = [(1 + p * wi) % m for wi in w]
    x = [w[1] - w[2], w[2] - w[0], w[0] - w[1]]
    delta = sum(xi * wi * wi for xi, wi in zip(x, w)) % p
    B = rng.randrange(p)
    lam = B * pow(w[1] - w[0], -1, p) % p
    half = pow(2, -1, p)
    A0 = (B - delta * half) ** 2 * pow(2 * delta, -1, p) % p
    gamma = [(x[0] - p * lam + p * p * A0) % m, (x[1] + p * lam) % m, x[2] % m]
    rho = next(r for r in range(p) if (A0 + B * r + delta * half * r * (r - 1)) % p == 0)
    t0 = rho + p * rng.randrange(p ** (k - 2))
    value = sum(g * pow(e, t0, m) for g, e in zip(gamma, eta)) % m
    assert value % p**3 == 0
    gamma[0] = (gamma[0] - value * pow(eta[0], -t0, m)) % m
    ctx = BranchContext(A, A.from_split_coords(eta), A.from_split_coords(gamma), c=0, k=k)
    return ctx, t0


def test_certified_equals_oracle_on_double_root_disks():
    rng = random.Random(40)
    for p, k in ((5, 7), (7, 6), (11, 5)):
        for _ in range(3):
            ctx, t0 = double_root_versal(rng, p, k)
            res = certified_zero_set(ctx)
            assert [d.kind for d in res.descriptors] == ["quadratic-weierstrass-disk"]
            assert t0 % p ** (k - 1) in res.classes
            assert res.classes == brute_force_zero_oracle(ctx)


def test_double_root_disk_work_is_polynomial(monkeypatch):
    # a p^(k-2)-point scan of the disk makes about 1.77 million evaluations here
    ctx, t0 = double_root_versal(random.Random(41), 11, 8)
    calls = 0
    poly_eval = branch._poly_eval

    def counting(f, x, m):
        nonlocal calls
        calls += 1
        return poly_eval(f, x, m)

    monkeypatch.setattr(branch, "_poly_eval", counting)
    res = certified_zero_set(ctx)
    assert res.descriptors[0].kind == "quadratic-weierstrass-disk"
    assert t0 % 11**7 in res.classes
    assert calls < 10**4


def _disk_scan_reference(W, rho, p, s_shift, k0):
    """Reference: test W at every point Y = pu, u < p^(k0-2), of the disk."""
    q_out = p ** (k0 - s_shift)
    mod_t = p ** (k0 - 1)
    return sorted(
        {
            (rho + p * u) % mod_t
            for u in range(p ** (k0 - 2))
            if branch._poly_eval(W, p * u, q_out) == 0
        }
    )


@st.composite
def disk_factors(draw):
    """(W, rho, p, s_shift, k0): monic W = Y^e mod p with coefficients mod p^N."""
    p = draw(st.sampled_from([5, 7, 11]))
    e = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(1, 5))
    s_shift = draw(st.integers(2, 3))
    k0 = N + s_shift
    assume(p ** (k0 - 2) <= 20_000)
    q = p**N
    if draw(st.booleans()):
        # product of linear factors Y - p*r: clustered and repeated roots
        W = [1]
        for _ in range(e):
            r = draw(st.integers(0, p ** (N - 1)))
            W = [(a - p * r * b) % q for a, b in zip([0] + W, W + [0])]
    else:
        W = [p * draw(st.integers(0, q)) % q for _ in range(e)] + [1]
    return W, draw(st.integers(0, p - 1)), p, s_shift, k0


@settings(max_examples=150, deadline=None)
@given(disk_factors())
def test_disk_solutions_equal_scan(case):
    W, rho, p, s_shift, k0 = case
    assert branch._disk_solutions(W, rho, p, s_shift, k0) == _disk_scan_reference(
        W, rho, p, s_shift, k0
    )


def build_cubic_degenerate(p, k, fint, c, a0, b1, b2):
    A = ZpCubicAlgebra(p, k, fint)
    W = (0, 1, 0)
    eta = A.add(A.one, A.scalar_mul(p, W))
    z0, z1, z2 = A.trace_dual_basis(W)
    gamma = A.add(
        A.add(A.scalar_mul(c + p**3 * a0, z0), A.scalar_mul(p**2 * b1, z1)),
        A.scalar_mul(p * b2, z2),
    )
    return BranchContext(A, eta, gamma, c=c, k=k - 1)


def test_cubic_degenerate():
    # inert-type algebra with omega = T a unit generator
    ctx = build_cubic_degenerate(5, 6, (1, 1, 0), 2, 1, 1, 1)
    cd = cubic_degenerate(ctx, 0)
    lead = 2 * ctx.A.reduced.norm((0, 1, 0)) % 5
    assert cd.R == (1, 1, 1, lead)
    res = certified_zero_set(ctx)
    assert res.classes == brute_force_zero_oracle(ctx)
    # the trace identities Tr(x w)=0, Tr(x w^2)=0, Tr(x w^3)=s*Norm(w)
    red = ctx.A.reduced
    x = red.reduce(ctx.class_point(0))
    w = ctx.omega
    assert red.trace(red.mul(x, w)) == 0
    assert red.trace(red.mul(x, red.mul(w, w))) == 0
    assert red.trace(red.mul(x, red.mul(w, red.mul(w, w)))) == lead


def test_cubic_degenerate_refuses_s_zero():
    A = split5(6)
    W = A.from_split_coords((1, 2, 4))  # unit generator
    eta = A.add(A.one, A.scalar_mul(5, W))
    z0, _, _ = A.trace_dual_basis(W)
    ctx = BranchContext(A, eta, z0, c=0, k=4)
    with pytest.raises(ValueError):
        cubic_degenerate(ctx, 0)


# -- jets ---------------------------------------------------------------------------


def test_finite_jet_first_order():
    rng = random.Random(15)
    A = random_zp_algebra(rng, 7, 4)
    eta = random_unit(rng, A)
    gamma = random_unit(rng, A)
    ctx = BranchContext(A, eta, gamma, c=0, k=4)
    for a in [d.a for d in class_descriptors(ctx)]:
        jet = finite_jet(ctx, a, 1)
        cs = ctx.class_coefficients(a, 2)
        assert jet == ((cs[0] // 7) % 7, cs[1] % 7)


def test_finite_jet_consistency_with_quadratic():
    ctx = singular_splits_context(k=4)
    jet = finite_jet(ctx, 0, 2)
    qs = quadratic_singular(ctx, 0)
    assert jet == qs.Q


def test_finite_jet_roots_are_surviving_digits():
    rng = random.Random(16)
    checked = 0
    while checked < 8:
        A = random_zp_algebra(rng, 7, 5)
        eta = random_unit(rng, A)
        gamma = random_unit(rng, A)
        ctx = BranchContext(A, eta, gamma, c=rng.randrange(7), k=5)
        for d in class_descriptors(ctx):
            a, r = d.a, d.data["shift"]
            if r >= ctx.k0:
                continue
            jet = finite_jet(ctx, a, r)
            surviving = {
                t % 7 for t in range(7) if ctx.f_eval(a, t, r + 1) == 0
            }
            from cubictrace.branch import _binom_to_monomial, _poly_eval

            mono = _binom_to_monomial(jet, 7)
            roots = {x for x in range(7) if _poly_eval(mono, x, 7) == 0}
            assert roots == surviving
            checked += 1


def test_shifted_jet_matches_base_jet():
    ctx = singular_splits_context(k=4)
    assert shifted_jet(ctx, 0, 0, 0, 2) == finite_jet(ctx, 0, 2)


def test_shifted_jet_identically_zero():
    # F identically zero: gamma = c*z0 with omega = (0,1,2); all digits survive
    A = split5(6)
    W = A.from_split_coords((0, 1, 2))
    eta = A.add(A.one, A.scalar_mul(5, W))
    z0, _, _ = A.trace_dual_basis(W)
    ctx = BranchContext(A, eta, A.scalar_mul(2, z0), c=2, k=4)
    jet = shifted_jet(ctx, 0, 1, 1, 4)
    assert all(c == 0 for c in jet)
    assert digit_recursion(ctx, 0, 4) == list(range(125))


# -- recursion, certified set, oracle ----------------------------------------------


def test_digit_recursion_transverse_stability():
    rng = random.Random(17)
    A = random_zp_algebra(rng, 5, 5)
    eta = random_unit(rng, A)
    gamma = random_unit(rng, A)
    ctx = BranchContext(A, eta, gamma, c=0, k=5)
    for d in class_descriptors(ctx):
        if d.data["d_a"] != 0:
            for k in (2, 3, 4, 5):
                assert len(digit_recursion(ctx, d.a, k)) == 1


def test_digit_recursion_singular_splits():
    ctx = singular_splits_context()
    r = digit_recursion(ctx, 0, 3)
    assert sorted({t % 5 for t in r}) == [0, 1]
    assert r == [t for t in range(25) if t % 5 in (0, 1)]


def test_all_transverse_stability():
    # when every class is transverse, #Z_p(k) is constant in k
    rng = random.Random(18)
    found = 0
    while found < 5:
        A = random_zp_algebra(rng, 7, 5)
        eta = random_unit(rng, A)
        gamma = random_unit(rng, A)
        ctx = BranchContext(A, eta, gamma, c=0, k=5)
        classes = class_descriptors(ctx)
        if not classes:
            continue
        if any(d.data["d_a"] == 0 for d in classes):
            continue
        sizes = set()
        for k in (2, 3, 4, 5):
            ctx_k = BranchContext(A, eta, gamma, c=0, k=k)
            sizes.add(len(certified_zero_set(ctx_k).classes))
        assert sizes == {len(classes)}
        found += 1


def test_certified_all_solutions():
    A = split5(4)
    eta = random_unit(random.Random(19), A)
    ctx = BranchContext(A, eta, (0, 0, 0), c=0, k=3)
    res = certified_zero_set(ctx)
    assert res.descriptors[0].kind == "all-solutions"
    assert res.classes == list(range(ctx.P * 25))
    assert res.classes == brute_force_zero_oracle(ctx)


def test_certified_impossible_target():
    A = split5(4)
    eta = A.one
    gamma = A.from_split_coords((1, -1, 0))  # trace 0 exactly on the whole orbit
    ctx = BranchContext(A, eta, gamma, c=1, k=2)
    assert certified_zero_set(ctx).classes == []
    assert brute_force_zero_oracle(ctx) == []


def test_inflation_rule():
    # gamma = p*gamma0, c = p*c0, k = 4: each reduced class mod p^2 gives 5 classes mod p^3
    rng = random.Random(20)
    A = random_zp_algebra(rng, 5, 6)
    eta = random_unit(rng, A)
    gamma0 = random_unit(rng, A)
    gamma = tuple(5 * g for g in gamma0)
    c0 = A.trace(gamma0)  # guarantees a nonempty fiber
    ctx = BranchContext(A, eta, gamma, c=5 * c0, k=4)
    assert ctx.reduction.s_div == 1 and ctx.k0 == 3
    res = certified_zero_set(ctx)
    assert res.classes == brute_force_zero_oracle(ctx)
    ctx0 = BranchContext(A, eta, gamma0, c=c0, k=3)
    res0 = certified_zero_set(ctx0)
    assert len(res.classes) == 5 * len(res0.classes)


def test_oracle_cap_enforced():
    A = split5(4)
    eta = A.from_split_coords((1, 6, 11))
    ctx = BranchContext(A, eta, (1, 0, 0), c=0, k=4)
    with pytest.raises(ValueError):
        brute_force_zero_oracle(ctx, cap=10)
    assert brute_force_zero_oracle(ctx, cap=10**6) is not None


def test_oracle_periodicity():
    rng = random.Random(21)
    A = random_zp_algebra(rng, 5, 3)
    eta = random_unit(rng, A)
    gamma = random_unit(rng, A)
    ctx = BranchContext(A, eta, gamma, c=1, k=3)
    zeros = set(brute_force_zero_oracle(ctx))
    mod = ctx.P * 25
    for n in list(zeros)[:10]:
        t = n + mod
        val = (
            A.trace(A.mul(A.reduce(gamma), A.pow(A.reduce(eta), t))) - 1
        ) % 125
        assert val == 0


def test_certified_equals_oracle_randomized():
    rng = random.Random(22)
    from fractions import Fraction as Fr

    tested = 0
    while tested < 60:
        p = rng.choice([5, 7, 11])
        A = random_zp_algebra(rng, p, 6)
        eta = random_unit(rng, A)
        gamma = tuple(rng.randrange(A.modulus) for _ in range(3))
        gden = 0
        style = rng.randrange(4)
        if style == 1:
            gamma = tuple(g * p ** rng.randrange(1, 3) for g in gamma)
        elif style == 2:
            gden = rng.randrange(1, 3)
        c = rng.choice([0, rng.randrange(p**3), Fr(rng.randrange(1, p * p), p)])
        k = rng.randrange(1, 6)
        ctx = BranchContext(A, eta, gamma, c=c, k=k, gamma_den=gden)
        if ctx.P * p ** (ctx.k_work - 1) > 200_000:
            continue
        assert certified_zero_set(ctx).classes == brute_force_zero_oracle(ctx)
        tested += 1


def test_per_class_zero_bound_homogeneous():
    # primitive homogeneous classes with the basis condition: at most 2 zeros
    # each (with Weierstrass multiplicity), total at most 2*#Z_p(1)
    rng = random.Random(23)
    done = 0
    while done < 10:
        A = random_zp_algebra(rng, 7, 5)
        eta = random_unit(rng, A)
        if not A.reduced.is_generator(A.log_tangent(eta)[1]):
            continue
        gamma = random_unit(rng, A)
        ctx = BranchContext(A, eta, gamma, c=0, k=5)
        classes = class_descriptors(ctx)
        for d in classes:
            assert weierstrass_degree(d) <= 2
        res = certified_zero_set(ctx)
        total_mult = 0
        for d in res.descriptors:
            if d.kind == "transverse-simple":
                total_mult += 1
            else:
                total_mult += sum(
                    b.get("degree", 1) for b in d.data.get("branches", [])
                )
        assert total_mult <= 2 * len(classes)
        done += 1


def test_transverse_valuation_law():
    # v_p(F_a(t)) = 1 + v_p(t - tau_a) at 100 random t per transverse class
    rng = random.Random(27)
    p = 7
    A = random_zp_algebra(rng, p, 6)
    eta = random_unit(rng, A)
    gamma = random_unit(rng, A)
    ctx = BranchContext(A, eta, gamma, c=0, k=5)
    res = certified_zero_set(ctx)
    checked = 0
    for d in res.descriptors:
        if d.kind != "transverse-simple":
            continue
        tau = d.data["tau"]
        for _ in range(100):
            t = rng.randrange(p**4)
            want = 1 + vp((t - tau) % p**4, p, cap=4)
            got = vp(ctx.f_eval(d.a, t, 5), p, cap=5)
            assert got == min(want, 5)
            checked += 1
    assert checked > 0


def test_intersection_multiplicity():
    # (p-power shift, Weierstrass degree) of each class, from its descriptor
    d = descriptor(singular_splits_context(k=4), 0)
    assert (d.data["shift"], weierstrass_degree(d)) == (2, 2)
    rng = random.Random(24)
    A = random_zp_algebra(rng, 7, 4)
    eta = random_unit(rng, A)
    gamma = random_unit(rng, A)
    ctx2 = BranchContext(A, eta, gamma, c=0, k=4)
    for d in class_descriptors(ctx2):
        if d.data["d_a"] != 0:
            assert weierstrass_degree(d) == 1
    # cubic degenerate: degree 3
    d3 = descriptor(build_cubic_degenerate(5, 6, (1, 1, 0), 2, 1, 1, 1), 0)
    assert (d3.data["shift"], weierstrass_degree(d3)) == (3, 3)


def test_intersection_multiplicity_indeterminate():
    # identically-zero series: no jet at any finite precision, every t survives
    A = split5(5)
    W = A.from_split_coords((0, 1, 2))
    eta = A.add(A.one, A.scalar_mul(5, W))
    z0, _, _ = A.trace_dual_basis(W)
    ctx = BranchContext(A, eta, A.scalar_mul(2, z0), c=2, k=4)
    d = descriptor(ctx, 0)
    assert d.kind == "class-all-survive" and "jet" not in d.data
    assert d.residues == tuple(range(5**3))
    assert certified_zero_set(ctx).classes == brute_force_zero_oracle(ctx)


def test_higher_order_transverse():
    p = 5
    rng = random.Random(25)
    A = random_zp_algebra(rng, p, 6)
    # eta = 1 + p^2 V: Wieferich-style, P = 1, r = 2
    V = random_unit(rng, A)
    eta = A.add(A.one, A.scalar_mul(p * p, V))
    gamma = random_unit(rng, A)
    c = A.trace(gamma)  # F(0) = 0
    ctx = BranchContext(A, eta, gamma, c=c, k=5)
    d_r = A.trace(A.mul(gamma, V)) % p
    if d_r == 0:
        pytest.skip("unlucky sample: higher tangent vanishes")
    tau, omega_r, got_d = higher_order_transverse(ctx, 0, 2)
    assert got_d == d_r
    # valuation law v(F(t)) = 2 + v(t - tau) at sampled t
    for _ in range(50):
        t = rng.randrange(5**3)
        val = ctx.f_eval(0, t, 5)
        want = 2 + vp((t - tau) % 5**3, 5, cap=3)
        assert vp(val, 5, cap=5) == min(want, 5)


def test_higher_order_transverse_r1_is_transverse():
    rng = random.Random(26)
    A = random_zp_algebra(rng, 7, 4)
    eta = random_unit(rng, A)
    gamma = random_unit(rng, A)
    ctx = BranchContext(A, eta, gamma, c=0, k=4)
    for desc in class_descriptors(ctx):
        if desc.data["d_a"] == 0:
            continue
        tau, _, _ = higher_order_transverse(ctx, desc.a, 1)
        assert desc.kind == "transverse-simple"
        assert desc.data["tau"] % 7 ** (ctx.k0 - 1) == tau % 7 ** (ctx.k0 - 1)
