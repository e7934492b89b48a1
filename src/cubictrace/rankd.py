"""Rank-d Weierstrass bounds, sharpness constructions, and jet versality.

All constructions live in the split algebra (Z/p^k)^d and are fed through
the same generic branch machinery (BranchContext over RankDSplitAlgebra),
never special-cased: the point of the sharpness and versality checks is
that the generic engine reproduces the predicted shifts, jets, and zeros.
"""

from dataclasses import dataclass

from .algebra import RankDSplitAlgebra, _invmod
from .branch import BranchContext, _class_jet


@dataclass
class RankDBranchRecord:
    a: int
    s_shift: int | None
    jet: tuple | None
    e_degree: int | None
    bound: int
    bound_kind: str  # "basis" (d-1), "affine" (d), or "subalgebra" (r-1)


def _subalgebra_dim(A, omega):
    """dim F_p[omega] for a split coordinate tuple = #distinct reductions."""
    return len({c % A.p for c in omega})


def rankd_classify(ctx, a, affine=None):
    """Shift, reduced jet, and Weierstrass degree of a rank-d branch class.

    The applicable bound is d-1 (homogeneous, power basis), d (affine,
    omega a unit), or r-1 (tangent-subalgebra refinement); hypothesis
    failures raise.
    """
    A = ctx.A
    p, d = ctx.p, A.d
    if affine is None:
        affine = ctx.c_int % p ** ctx.k_work != 0
    x = tuple(c % p for c in ctx.class_point(a))
    if all(c == 0 for c in x):
        raise ValueError("class reduces to zero: primitive reduction incomplete")
    omega = ctx.omega
    r = _subalgebra_dim(A, omega)
    if r == d:
        if affine:
            if not A.is_unit(omega):
                raise ValueError("affine bound needs omega to be a unit")
            bound, kind = d, "affine"
        else:
            bound, kind = d - 1, "basis"
    else:
        # tangent-subalgebra case: need x outside E_omega^perp
        red = RankDSplitAlgebra(p, 1, d)
        pows = [red.one]
        w = tuple(c % p for c in omega)
        for _ in range(r - 1):
            pows.append(red.mul(pows[-1], w))
        if all(red.trace(red.mul(x, e)) == 0 for e in pows):
            raise ValueError("class is orthogonal to the tangent subalgebra")
        if affine:
            raise ValueError("subalgebra bound is stated for the homogeneous case")
        bound, kind = r - 1, "subalgebra"
    s_shift, jet = _class_jet(ctx, a, ctx.k0)
    e = None if jet is None else len(jet) - 1
    if jet is not None and (s_shift > bound or e > bound):
        raise ArithmeticError(f"{kind} bound {bound} exceeded: shift {s_shift}, degree {e}")
    return RankDBranchRecord(a, s_shift, jet, e, bound, kind)


@dataclass
class SharpnessReport:
    gamma: tuple
    values: tuple  # F(0), ..., F(d-1) mod p^K
    expected_last: int
    passed: bool


def sharpness_construction(p, d, Omega):
    """gamma_i = p^(d-1)/prod(q_i - q_j) realizing F(0)=...=F(d-2)=0, F(d-1)=p^(d-1)."""
    A = RankDSplitAlgebra(p, d + 2, d)
    m = A.modulus
    Om = [int(w) for w in Omega]
    if len(Om) != d or len({w % p for w in Om}) != d:
        raise ValueError("Omega must have d pairwise distinct reductions")
    eta = tuple((1 + p * w) % m for w in Om)
    gamma = []
    for i in range(d):
        den = 1
        for j in range(d):
            if j != i:
                den = den * (Om[i] - Om[j]) % m
        gamma.append(_invmod(den, m))  # p^(d-1)/prod(q_i-q_j) = 1/prod(Om_i-Om_j)
    gamma = tuple(gamma)
    if not A.is_unit(gamma):
        raise ArithmeticError("sharpness coefficient gamma is not a unit")
    values = tuple(A.trace(A.mul(gamma, A.pow(eta, r))) for r in range(d))
    expected = p ** (d - 1) % m
    passed = all(v == 0 for v in values[: d - 1]) and values[d - 1] == expected
    return A, eta, SharpnessReport(gamma, values, expected, passed)


@dataclass
class VersalityReport:
    gamma: tuple
    shift: int
    jet: tuple
    passed: bool


def jet_versality(p, d, Q):
    """gamma = sum p^(e-j) c_j z_j with reduced jet exactly Q (binomial basis)."""
    Q = tuple(c % p for c in Q)
    e = len(Q) - 1
    if e > d - 1:
        raise ValueError("jet degree must be at most d-1")
    if Q[e] == 0:
        raise ValueError("leading binomial coefficient must be nonzero")
    A = RankDSplitAlgebra(p, max(e + 2, 3), d)
    Om = tuple(range(d))
    eta = tuple((1 + p * w) % A.modulus for w in Om)
    duals = A.power_dual_basis(Om)
    gamma = (0,) * d
    for j, cj in enumerate(Q):
        gamma = A.add(gamma, A.scalar_mul(cj * p ** (e - j), duals[j]))
    ctx = BranchContext(A, eta, gamma, c=0, k=e + 2)
    s_shift, jet = _class_jet(ctx, 0, ctx.k0)
    padded = tuple(jet) if jet is not None else ()
    passed = s_shift == e and padded == Q
    return ctx, VersalityReport(gamma, s_shift, padded, passed)


@dataclass
class AffineSharpnessReport:
    y: tuple
    zeros: tuple
    value_at_d: int
    expected: int
    passed: bool


def affine_sharpness(p, d):
    """y = z0, c = 1: zeros exactly {0..d-1} and F(d) = -a0 p^d, a0 = (-1)^d prod(Omega)."""
    if p <= d + 1:
        raise ValueError("affine sharpness needs p > d + 1")
    A = RankDSplitAlgebra(p, d + 2, d)
    m = A.modulus
    Om = tuple(range(1, d + 1))  # unit coordinates, pairwise distinct reductions
    eta = tuple((1 + p * w) % m for w in Om)
    z0 = A.power_dual_basis(Om)[0]
    values = [
        (A.trace(A.mul(z0, A.pow(eta, r))) - 1) % m for r in range(d + 1)
    ]
    a0 = 1
    for w in Om:
        a0 *= w
    if d % 2:
        a0 = -a0
    expected = (-a0 * p**d) % m
    zeros = tuple(r for r in range(d) if values[r] == 0)
    passed = zeros == tuple(range(d)) and values[d] == expected
    # at precision d everything survives; the d zeros separate at d+1
    ctx = BranchContext(A, eta, z0, c=1, k=d + 1)
    return ctx, AffineSharpnessReport(z0, zeros, values[d], expected, passed)
