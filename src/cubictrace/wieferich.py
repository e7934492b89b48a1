"""Toric Wieferich scans for a cubic order and a norm-one unit.

Given a monic integral cubic g and a unit eta = e0 + e1 t + e2 t^2 in
Z[t]/(g) of norm exactly 1, an inert unramified prime p is toric Wieferich
when eta^P = 1 (mod p^2) for P the order of eta mod p.  The three-way
equivalence (omega_p scalar <=> omega_p = 0 <=> the congruence) is computed
by three independent routes and cross-checked, and the higher tangent
omega^(r) = (eta^P - 1)/p^r mod p is verified to be nonscalar.
"""

from dataclasses import dataclass

from .algebra import ZpCubicAlgebra, disc_cubic, is_prime, vp

DEFAULT_MAX_R = 16


def _int_mult_matrix(x, g):
    """Multiplication matrix of x in Z[t]/(g), exact integers."""
    g0, g1, g2 = g
    x0, x1, x2 = x
    w = (-g0 * x2, x0 - g1 * x2, x1 - g2 * x2)
    v = (-g0 * w[2], w[0] - g1 * w[2], w[1] - g2 * w[2])
    return ((x0, w[0], v[0]), (x1, w[1], v[1]), (x2, w[2], v[2]))


def norm_int(g, x):
    """Exact integer norm of x in Z[t]/(g)."""
    (a, b, c), (d, e, f), (gg, h, i) = _int_mult_matrix(x, g)
    return a * (e * i - f * h) - b * (d * i - f * gg) + c * (d * h - e * gg)


@dataclass(frozen=True)
class CubicOrderSpec:
    """Z[t]/(g) with a declared norm-one unit eta."""

    g: tuple  # (g0, g1, g2): g = t^3 + g2 t^2 + g1 t + g0
    eta: tuple  # coefficients of 1, t, t^2

    def __post_init__(self):
        if norm_int(self.g, self.eta) != 1:
            raise ValueError("eta must have norm exactly 1")

    @property
    def disc(self):
        return disc_cubic(self.g[2], self.g[1], self.g[0])


def is_inert(g, p):
    """g irreducible mod p (no root, given the squarefree reduction)."""
    if disc_cubic(g[2], g[1], g[0]) % p == 0:
        raise ValueError(f"prime {p} is ramified for this cubic")
    return all((((r + g[2]) * r + g[1]) * r + g[0]) % p for r in range(p))


@dataclass
class WieferichReport:
    p: int
    inert: bool
    P: int | None = None
    r: int | None = None
    omega: tuple | None = None
    omega_r: tuple | None = None
    wieferich: bool | None = None
    scalar_checks_agree: bool | None = None
    nonscalar_check: bool | None = None
    indeterminate: bool = False
    reason: str = ""


def wieferich_test(spec, p):
    """Three-way equivalence report at an inert unramified prime p."""
    g = spec.g
    if not is_inert(g, p):
        raise ValueError(f"prime {p} is not inert")
    A = ZpCubicAlgebra(p, 2, g)
    eta = A.reduce(spec.eta)
    P = A.period(eta)
    etaP = A.pow(eta, P)
    diff = A.sub(etaP, A.one)
    if any(c % p for c in diff):
        raise ArithmeticError("eta^P is not 1 mod p")
    omega = tuple((c // p) % p for c in diff)
    omega_scalar = omega[1] == 0 and omega[2] == 0
    omega_zero = omega == (0, 0, 0)
    congruence = etaP == A.one  # eta^P = 1 mod p^2
    agree = omega_scalar == omega_zero == congruence
    return WieferichReport(
        p=p,
        inert=True,
        P=P,
        omega=omega,
        wieferich=congruence,
        scalar_checks_agree=agree,
    )


def higher_tangent(spec, p, max_r=DEFAULT_MAX_R):
    """(r, omega^(r), nonscalar) with r maximal such that eta^P = 1 mod p^r."""
    g = spec.g
    if not is_inert(g, p):
        raise ValueError(f"prime {p} is not inert")
    A = ZpCubicAlgebra(p, max_r + 1, g)
    eta = A.reduce(spec.eta)
    P = ZpCubicAlgebra(p, 2, g).period(A.reduce(spec.eta))
    etaP = A.pow(eta, P)
    diff = A.sub(etaP, A.one)
    if all(c == 0 for c in diff):
        return None, None, None  # indeterminate at this precision
    r = min(vp(c, p, cap=max_r + 1) for c in diff if c)
    if r > max_r:
        return None, None, None
    omega_r = tuple((c // p**r) % p for c in diff)
    nonscalar = not (omega_r[1] == 0 and omega_r[2] == 0)
    # norm identity used in the restart proof: Norm(eta^P) = 1 mod p^(r+1)
    if A.norm(etaP) % p ** (r + 1) != 1 % p ** (r + 1):
        raise ArithmeticError(f"Norm(eta^P) is not 1 mod p^{r + 1}")
    return r, omega_r, nonscalar


def scan(spec, p_min, p_max, max_r=DEFAULT_MAX_R):
    """One report per prime in [max(p_min, 5), p_max]; inert primes get the full test."""
    if max(p_min, 5) > p_max:
        raise ValueError(f"empty prime range: pmin={p_min}, pmax={p_max} (primes start at 5)")
    reports = []
    disc = spec.disc
    for p in range(max(p_min, 5), p_max + 1):
        if not is_prime(p) or p == 3:
            continue
        if disc % p == 0:
            reports.append(WieferichReport(p=p, inert=False, reason="ramified"))
            continue
        if not is_inert(spec.g, p):
            reports.append(WieferichReport(p=p, inert=False, reason="not inert"))
            continue
        rep = wieferich_test(spec, p)
        r, omega_r, nonscalar = higher_tangent(spec, p, max_r=max_r)
        if r is None:
            rep.indeterminate = True
            rep.reason = f"eta^P = 1 to precision p^{max_r}"
        else:
            rep.r = r
            rep.omega_r = omega_r
            rep.nonscalar_check = nonscalar
        reports.append(rep)
    return reports
