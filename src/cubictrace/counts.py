"""Prescribed trace/norm point counts over F_p.

Two independent routes are kept strictly separate:

* ``brute_force_count`` reads the (trace, norm) tally of B^x from
  ``_kernels.trace_norm_histogram``, which enumerates the trace-0 and
  trace-1 slices of B as coefficient triples and fills the rows s != 0 by
  the scaling bijection x -> s*x; it is the oracle and knows nothing about
  curves.
* ``smooth_formula_count`` / ``nodal_count`` evaluate the closed formulas
  (elliptic point count with the splitting-type sign, and the nodal
  q+3-f_B-|E_B| value).  The elliptic count sums the quadratic character
  over every U for each fiber on its own, with no scaling reduction, so the
  two routes share no step.

A fiber (s, n) with n != 0 is smooth iff s^3 != 27n; nodal fibers force
s != 0 and are counted by the nodal formula.
"""

from dataclasses import dataclass, field
from functools import cache

from ._kernels import trace_norm_histogram
from .algebra import MIXED, SPLIT, ZpCubicAlgebra, _invmod

DEFAULT_PRIME_CAP = 101

BRUTE_FORCE = "BruteForce"
SMOOTH_FORMULA = "SmoothFormula"
NODAL_FORMULA = "NodalFormula"


@dataclass(frozen=True)
class CountQuery:
    B: ZpCubicAlgebra  # over F_p (k = 1)
    s: int
    n: int

    def __post_init__(self):
        if self.n % self.B.p == 0:
            raise ValueError("norm target must be nonzero")


@dataclass
class CountReport:
    value: int
    method: str
    components: dict = field(default_factory=dict)


def is_smooth_fiber(p, s, n):
    """Smooth iff s^3 != 27 n (mod p); requires n != 0."""
    if n % p == 0:
        raise ValueError("norm target must be nonzero")
    return (s**3 - 27 * n) % p != 0


_HIST_CACHE = {}


def unit_histogram(B):
    """Cached (trace, norm) tally of B^x; flat list indexed [s*p + n]."""
    key = (B.p, B.f)
    hist = _HIST_CACHE.get(key)
    if hist is None:
        hist = trace_norm_histogram(B.p, B.f)
        _HIST_CACHE[key] = hist
    return hist


def brute_force_count(query, cap=DEFAULT_PRIME_CAP):
    """N_B(s, n) by enumeration of B (the oracle; see trace_norm_histogram)."""
    B, p = query.B, query.B.p
    if p > cap:
        raise ValueError(f"prime {p} exceeds brute-force cap {cap}")
    return CountReport(actual_count(B, query.s, query.n), BRUTE_FORCE)


@cache
def quadratic_character(p):
    """chi as a lookup table over F_p, with chi(0) = 0; built once per p."""
    chi = [0] * p
    for x in range(1, p):
        chi[x * x % p] = 1
    for x in range(1, p):
        if chi[x] == 0:
            chi[x] = -1
    chi[0] = 0
    return tuple(chi)


def elliptic_count(p, s, n):
    """Projective point count of E_{s,n}: V^2 = s^2 U^2 - 4U^3 - 4s^3 n - 27n^2 + 18sUn."""
    if not is_smooth_fiber(p, s, n):
        raise ValueError("nodal fiber: use nodal_count")
    chi = quadratic_character(p)
    s %= p
    n %= p
    s2 = s * s
    lin = 18 * s * n
    const = (-4 * s**3 * n - 27 * n * n) % p
    total = p + 1
    for u in range(p):
        # the cubic in U by Horner: ((-4U + s^2)U + 18sn)U + const
        total += chi[(((s2 - 4 * u) * u + lin) * u + const) % p]
    return total


def smooth_formula_count(query):
    """N_B(s, n) on a smooth fiber from the elliptic count and the S_3-twist table."""
    B, p = query.B, query.B.p
    if not is_smooth_fiber(p, query.s, query.n):
        raise ValueError("nodal fiber: use nodal_count")
    e = elliptic_count(p, query.s, query.n)
    if B.splitting_type == SPLIT:
        value = e - 3
    elif B.splitting_type == MIXED:
        value = 2 * p + 1 - e
    else:
        value = e
    return CountReport(
        value,
        SMOOTH_FORMULA,
        components={
            "elliptic_count": e,
            "sign": B.frobenius_sign,
            "fixed_labels": B.fixed_labels,
            "smooth": True,
        },
    )


def nodal_count(B, s):
    """N_B^nod(s, s^3/27) = p + 3 - f_B - |E_B|; needs s != 0."""
    p = B.p
    if s % p == 0:
        raise ValueError("nodal fibers have s != 0")
    from .torus import exceptional_size  # single source of truth for |E_B|

    exc = exceptional_size(B)
    value = p + 3 - B.fixed_labels - exc
    return CountReport(
        value,
        NODAL_FORMULA,
        components={
            "fixed_labels": B.fixed_labels,
            "exceptional_size": exc,
            "smooth": False,
        },
    )


def count(query):
    """N_B(s, n) by the applicable closed formula (smooth or nodal)."""
    if is_smooth_fiber(query.B.p, query.s, query.n):
        return smooth_formula_count(query)
    return nodal_count(query.B, query.s)


def actual_count(B, s, n):
    """The actual affine count N_B(s, n), read from unit_histogram(B) at every p."""
    p = B.p
    if n % p == 0:
        raise ValueError("norm target must be nonzero")
    return unit_histogram(B)[(s % p) * p + n % p]


def factorization_census(p, eps):
    """(I, S, L, R): factorization types of g_u = T^3 + uT - eps over u in F_p.

    I irreducible, S split squarefree, L linear x irreducible quadratic,
    R ramified.
    """
    if eps % p == 0:
        raise ValueError("eps must be nonzero")
    eps %= p
    counts = {"I": 0, "S": 0, "L": 0, "R": 0}
    for u in range(p):
        disc = (-4 * u**3 - 27 * eps * eps) % p
        roots = sum(1 for r in range(p) if (r * r * r + u * r - eps) % p == 0)
        if disc == 0:
            counts["R"] += 1
        elif roots == 3:
            counts["S"] += 1
        elif roots == 1:
            counts["L"] += 1
        elif roots == 0:
            counts["I"] += 1
        else:
            raise ArithmeticError(f"squarefree cubic with {roots} roots mod {p}")
    return counts["I"], counts["S"], counts["L"], counts["R"]


def nodal_parametrization(p, t, a):
    """Split-coordinate point of the nodal fiber from the normalization parameter.

    (x1, x2, x3) = a * (-t^2/(t+1), -1/(t(t+1)), (t+1)^2/t); poles at t in {0,-1}.
    """
    t %= p
    a %= p
    if t == 0 or (t + 1) % p == 0:
        raise ValueError("parameter at a pole")
    if a == 0:
        raise ValueError("nodal parametrization needs a != 0")
    it1 = _invmod(t + 1, p)
    it = _invmod(t, p)
    x1 = -a * t * t * it1 % p
    x2 = -a * it * it1 % p
    x3 = a * (t + 1) ** 2 * it % p
    return (x1, x2, x3)
