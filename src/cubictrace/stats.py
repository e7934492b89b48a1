"""Distributional refinements: cube-class equidistribution and jet frequencies.

Both statistics are exhaustive and exact.  Cubic character sums are tracked
as integer pairs (a, b) representing a + b*zeta_3 in Z[zeta_3], and the
square-root bound |S| <= q(q-1)sqrt(q) is checked as a^2 - a*b + b^2 <=
q^2 (q-1)^2 q.  The jet statistic tallies the full lift family y = y0 +
p*alpha + p^2*beta exactly, with frequencies as Fractions.
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import SPLIT, MIXED, ZpCubicAlgebra, _invmod


def generator_count(B):
    """#B_gen by the closed forms q(q-1)(q-2), q^2(q-1), q^3-q."""
    q = B.p
    if B.splitting_type == SPLIT:
        return q * (q - 1) * (q - 2)
    if B.splitting_type == MIXED:
        return q * q * (q - 1)
    return q**3 - q


def generator_count_exhaustive(B):
    return sum(1 for x in B.elements() if B.disc_charpoly(x) != 0)


@dataclass
class CubeClassTally:
    total: int
    counts: dict  # cube-class exponent -> count (single key 0 when q = 2 mod 3)
    class_bound_ok: bool
    character_bound_ok: bool
    character_norms: tuple = ()


def _cube_exponent(x, e3, p, zeta):
    """0, 1, 2 according to x^((p-1)/3) = 1, zeta, zeta^2."""
    v = pow(x, e3, p)
    if v == 1:
        return 0
    if v == zeta:
        return 1
    return 2


def cube_class_tally(B, A):
    """Tally of the cube classes of A * disc(f_omega) over generators omega."""
    q = B.p
    if A % q == 0:
        raise ValueError("scalar A must be nonzero")
    if q % 3 == 2:
        total = sum(1 for x in B.elements() if B.disc_charpoly(x) != 0)
        return CubeClassTally(total, {0: total}, True, True)
    e3 = (q - 1) // 3
    zeta = next(
        pow(g, e3, q) for g in range(2, q) if pow(g, e3, q) != 1
    )
    counts = {0: 0, 1: 0, 2: 0}
    for x in B.elements():
        d = B.disc_charpoly(x)
        if d:
            counts[_cube_exponent(A * d % q, e3, q, zeta)] += 1
    total = sum(counts.values())
    bound = 4 * q**2 * (q - 1) ** 2 * q
    class_ok = all((3 * c - total) ** 2 <= bound for c in counts.values())
    # |sum psi^j(A Delta)|^2 = a^2 - ab + b^2 for (n0,n1,n2) exponent tallies
    n0, n1, n2 = counts[0], counts[1], counts[2]
    norms = []
    for a, b in (((n0 - n2), (n1 - n2)), ((n0 - n1), (n2 - n1))):
        norms.append(a * a - a * b + b * b)
    char_bound = q**2 * (q - 1) ** 2 * q
    char_ok = all(n <= char_bound for n in norms)
    return CubeClassTally(total, counts, class_ok, char_ok, tuple(norms))


@dataclass
class AverageSingularReport:
    average: Fraction
    total_singular: int
    generators: int
    exact_one: bool
    within_bound: bool
    values_seen: tuple


def average_singular(B, gamma, delta):
    """Average of S_omega(gamma, delta) over generators; exactly 1 when q = 2 mod 3."""
    q = B.p
    if not B.is_unit(gamma):
        raise ValueError("gamma must be a unit")
    if delta % q == 0:
        raise ValueError("delta must be nonzero")
    base = -B.norm(gamma) * delta % q
    cubes = {}
    for u in range(1, q):
        cubes.setdefault(pow(u, 3, q), 0)
        cubes[pow(u, 3, q)] += 1
    total = 0
    ngen = 0
    seen = set()
    for x in B.elements():
        d = B.disc_charpoly(x)
        if not d:
            continue
        ngen += 1
        s_w = cubes.get(base * d % q, 0)
        seen.add(s_w)
        total += s_w
    avg = Fraction(total, ngen)
    if q % 3 == 2:
        return AverageSingularReport(avg, total, ngen, avg == 1, True, tuple(sorted(seen)))
    bound = 4 * q**2 * (q - 1) ** 2 * q
    within = (total - ngen) ** 2 <= bound
    return AverageSingularReport(avg, total, ngen, avg == 1, within, tuple(sorted(seen)))


@dataclass
class JetTally:
    surviving: int
    pair_counts: dict  # (A_y, B_y) -> exact count of surviving lifts
    uniform: bool
    freq_nonsquare: Fraction
    freq_square: Fraction
    freq_zero: Fraction


def jet_family_statistics(B, omega, x, c, U_lift=None):
    """Exact statistics of (A_y, B_y) over the full lift family y = y0+p*a+p^2*b.

    ``B`` is the reduced algebra of a Z/p^3 context; the defining cubic is
    lifted verbatim, and y0 is x's coefficient triple read in Z/p^3.
    Requires Tr(x) = c mod p, Tr(omega x) = 0, and Delta = Tr(omega^2 x) != 0.
    """
    p = B.p
    if not B.is_generator(omega):
        raise ValueError("omega must generate")
    delta = B.trace(B.mul(B.mul(omega, omega), x))
    if B.norm(x) == 0:
        raise ValueError("x must be a unit")
    if B.trace(x) != c % p or B.trace(B.mul(omega, x)) != 0:
        raise ValueError("x is not an affine singular class for c")
    if delta == 0:
        raise ValueError("degenerate class: Delta = 0")
    A = ZpCubicAlgebra(p, 3, B.f)
    U = A.reduce(U_lift if U_lift is not None else omega)
    if tuple(u % p for u in U) != omega:
        raise ValueError("U must lift omega")
    y0 = A.reduce(x)
    p2, p3 = p * p, p**3
    T0 = (A.trace(y0) - c) % p3
    B0 = A.trace(A.mul(y0, U)) % p3
    if T0 % p or B0 % p:
        raise ArithmeticError("Tr(y0) - c and Tr(y0 U) must vanish mod p")
    # alpha contributes Tr(alpha) mod p^2 (to survival and A_y) and
    # Tr(alpha*omega) mod p (to B_y); beta only Tr(beta) mod p.
    tally = {}
    surviving = 0
    tr_beta_counts = p * p  # each trace value is hit by exactly p^2 betas
    for a0 in range(p):
        for a1 in range(p):
            for a2 in range(p):
                alpha = (a0, a1, a2)
                t_alpha = A.trace(alpha)  # integer mod p^3; only mod p^2 matters
                tot = (T0 + p * t_alpha) % p3
                if tot % p2:
                    continue
                surviving += 1
                b_y = (B0 // p + B.trace(B.mul(alpha, omega))) % p
                a_base = tot // p2
                for tb in range(p):
                    key = ((a_base + tb) % p, b_y)
                    tally[key] = tally.get(key, 0) + tr_beta_counts
    surviving *= p**3  # each surviving alpha carries p^3 betas
    counts = [tally.get((a, b), 0) for a in range(p) for b in range(p)]
    uniform = len(set(counts)) == 1
    # discriminant D = (B - Delta/2)^2 - 2 Delta A per pair
    half = _invmod(2, p)
    freq = {"nonsquare": 0, "square": 0, "zero": 0}
    squares = {pow(v, 2, p) for v in range(1, p)}
    for (a_y, b_y), cnt in tally.items():
        D = ((b_y - delta * half) ** 2 - 2 * delta * a_y) % p
        if D == 0:
            freq["zero"] += cnt
        elif D in squares:
            freq["square"] += cnt
        else:
            freq["nonsquare"] += cnt
    return JetTally(
        surviving=surviving,
        pair_counts=tally,
        uniform=uniform,
        freq_nonsquare=Fraction(freq["nonsquare"], surviving),
        freq_square=Fraction(freq["square"], surviving),
        freq_zero=Fraction(freq["zero"], surviving),
    )
