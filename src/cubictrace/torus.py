"""The norm-one torus T_B(F_p) as an explicit finite abelian group.

The group is enumerated exhaustively, an invariant-factor decomposition
Z_d1 x Z_d2 (d2 | d1) is computed with generators and a discrete-log table,
and subgroup/coset/character machinery operates in exponent coordinates.

All pass/fail verdicts here are exact integer tests: the square-root bounds are
verified by squaring, and characters are exponent tuples.  Floats appear
only in the explicitly-labelled character-sum diagnostic.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import counts as counts_mod
from .algebra import SPLIT, _element_order, factorize

EXHAUSTIVE_SUBGROUP_CAP = 400


def exceptional_size(B):
    """|E_B|: 3 iff q * sign(tau_B) = 1 (mod 3), else 1."""
    return 3 if (B.p * B.frobenius_sign) % 3 == 1 else 1


class TorusGroup:
    """Norm-one torus with invariant factors (d1, d2), d2 | d1, and dlog table."""

    def __init__(self, B):
        self.B = B
        self.elements = [x for x in B.elements() if B.norm(x) == 1]
        order = B.torus_order()
        if len(self.elements) != order:
            raise ArithmeticError("torus enumeration does not match the closed order")
        self.order = order
        self._compute_structure()
        self._install_dlogs()

    # -- structure ---------------------------------------------------------

    def _compute_structure(self):
        B = self.B
        orders = {x: _element_order(B, x, self.order) for x in self.elements}
        d1 = max(orders.values())
        g1 = next(x for x in self.elements if orders[x] == d1)
        d2 = self.order // d1
        self.d1, self.d2 = d1, d2
        self.g1 = g1
        pow_g1 = {}
        h = B.one
        for i in range(d1):
            pow_g1[h] = i
            h = B.mul(h, g1)
        self._pow_g1 = pow_g1
        if d2 == 1:
            self.g2 = B.one
            return
        # find g2 with image of order d2 in T/<g1>, then correct it so that
        # <g1> and <g2> intersect trivially
        for h in self.elements:
            m = 1
            y = h
            while y not in pow_g1:
                y = B.mul(y, h)
                m += 1
            if m == d2:
                t = pow_g1[y]  # h^d2 = g1^t, and d2 | t
                assert t % d2 == 0
                g2 = B.mul(h, B.pow(B.inv(self.g1), t // d2))
                assert B.pow(g2, d2) == B.one
                self.g2 = g2
                return
        raise ArithmeticError("no complement generator found")

    def _install_dlogs(self):
        B = self.B
        coord_of = {}
        elem_of = {}
        gi = B.one
        for i in range(self.d1):
            gij = gi
            for j in range(self.d2):
                coord_of[gij] = (i, j)
                elem_of[(i, j)] = gij
                gij = B.mul(gij, self.g2)
            gi = B.mul(gi, self.g1)
        if len(coord_of) != self.order:
            raise ArithmeticError("invariant-factor decomposition failed to regenerate")
        self.coord_of = coord_of
        self.elem_of = elem_of

    @cached_property
    def exceptional(self):
        """E_B and its kernel K_B^exc, derived once per torus.

        When |E_B| = 3 the generator is a cubic character: in the split case the
        explicit coordinate character rho(h2 * h3^2); in the cyclic (mixed/inert)
        cases the unique order-3 character subgroup.
        """
        size = exceptional_size(self.B)
        if size == 1:
            return ExceptionalGroup(1, None, frozenset(self.all_coords()))
        if self.B.splitting_type == SPLIT:
            chi = _split_exceptional_character(self)
        else:
            # mixed and inert tori are cyclic: the order-3 dual subgroup is unique
            assert self.d2 == 1 and self.d1 % 3 == 0
            chi = CharacterExponent(self, self.d1 // 3, 0)
        assert chi.order == 3
        kernel = frozenset(c for c in self.all_coords() if chi.value_exp(c) == 0)
        assert 3 * len(kernel) == self.order
        return ExceptionalGroup(3, chi, kernel)

    def coords(self, h):
        return self.coord_of[h]

    def element(self, c):
        return self.elem_of[c]

    def coord_add(self, a, b):
        return ((a[0] + b[0]) % self.d1, (a[1] + b[1]) % self.d2)

    def coord_neg(self, a):
        return ((-a[0]) % self.d1, (-a[1]) % self.d2)

    def all_coords(self):
        return self.coord_of.values()

    # -- subgroups -----------------------------------------------------------

    def span(self, gens):
        """Subgroup generated by coordinate pairs, as a frozenset of coords."""
        out = {(0, 0)}
        for v in gens:
            ordv = self._coord_order(v)
            base = list(out)
            cur = (0, 0)
            for _ in range(ordv - 1):
                cur = self.coord_add(cur, v)
                out.update(self.coord_add(cur, b) for b in base)
        return frozenset(out)

    def _coord_order(self, v):
        o1 = self.d1 // gcd(self.d1, v[0])
        o2 = self.d2 // gcd(self.d2, v[1])
        return o1 * o2 // gcd(o1, o2)

    def subgroups(self, exhaustive=None):
        """All subgroups (exhaustive up to order 400), else cyclic + projection kernels.

        Returns a list of Subgroup records sorted by (order, sorted elements).
        """
        if exhaustive is None:
            exhaustive = self.order <= EXHAUSTIVE_SUBGROUP_CAP
        # each cyclic subgroup is labelled by its first generator in
        # all_coords() order; its other generators j*v, gcd(j, |H|) = 1,
        # span the same H and are skipped
        cyclic = {}
        covered = set()
        for v in self.all_coords():
            if v in covered:
                continue
            H = self.span([v])
            cyclic[H] = v
            n = len(H)
            covered.update(
                ((j * v[0]) % self.d1, (j * v[1]) % self.d2)
                for j in range(1, n)
                if gcd(j, n) == 1
            )
        found = dict(cyclic)
        if exhaustive:
            items = list(cyclic.items())
            for H1, v1 in items:
                for H2, v2 in items:
                    join = frozenset(
                        self.coord_add(a, b) for a in H1 for b in H2
                    )
                    found.setdefault(join, None)
                    if found[join] is None:
                        found[join] = (v1, v2)
        else:
            found[frozenset((i, j) for i, j in self.all_coords() if i == 0)] = None
            found[frozenset((i, j) for i, j in self.all_coords() if j == 0)] = None
            found[frozenset(self.all_coords())] = None
        subs = []
        for H, gens in found.items():
            if gens is None:
                gens = ()
            elif not isinstance(gens, tuple) or (gens and not isinstance(gens[0], tuple)):
                gens = (gens,)
            subs.append(Subgroup(self, H, gens))
        subs.sort(key=lambda s: (s.order, sorted(s.coords)))
        return subs

    def subgroup_from_coords(self, coords):
        return Subgroup(self, frozenset(coords), ())

    # -- characters ------------------------------------------------------------

    def characters(self):
        return [
            CharacterExponent(self, e1, e2)
            for e1 in range(self.d1)
            for e2 in range(self.d2)
        ]

    def annihilator(self, H):
        """H^perp: characters trivial on the subgroup H."""
        out = [chi for chi in self.characters() if all(chi.value_exp(c) == 0 for c in H.coords)]
        assert len(out) == H.index
        return out


class Subgroup:
    """A subgroup given by its coordinate set; iterable coset machinery."""

    def __init__(self, torus, coords, gens=()):
        self.torus = torus
        self.coords = coords
        self.gens = gens
        self.order = len(coords)
        if torus.order % self.order:
            raise ValueError("not a subgroup: order does not divide")
        self.index = torus.order // self.order

    def __contains__(self, coord):
        return coord in self.coords

    def coset_reps(self):
        seen = set()
        reps = []
        for c in sorted(self.torus.all_coords()):
            if c in seen:
                continue
            reps.append(c)
            seen.update(self.torus.coord_add(c, h) for h in self.coords)
        return reps

    def coset_coords(self, rep):
        return [self.torus.coord_add(rep, h) for h in self.coords]

    def coset_elements(self, rep):
        return [self.torus.element(c) for c in self.coset_coords(rep)]

    def intersect_coords(self, other_coords):
        return self.coords & other_coords


class CharacterExponent:
    """A character as an exponent pair against Z_d1 x Z_d2; values in Z_d1.

    chi(h) = zeta_{d1}^{value_exp(h)} with value_exp((i,j)) =
    e1*i + e2*j*(d1/d2) mod d1.
    """

    def __init__(self, torus, e1, e2):
        self.torus = torus
        self.e1 = e1 % torus.d1
        self.e2 = e2 % torus.d2
        self._step = torus.d1 // torus.d2 if torus.d2 else torus.d1

    def value_exp(self, coord):
        d1 = self.torus.d1
        return (self.e1 * coord[0] + self.e2 * coord[1] * self._step) % d1

    @property
    def order(self):
        d1, d2 = self.torus.d1, self.torus.d2
        o1 = d1 // gcd(d1, self.e1)
        o2 = d2 // gcd(d2, self.e2) if d2 else 1
        return o1 * o2 // gcd(o1, o2)

    def complex_value(self, coord):
        """Diagnostic only: the character value as a complex float."""
        return cmath.exp(2j * cmath.pi * self.value_exp(coord) / self.torus.d1)

    def __eq__(self, other):
        return (self.e1, self.e2) == (other.e1, other.e2)

    def __hash__(self):
        return hash((self.e1, self.e2))

    def __repr__(self):
        return f"CharacterExponent({self.e1}, {self.e2})"


@dataclass(frozen=True)
class ExceptionalGroup:
    size: int
    generator: CharacterExponent | None
    kernel_coords: frozenset


def exceptional_group(T):
    """E_B and its kernel K_B^exc inside T = T_B(F_p); see TorusGroup.exceptional."""
    return T.exceptional


def _split_exceptional_character(T):
    """chi0(h1,h2,h3) = rho(h2 h3^2) for a fixed cubic character rho of F_p^x."""
    B = T.B
    p = B.p
    g = _primitive_root(p)
    dlog = {}
    x = 1
    for i in range(p - 1):
        dlog[x] = i
        x = x * g % p

    def exp3(h):
        h1, h2, h3 = B.split_coords(h)
        return (dlog[h2] + 2 * dlog[h3]) % 3

    u1 = exp3(T.g1)
    u2 = exp3(T.g2)
    assert T.d1 % 3 == 0 and T.d2 % 3 == 0
    chi = CharacterExponent(T, u1 * (T.d1 // 3), u2 * (T.d2 // 3))
    # the exponent-tuple form must reproduce rho(h2 h3^2) on all of T
    for c in T.all_coords():
        assert chi.value_exp(c) == exp3(T.element(c)) * (T.d1 // 3) % T.d1
    return chi


def _primitive_root(p):
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ArithmeticError("no primitive root found")


# -- trace-fiber counting over cosets -----------------------------------------


def trace_fiber_indicator(T, gamma, s):
    """v[coord] = 1 if Tr(gamma * h) = s."""
    B = T.B
    s %= B.p
    return {
        c: 1 if B.trace(B.mul(gamma, T.element(c))) == s else 0
        for c in T.all_coords()
    }


def coset_trace_count(T, H, g, gamma, s):
    """N_{gH,B}(s; gamma) = #{h in gH : Tr(gamma h) = s} by enumeration."""
    B = T.B
    if not B.is_unit(gamma):
        raise ValueError("coefficient gamma must be a unit")
    s %= B.p
    target = 0
    for c in H.coset_coords(g):
        if B.trace(B.mul(gamma, T.element(c))) == s:
            target += 1
    return target


@dataclass
class CosetBoundReport:
    count: int
    n_b: int
    m: int
    main_term: Fraction
    error: Fraction
    lhs: int  # (m*count - N_B)^2
    rhs: int  # 9 (m-1)^2 q
    passed: bool


def verify_coset_bound(T, H, g, gamma, s, n_b=None):
    """Exact check of (m N_gH - N_B)^2 <= 9 (m-1)^2 q on a smooth fiber."""
    B = T.B
    q = B.p
    n = B.norm(gamma)
    if (s**3 - 27 * n) % q == 0:
        raise ValueError("nodal fiber: use nodal_coset_check")
    if n_b is None:
        n_b = counts_mod.actual_count(B, s, n)
    cnt = coset_trace_count(T, H, g, gamma, s)
    m = H.index
    lhs = (m * cnt - n_b) ** 2
    rhs = 9 * (m - 1) ** 2 * q
    return CosetBoundReport(
        count=cnt,
        n_b=n_b,
        m=m,
        main_term=Fraction(n_b, m),
        error=Fraction(m * cnt - n_b, m),
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
    )


@dataclass
class NonemptinessReport:
    criterion_holds: bool
    verified_all_cosets: bool | None


def nonemptiness_check(T, H, gamma, s):
    """One-sided certificate: N_B(s,n) > 3(m-1) sqrt(q) forces every coset to meet the fiber."""
    B = T.B
    q = B.p
    n = B.norm(gamma)
    if (s**3 - 27 * n) % q == 0:
        raise ValueError("nodal fiber")
    n_b = counts_mod.actual_count(B, s, n)
    m = H.index
    holds = n_b > 0 and n_b * n_b > 9 * (m - 1) ** 2 * q
    if not holds:
        return NonemptinessReport(False, None)
    verified = all(
        coset_trace_count(T, H, g, gamma, s) > 0 for g in H.coset_reps()
    )
    return NonemptinessReport(True, verified)


# -- nodal machinery -----------------------------------------------------------


def nodal_base_point(T, gamma, s):
    """h_* = (s/3) gamma^{-1}, the canonical nodal fiber point."""
    B = T.B
    p = B.p
    if s % p == 0 or (s**3 - 27 * B.norm(gamma)) % p != 0:
        raise ValueError("nodal data needs s != 0 and s^3 = 27 Norm(gamma)")
    a = s * pow(3, -1, p) % p
    hstar = B.mul((a, 0, 0), B.inv(gamma))
    assert B.norm(hstar) == 1
    return hstar


@dataclass
class ConcentrationReport:
    fiber_size: int
    exceptional_size: int
    concentrated: bool
    pointwise_character_match: bool
    coset_index: int


def nodal_concentration_check(T, gamma, s):
    """Every rational nodal fiber point lies in h_* K_B^exc (vacuous when |E_B|=1)."""
    B = T.B
    exc = exceptional_group(T)
    hstar = nodal_base_point(T, gamma, s)
    cstar = T.coords(hstar)
    fiber = [c for c, v in trace_fiber_indicator(T, gamma, s).items() if v]
    shifted = [T.coord_add(c, T.coord_neg(cstar)) for c in fiber]
    concentrated = all(c in exc.kernel_coords for c in shifted)
    if exc.generator is not None:
        pointwise = all(
            exc.generator.value_exp(c) == exc.generator.value_exp(cstar)
            for c in fiber
        )
    else:
        pointwise = True
    return ConcentrationReport(
        fiber_size=len(fiber),
        exceptional_size=exc.size,
        concentrated=concentrated,
        pointwise_character_match=pointwise,
        coset_index=T.order // len(exc.kernel_coords),
    )


@dataclass
class NodalCosetReport:
    count: int
    main_term: Fraction
    remainder: Fraction
    m: int
    exceptional_in_annihilator: int
    passed: bool


def nodal_coset_check(T, H, g, gamma, s):
    """Nodal coset count against the exceptional main term, remainder bound exact.

    main = N^nod * |H cap K|/|K| when gH meets h_* K, else 0;
    |remainder| <= ((m - |H^perp cap E_B|)/m) (3 sqrt(q) + 3), checked by squaring.
    """
    B = T.B
    q = B.p
    exc = exceptional_group(T)
    hstar = nodal_base_point(T, gamma, s)
    cstar = T.coords(hstar)
    n_nod = counts_mod.actual_count(B, s, B.norm(gamma))
    m = H.index
    cnt = coset_trace_count(T, H, g, gamma, s)
    neg_star = T.coord_neg(cstar)
    meets = any(
        T.coord_add(T.coord_add(g, h), neg_star) in exc.kernel_coords
        for h in H.coords
    )
    if meets:
        main = Fraction(n_nod * len(H.intersect_coords(exc.kernel_coords)), len(exc.kernel_coords))
    else:
        main = Fraction(0)
    # |H^perp cap E_B|: exceptional characters trivial on H
    if exc.generator is None:
        u = 1
    else:
        chis = [exc.generator, CharacterExponent(T, 2 * exc.generator.e1, 2 * exc.generator.e2)]
        u = 1 + sum(1 for chi in chis if all(chi.value_exp(c) == 0 for c in H.coords))
    rem = cnt - main
    # m |rem| <= 3 (m-u) (sqrt(q) + 1)
    lhs = m * abs(rem.numerator)
    base = 3 * (m - u) * rem.denominator
    a = lhs - base
    passed = a <= 0 or a * a <= base * base * q
    return NodalCosetReport(
        count=cnt,
        main_term=main,
        remainder=rem,
        m=m,
        exceptional_in_annihilator=u,
        passed=passed,
    )


# -- diagnostics ----------------------------------------------------------------


def character_sum(T, chi, gamma, s):
    """S_chi(s; gamma) as a complex float (diagnostic only)."""
    B = T.B
    s %= B.p
    total = 0j
    for c in T.all_coords():
        if B.trace(B.mul(gamma, T.element(c))) == s:
            total += chi.complex_value(c)
    return total


def character_decomposition_diagnostic(T, H, g, gamma, s):
    """(enumerated count, (1/m) sum_{chi in H^perp} chi(g^-1) S_chi) as floats."""
    cnt = coset_trace_count(T, H, g, gamma, s)
    gi = T.coord_neg(g)
    total = 0j
    for chi in T.annihilator(H):
        total += chi.complex_value(gi) * character_sum(T, chi, gamma, s)
    return cnt, total / H.index
