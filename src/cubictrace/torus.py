"""The norm-one torus T_B(F_p) as an explicit finite abelian group.

The group is enumerated exhaustively, an invariant-factor decomposition
Z_d1 x Z_d2 (d2 | d1) is computed with generators and a discrete-log table,
and subgroup/coset/character machinery operates in exponent coordinates.
Every subgroup is listed, at every order, from the Hermite basis of its
lattice between d1 Z x d2 Z and Z^2 (see TorusGroup.subgroups).

Coset counts come from one trace pass per (torus, gamma): the torus keeps
the trace fibers of the last gamma it was asked for (trace_fibers), and a
coset's count is read from a fiber by the coset labels each Subgroup caches.
The nodal check needs no scan of H either: whether gH meets h_* K_B^exc,
|H cap K_B^exc| and |H^perp cap E_B| follow from whether H lies in the
exceptional kernel (see nodal_coset_check).

All pass/fail verdicts here are exact integer tests: the square-root bounds are
verified by squaring, and characters are exponent tuples (chi(h) is
zeta_d1^value_exp(h), kept as the exponent).  The module holds no float.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import counts as counts_mod
from .algebra import SPLIT, _element_order, factorize


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
        self._gamma_slot = (None, 0, ())  # see _gamma_fibers
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
                if t % d2:
                    raise ArithmeticError("h^d2 is not a d2-th power of g1")
                g2 = B.mul(h, B.pow(B.inv(self.g1), t // d2))
                if B.pow(g2, d2) != B.one:
                    raise ArithmeticError("complement generator does not have order d2")
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
            if self.d2 != 1 or self.d1 % 3:
                raise ArithmeticError("cyclic torus without an order-3 character")
            chi = CharacterExponent(self, self.d1 // 3, 0)
        if chi.order != 3:
            raise ArithmeticError("exceptional character does not have order 3")
        kernel = frozenset(c for c in self.all_coords() if chi.value_exp(c) == 0)
        if 3 * len(kernel) != self.order:
            raise ArithmeticError("exceptional kernel does not have index 3")
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

    def _gamma_fibers(self, gamma):
        """(Norm gamma, trace_fibers(self, gamma)), from a one-entry cache.

        The entry is keyed by the reduced gamma and holds only the last gamma, so
        memory stays O(|T|); every caller loops over gamma outermost, so one entry
        catches all the reuse.  A miss checks that gamma is a unit.
        """
        B = self.B
        key = B.reduce(gamma)
        if self._gamma_slot[0] != key:
            if not B.is_unit(key):
                raise ValueError("coefficient gamma must be a unit")
            fibers = [[] for _ in range(B.p)]
            for h, c in self.coord_of.items():
                fibers[B.trace(B.mul(key, h))].append(c)
            self._gamma_slot = (key, B.norm(key), tuple(map(tuple, fibers)))
        return self._gamma_slot[1:]

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

    def subgroups(self):
        """Every subgroup of Z_d1 x Z_d2, each listed once, from its Hermite basis.

        A subgroup is a lattice between d1 Z x d2 Z and Z^2, with the unique
        Hermite basis (a, b), (0, e): a | d1, e | d2, 0 <= b < e and
        e | b * (d1 / a), the last so that (d1, 0) lies in the lattice.
        There are sum_{a | d1, e | d2} gcd(a, e) of them (Hampejs, Holighaus,
        Toth, Wiesmeyr, J. Numbers 2014).

        Returns a list of Subgroup records sorted by (order, sorted elements).
        """
        d1, d2 = self.d1, self.d2
        subs = []
        for a in _divisors(d1):
            for e in _divisors(d2):
                for b in range(e):
                    if b * (d1 // a) % e == 0:
                        coords = frozenset(
                            (x * a, (x * b + y * e) % d2)
                            for x in range(d1 // a)
                            for y in range(d2 // e)
                        )
                        subs.append(Subgroup(self, coords))
        subs.sort(key=lambda s: (s.order, sorted(s.coords)))
        return subs

    def subgroup_from_coords(self, coords):
        return Subgroup(self, frozenset(coords))

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
        if len(out) != H.index:
            raise ArithmeticError("annihilator order differs from the index")
        return out


class Subgroup:
    """A subgroup given by its coordinate set; iterable coset machinery."""

    def __init__(self, torus, coords):
        self.torus = torus
        self.coords = coords
        self.order = len(coords)
        if torus.order % self.order:
            raise ValueError("not a subgroup: order does not divide")
        self.index = torus.order // self.order

    def __contains__(self, coord):
        return coord in self.coords

    @cached_property
    def _cosets(self):
        """(reps, labels): the least coord of each coset, and the coset index of
        every coord (i, j), kept flat at labels[i * d2 + j]."""
        d1, d2 = self.torus.d1, self.torus.d2
        labels = [-1] * (d1 * d2)
        reps = []
        for c in sorted(self.torus.all_coords()):
            i, j = c
            if labels[i * d2 + j] < 0:
                for a, b in self.coords:
                    labels[(i + a) % d1 * d2 + (j + b) % d2] = len(reps)
                reps.append(c)
        return tuple(reps), labels

    def coset_reps(self):
        return list(self._cosets[0])

    def coset_counts(self, coords):
        """How many of ``coords`` fall in each coset, in coset_reps() order."""
        d2 = self.torus.d2
        labels = self._cosets[1]
        counts = [0] * self.index
        for i, j in coords:
            counts[labels[i * d2 + j]] += 1
        return counts

    def coset_count(self, coords, g):
        """How many of ``coords`` fall in the coset gH; g may be any coord of it."""
        d1, d2 = self.torus.d1, self.torus.d2
        labels = self._cosets[1]
        label = labels[g[0] % d1 * d2 + g[1] % d2]
        return sum(1 for i, j in coords if labels[i * d2 + j] == label)

    def coset_coords(self, rep):
        return [self.torus.coord_add(rep, h) for h in self.coords]

    @cached_property
    def in_exceptional_kernel(self):
        """H <= K_B^exc; always true when |E_B| = 1, where K_B^exc = T."""
        return self.coords <= self.torus.exceptional.kernel_coords


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
    if T.d1 % 3 or T.d2 % 3:
        raise ArithmeticError("split torus with |E_B| = 3 needs 3 | d2")
    chi = CharacterExponent(T, u1 * (T.d1 // 3), u2 * (T.d2 // 3))
    # the exponent-tuple form must reproduce rho(h2 h3^2) on all of T
    for c in T.all_coords():
        if chi.value_exp(c) != exp3(T.element(c)) * (T.d1 // 3) % T.d1:
            raise ArithmeticError(f"exceptional character disagrees with rho at {c}")
    return chi


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _primitive_root(p):
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ArithmeticError("no primitive root found")


# -- trace-fiber counting over cosets -----------------------------------------


def trace_fibers(T, gamma):
    """fibers[s] = coords of the h in T with Tr(gamma h) = s, for every s in F_p.

    One pass over T per gamma; ``Subgroup.coset_counts`` then splits a fiber
    over the cosets of any subgroup, and ``Subgroup.coset_count`` reads one
    coset's share.  The result is shared: T keeps it, as tuples, for the last
    gamma it was asked for (see TorusGroup._gamma_fibers).
    """
    return T._gamma_fibers(gamma)[1]


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


def _smooth_norm(p, s, n):
    """n, after checking that the fiber (s, n) is smooth."""
    if (s**3 - 27 * n) % p == 0:
        raise ValueError("nodal fiber: use nodal_coset_check")
    return n


def coset_bound_report(count, n_b, m, q):
    """The smooth coset bound (m count - N_B)^2 <= 9 (m-1)^2 q, checked exactly."""
    lhs = (m * count - n_b) ** 2
    rhs = 9 * (m - 1) ** 2 * q
    return CosetBoundReport(
        count=count,
        n_b=n_b,
        m=m,
        main_term=Fraction(n_b, m),
        error=Fraction(m * count - n_b, m),
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
    )


def verify_coset_bound(T, H, g, gamma, s, n_b=None):
    """Exact check of (m N_gH - N_B)^2 <= 9 (m-1)^2 q on a smooth fiber, for one coset.

    The count N_gH is read from the cached trace fibers of gamma (see
    trace_fibers) by coset label, in O(N_B); coset_trace_count is the
    enumeration of gH it equals.
    """
    B = T.B
    n, fibers = T._gamma_fibers(gamma)
    n = _smooth_norm(B.p, s, n)
    if n_b is None:
        n_b = counts_mod.actual_count(B, s, n)
    return coset_bound_report(H.coset_count(fibers[s % B.p], g), n_b, H.index, B.p)


def all_coset_bounds(T, gamma, s):
    """verify_coset_bound for every coset of every subgroup, from one trace pass.

    Returns (H, rep, report) triples in subgroups() and coset_reps() order.
    """
    B = T.B
    q = B.p
    n_b = counts_mod.actual_count(B, s, _smooth_norm(q, s, B.norm(gamma)))
    fiber = trace_fibers(T, gamma)[s % q]
    return [
        (H, g, coset_bound_report(cnt, n_b, H.index, q))
        for H in T.subgroups()
        for g, cnt in zip(H.coset_reps(), H.coset_counts(fiber))
    ]


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
    return NonemptinessReport(True, all(H.coset_counts(trace_fibers(T, gamma)[s % q])))


# -- nodal machinery -----------------------------------------------------------


def nodal_base_point(T, gamma, s):
    """h_* = (s/3) gamma^{-1}, the canonical nodal fiber point."""
    B = T.B
    p = B.p
    if s % p == 0 or (s**3 - 27 * B.norm(gamma)) % p != 0:
        raise ValueError("nodal data needs s != 0 and s^3 = 27 Norm(gamma)")
    a = s * pow(3, -1, p) % p
    hstar = B.mul((a, 0, 0), B.inv(gamma))
    if B.norm(hstar) != 1:
        raise ArithmeticError("nodal base point is not in the torus")
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
    exc = T.exceptional
    hstar = nodal_base_point(T, gamma, s)
    cstar = T.coords(hstar)
    fiber = trace_fibers(T, gamma)[s % B.p]
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

    The count is read from the cached trace fibers (see verify_coset_bound);
    the rest takes O(1), from whether H <= K = K_B^exc (u = |H^perp cap E_B|):
    if |E_B| = 1, K = T: every coset meets h_* K, |H cap K| = |H|, u = 1;
    if H is not in K = ker chi0, chi0(H) = Z/3: every coset meets h_* K,
    |H cap K| = |H|/3, and neither chi0 nor chi0^2 is trivial on H, so u = 1;
    in both cases main = N^nod/m.  If H <= K, gH meets h_* K iff
    chi0(g) = chi0(h_*), |H cap K| = |H| and u = 3, so main = 3 N^nod/m or 0.
    """
    B = T.B
    q = B.p
    cstar = T.coords(nodal_base_point(T, gamma, s))
    n, fibers = T._gamma_fibers(gamma)
    n_nod = counts_mod.actual_count(B, s, n)
    m = H.index
    cnt = H.coset_count(fibers[s % q], g)
    chi = T.exceptional.generator
    if chi is None or not H.in_exceptional_kernel:
        main, u = Fraction(n_nod, m), 1
    else:
        meets = chi.value_exp(g) == chi.value_exp(cstar)
        main, u = Fraction(3 * n_nod if meets else 0, m), 3
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
