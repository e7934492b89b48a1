"""Exact arithmetic in cubic etale algebras over F_p and Z/p^k.

One class, ``ZpCubicAlgebra(p, k, f)``, covers both precisions: the algebra
A = (Z/p^k)[T]/(F) used by the branch theory, and, at k = 1, the algebra
B = F_p[T]/(F) of the trace theorem.  ``FpCubicAlgebra(p, f)`` is shorthand
for the k = 1 case.

Conventions used throughout the package:

* A cubic algebra is presented as R[T]/(F) for a monic cubic
  F(T) = T^3 + f2*T^2 + f1*T + f0, stored as the coefficient triple
  ``(f0, f1, f2)`` (constant first, leading 1 omitted).
* Elements are coefficient triples ``(c0, c1, c2)`` meaning
  c0 + c1*T + c2*T^2, reduced mod p (or mod p^k).
* Splitting types are the strings ``"split"``, ``"mixed"``, ``"inert"``,
  derived from the factorization of F mod p; they are never declared.
* Traces and norms are the trace and determinant of the 3x3 multiplication
  matrix, computed with exact modular integers.  No floating point.

Rank-d split algebras Z_p^d (used by the appendix-style bounds) store
elements as d-tuples with coordinatewise operations.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

SPLIT = "split"
MIXED = "mixed"
INERT = "inert"


class PrecisionError(ValueError):
    """Raised when an operation needs more p-adic precision than available."""


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def factorize(n):
    """Prime factorization by trial division; returns {prime: exponent}."""
    fac = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def vp(n, p, cap=None):
    """p-adic valuation of the integer n; ``cap`` (or None=infinity) for n=0."""
    if n == 0:
        return cap if cap is not None else INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


INF = float("inf")


def vp_fraction(x, p):
    """p-adic valuation of a Fraction or int (INF for 0)."""
    x = Fraction(x)
    if x == 0:
        return INF
    return vp(x.numerator, p) - vp(x.denominator, p)


def disc_cubic(a, b, c):
    """Discriminant of the monic cubic T^3 + a*T^2 + b*T + c (exact integer form)."""
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


def cubic_roots_mod_p(f, p):
    """Roots in F_p of T^3 + f2*T^2 + f1*T + f0, without multiplicity."""
    f0, f1, f2 = f
    return [r for r in range(p) if (((r + f2) * r + f1) * r + f0) % p == 0]


@dataclass(frozen=True)
class PrimeModulus:
    """A prime p >= 5 together with a precision exponent k >= 1."""

    p: int
    k: int = 1

    def __post_init__(self):
        if self.p < 5 or self.p == 3 or not is_prime(self.p):
            raise ValueError(f"p must be a prime >= 5, got {self.p}")
        if self.k < 1:
            raise ValueError(f"precision exponent must be >= 1, got {self.k}")


class ZpCubicAlgebra:
    """A finite etale cubic algebra A = (Z/p^k)[T]/(F); F_p is the case k = 1.

    ``f_int`` keeps the caller's exact integer coefficients so the same
    algebra can be re-instantiated at higher precision (``at_precision``).
    The reduction B = A/pA must be etale; it is exposed as ``reduced`` (a
    k = 1 algebra is its own reduction).  The splitting type, Frobenius sign,
    roots mod p and number of fixed labels of the Frobenius permutation all
    belong to B and are derived from the factorization of F mod p.
    """

    rank = 3

    def __init__(self, p, k, f_int):
        PrimeModulus(p, k)
        self.p = p
        self.k = k
        self.modulus = m = p**k
        self.f_int = tuple(int(x) for x in f_int)
        if len(self.f_int) != 3:
            raise ValueError("monic cubic needs exactly 3 lower coefficients")
        self.f = f0, f1, f2 = tuple(x % m for x in self.f_int)
        if k == 1:
            if disc_cubic(f2, f1, f0) % p == 0:
                raise ValueError(f"cubic {self.f} is not squarefree mod {p}: not etale")
            self.reduced = self
            self.roots = tuple(cubic_roots_mod_p(self.f, p))
            self.splitting_type = {3: SPLIT, 1: MIXED}.get(len(self.roots), INERT)
        else:
            self.reduced = ZpCubicAlgebra(p, 1, self.f_int)
            self.roots = self.reduced.roots
            self.splitting_type = self.reduced.splitting_type
        self.frobenius_sign = -1 if self.splitting_type == MIXED else 1
        self.fixed_labels = len(self.roots)
        self._tr1 = (-f2) % m
        self._tr2 = (f2 * f2 - 2 * f1) % m
        # T^3 = -f2 T^2 - f1 T - f0 ;  T^4 = (f2^2-f1) T^2 + (f2 f1-f0) T + f2 f0
        self._t4 = ((f2 * f0) % m, (f2 * f1 - f0) % m, (f2 * f2 - f1) % m)
        self.one = (1, 0, 0)
        self._root_ints = None
        self._split_roots = None

    @classmethod
    def from_split_roots(cls, p, k, roots):
        """Split algebra (Z/p^k)[T]/(prod (T - r_i)), r_i with distinct reductions.

        Split coordinates follow the caller's order of the roots.
        """
        PrimeModulus(p, k)  # name a bad p before judging the roots mod p
        r1, r2, r3 = (int(r) for r in roots)
        if len({r1 % p, r2 % p, r3 % p}) != 3:
            raise ValueError("split roots must have pairwise distinct reductions")
        f0 = -r1 * r2 * r3
        f1 = r1 * r2 + r1 * r3 + r2 * r3
        f2 = -(r1 + r2 + r3)
        alg = cls(p, k, (f0, f1, f2))
        alg._root_ints = (r1, r2, r3)  # exact, so precision can be raised later
        return alg

    def at_precision(self, k2):
        if k2 == self.k:
            return self
        alg = ZpCubicAlgebra(self.p, k2, self.f_int)
        alg._root_ints = self._root_ints
        return alg

    def __repr__(self):
        return f"ZpCubicAlgebra(p={self.p}, k={self.k}, f={self.f}, type={self.splitting_type})"

    def __eq__(self, other):
        return (
            isinstance(other, ZpCubicAlgebra)
            and (self.p, self.k, self.f) == (other.p, other.k, other.f)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.f))

    # -- ring operations ---------------------------------------------------

    def reduce(self, x):
        m = self.modulus
        return (x[0] % m, x[1] % m, x[2] % m)

    def add(self, x, y):
        m = self.modulus
        return ((x[0] + y[0]) % m, (x[1] + y[1]) % m, (x[2] + y[2]) % m)

    def sub(self, x, y):
        m = self.modulus
        return ((x[0] - y[0]) % m, (x[1] - y[1]) % m, (x[2] - y[2]) % m)

    def scalar_mul(self, c, x):
        m = self.modulus
        return (c * x[0] % m, c * x[1] % m, c * x[2] % m)

    def mul(self, x, y):
        m = self.modulus
        f0, f1, f2 = self.f
        t40, t41, t42 = self._t4
        x0, x1, x2 = x
        y0, y1, y2 = y
        h3 = x1 * y2 + x2 * y1
        h4 = x2 * y2
        return (
            (x0 * y0 - h3 * f0 + h4 * t40) % m,
            (x0 * y1 + x1 * y0 - h3 * f1 + h4 * t41) % m,
            (x0 * y2 + x1 * y1 + x2 * y0 - h3 * f2 + h4 * t42) % m,
        )

    def pow(self, x, n):
        if n < 0:
            return self.pow(self.inv(x), -n)
        out = self.one
        base = self.reduce(x)
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def trace(self, x):
        return (3 * x[0] + self._tr1 * x[1] + self._tr2 * x[2]) % self.modulus

    def mult_matrix(self, x):
        """Matrix of multiplication by x on the basis 1, T, T^2 (columns x, xT, xT^2)."""
        m = self.modulus
        f0, f1, f2 = self.f
        x0, x1, x2 = x
        w = ((-f0 * x2) % m, (x0 - f1 * x2) % m, (x1 - f2 * x2) % m)
        v = ((-f0 * w[2]) % m, (w[0] - f1 * w[2]) % m, (w[1] - f2 * w[2]) % m)
        return ((x0, w[0], v[0]), (x1, w[1], v[1]), (x2, w[2], v[2]))

    def norm(self, x):
        return _det3(self.mult_matrix(x), self.modulus)

    def is_unit(self, x):
        return self.norm(x) % self.p != 0

    def inv(self, x):
        """Multiplicative inverse; solves M_x * y = e_0 with exact cofactors."""
        m = self.modulus
        M = self.mult_matrix(x)
        det = _det3(M, m)
        if det % self.p == 0:
            raise ZeroDivisionError(f"element {x} is not invertible")
        dinv = _invmod(det, m)
        (a, b, c), (d, e, ff), (g, h, i) = M
        # first column of adj(M) = cofactors (C00, C01, C02)
        return (
            (e * i - ff * h) * dinv % m,
            -(d * i - ff * g) * dinv % m,
            (d * h - e * g) * dinv % m,
        )

    def charpoly(self, x):
        """Characteristic polynomial of multiplication by x, as (c0, c1, c2).

        Computed from the power sums by Newton's identities.
        """
        m = self.modulus
        p1 = self.trace(x)
        x2 = self.mul(x, x)
        p2 = self.trace(x2)
        p3 = self.trace(self.mul(x2, x))
        e1 = p1
        e2 = (e1 * p1 - p2) * _invmod(2, m) % m
        e3 = (e2 * p1 - e1 * p2 + p3) * _invmod(3, m) % m
        # charpoly = T^3 - e1 T^2 + e2 T - e3
        return ((-e3) % m, e2, (-e1) % m)

    def disc_charpoly(self, x):
        c0, c1, c2 = self.charpoly(x)
        return disc_cubic(c2, c1, c0) % self.modulus

    def is_generator(self, x):
        """True iff 1, x, x^2 reduce to an F_p-basis, i.e. disc(charpoly) != 0 mod p."""
        return self.disc_charpoly(x) % self.p != 0

    def trace_dual_basis(self, omega):
        """Basis (z0, z1, z2) trace-dual to (1, omega, omega^2).

        omega must reduce to a generator.  Closed forms from the generator
        polynomial f_w = T^3+a*T^2+b*T+d:
        z2 = 1/f_w'(w), z1 = (w+a)*z2, z0 = (w^2+a*w+b)*z2.
        """
        if not self.is_generator(omega):
            raise ValueError("trace-dual basis needs a generator mod p")
        c0, c1, c2 = self.charpoly(omega)
        w2 = self.mul(omega, omega)
        fprime = self.add(
            self.scalar_mul(3, w2), self.add(self.scalar_mul(2 * c2, omega), (c1, 0, 0))
        )
        z2 = self.inv(fprime)
        z1 = self.mul(self.add(omega, (c2, 0, 0)), z2)
        z0 = self.mul(self.add(w2, self.add(self.scalar_mul(c2, omega), (c1, 0, 0))), z2)
        return z0, z1, z2

    def divide_exact(self, x, d):
        """Divide every coefficient by d (a power of p); drops precision."""
        if any(c % d for c in x):
            raise PrecisionError(f"element {x} is not divisible by {d}")
        return tuple(c // d for c in x)

    # -- toric data ----------------------------------------------------------

    def period(self, eta):
        """Order P of the reduction of eta in (A/pA)^x; requires eta a unit."""
        if not self.is_unit(eta):
            raise ValueError("period needs a unit")
        return self.element_order(eta)

    def log_tangent(self, eta, P=None):
        """U = (eta^P - 1)/p (precision k-1) and its reduction omega.

        Returns (U, omega).  U is exact in Z/p^(k-1) coefficients.
        """
        if self.k < 2:
            raise PrecisionError("log tangent needs precision k >= 2")
        if P is None:
            P = self.period(eta)
        etaP = self.pow(eta, P)
        diff = self.sub(etaP, self.one)
        U = self.divide_exact(diff, self.p)
        omega = self.reduced.reduce(U)
        return U, omega

    # -- split-coordinate layer ----------------------------------------------

    def split_roots(self):
        """Roots of F mod p^k: the caller's (for root-built algebras, exact
        and valid at any precision), else Hensel lifts ordered by reduction."""
        if self.splitting_type != SPLIT:
            raise ValueError("split coordinates need a split reduction")
        if self._split_roots is None:
            if self._root_ints is not None:
                self._split_roots = tuple(r % self.modulus for r in self._root_ints)
            else:
                self._split_roots = tuple(
                    _hensel_lift_root(self.f, r, self.p, self.k) for r in self.roots
                )
        return self._split_roots

    def split_coords(self, x):
        """Coordinates (x(r1), x(r2), x(r3)) in the split case."""
        m = self.modulus
        return tuple(
            (x[0] + x[1] * r + x[2] * r * r) % m for r in self.split_roots()
        )

    def from_split_coords(self, coords):
        """Inverse of split_coords, by Lagrange interpolation."""
        return _interpolate(self.split_roots(), coords, self.modulus, self.p)

    # -- group orders (of the reduction B = A/pA) ----------------------------

    def unit_group_order(self):
        """|B^x|; the period of a unit always divides this."""
        p = self.p
        if self.splitting_type == SPLIT:
            return (p - 1) ** 3
        if self.splitting_type == MIXED:
            return (p - 1) * (p * p - 1)
        return p**3 - 1

    def torus_order(self):
        """Order of the norm-one torus T_B(F_p)."""
        p = self.p
        if self.splitting_type == SPLIT:
            return (p - 1) ** 2
        if self.splitting_type == MIXED:
            return p * p - 1
        return p * p + p + 1

    def element_order(self, x):
        """Multiplicative order of the reduction of x in B^x."""
        red = self.reduced
        return _element_order(red, red.reduce(x), red.unit_group_order())

    def elements(self):
        m = self.modulus
        for c2 in range(m):
            for c1 in range(m):
                for c0 in range(m):
                    yield (c0, c1, c2)

    def units(self):
        for x in self.elements():
            if self.is_unit(x):
                yield x


def FpCubicAlgebra(p, f):
    """The cubic etale algebra B = F_p[T]/(f): a ZpCubicAlgebra with k = 1."""
    return ZpCubicAlgebra(p, 1, f)


class RankDSplitAlgebra:
    """The split rank-d algebra (Z/p^k)^d with coordinatewise operations."""

    def __init__(self, p, k, d):
        PrimeModulus(p, k)
        if d < 2:
            raise ValueError("rank must be >= 2")
        if p <= d:
            raise ValueError("rank-d machinery needs p > d")
        self.p = p
        self.k = k
        self.d = self.rank = d
        self.modulus = p**k
        self.one = (1,) * d

    def at_precision(self, k2):
        return RankDSplitAlgebra(self.p, k2, self.d)

    def __repr__(self):
        return f"RankDSplitAlgebra(p={self.p}, k={self.k}, d={self.d})"

    def reduce(self, x):
        m = self.modulus
        return tuple(c % m for c in x)

    def add(self, x, y):
        m = self.modulus
        return tuple((a + b) % m for a, b in zip(x, y))

    def sub(self, x, y):
        m = self.modulus
        return tuple((a - b) % m for a, b in zip(x, y))

    def scalar_mul(self, c, x):
        m = self.modulus
        return tuple(c * a % m for a in x)

    def mul(self, x, y):
        m = self.modulus
        return tuple(a * b % m for a, b in zip(x, y))

    def pow(self, x, n):
        m = self.modulus
        if n >= 0:
            return tuple(pow(a, n, m) for a in x)
        return tuple(pow(_invmod(a, m), -n, m) for a in x)

    def trace(self, x):
        return sum(x) % self.modulus

    def norm(self, x):
        m = self.modulus
        out = 1
        for a in x:
            out = out * a % m
        return out

    def is_unit(self, x):
        return all(a % self.p for a in x)

    def inv(self, x):
        m = self.modulus
        return tuple(_invmod(a, m) for a in x)

    def divide_exact(self, x, d):
        if any(c % d for c in x):
            raise PrecisionError(f"element {x} is not divisible by {d}")
        return tuple(c // d for c in x)

    def period(self, eta):
        if not self.is_unit(eta):
            raise ValueError("period needs a unit")
        return _element_order_modp(self, eta, (self.p - 1))

    def log_tangent(self, eta, P=None):
        if self.k < 2:
            raise PrecisionError("log tangent needs precision k >= 2")
        if P is None:
            P = self.period(eta)
        diff = self.sub(self.pow(eta, P), self.one)
        U = self.divide_exact(diff, self.p)
        omega = tuple(c % self.p for c in U)
        return U, omega

    def unit_group_order(self):
        return (self.p - 1) ** self.d

    def power_dual_basis(self, omega_lift):
        """Z/p^k-basis dual to 1, w, ..., w^(d-1) under the trace pairing.

        ``omega_lift`` is a d-tuple with pairwise distinct reductions mod p.
        Computed by Lagrange interpolation: the dual of the power basis has
        (z_j)_i = [T^j] prod_{l != i} (T - w_l) / (w_i - w_l).
        """
        m = self.modulus
        w = [c % m for c in omega_lift]
        if len({c % self.p for c in w}) != self.d:
            raise ValueError("coordinates must have pairwise distinct reductions")
        cols = []
        for i in range(self.d):
            num = [1]  # prod over l != i of (T - w_l)
            den = 1
            for l in range(self.d):
                if l == i:
                    continue
                num = _polymul_linear(num, -w[l], m)
                den = den * (w[i] - w[l]) % m
            dinv = _invmod(den, m)
            cols.append([c * dinv % m for c in num])
        # z_j has coordinates ([T^j] L_i)_i
        return [tuple(cols[i][j] for i in range(self.d)) for j in range(self.d)]


_CANONICAL_CACHE = {}


def canonical_algebra(p, splitting_type):
    """A deterministic cubic algebra over F_p (k = 1) of the requested splitting type.

    Split algebras use the roots (0, 1, 2); mixed and inert take the
    lexicographically first squarefree cubic of that type.
    """
    key = (p, splitting_type)
    if key in _CANONICAL_CACHE:
        return _CANONICAL_CACHE[key]
    if splitting_type == SPLIT:
        alg = ZpCubicAlgebra.from_split_roots(p, 1, (0, 1, 2))
    else:
        alg = None
        for f0 in range(p):
            for f1 in range(p):
                for f2 in range(p):
                    if disc_cubic(f2, f1, f0) % p == 0:
                        continue
                    cand = ZpCubicAlgebra(p, 1, (f0, f1, f2))
                    if cand.splitting_type == splitting_type:
                        alg = cand
                        break
                if alg:
                    break
            if alg:
                break
        if alg is None:
            raise ValueError(f"no {splitting_type} cubic over F_{p}")
    _CANONICAL_CACHE[key] = alg
    return alg


# ---------------------------------------------------------------------------
# shared low-level helpers


def _det3(M, m):
    (a, b, c), (d, e, f), (g, h, i) = M
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % m


def _invmod(a, m):
    return pow(a, -1, m)


def _element_order(alg, x, group_order):
    """Multiplicative order of x, descending through the factored group order."""
    if not alg.is_unit(x):
        raise ValueError("order of a non-unit")
    order = group_order
    for q in factorize(group_order):
        while order % q == 0 and alg.pow(x, order // q) == alg.one:
            order //= q
    if alg.pow(x, order) != alg.one:
        raise ArithmeticError("order computation failed")
    return order


def _element_order_modp(alg, x, exponent):
    """Order of the reduction mod p of a rank-d split element."""
    p = alg.p
    red = tuple(c % p for c in x)
    order = 1
    for c in red:
        oc = _scalar_order(c, p, exponent)
        order = order * oc // gcd(order, oc)
    return order


def _scalar_order(c, p, exponent):
    order = exponent
    for q in factorize(exponent):
        while order % q == 0 and pow(c, order // q, p) == 1:
            order //= q
    return order


def _hensel_lift_root(f, r, p, k):
    """Lift a simple root r of the cubic f mod p to a root mod p^k."""
    f0, f1, f2 = f
    root = r % p
    q = p
    for _ in range(k - 1):
        q *= p
        val = (((root + f2) * root + f1) * root + f0) % q
        der = (3 * root * root + 2 * f2 * root + f1) % q
        root = (root - val * _invmod(der, q)) % q
    return root % p**k


def _interpolate(points, values, m, p):
    """Lagrange interpolation for a cubic through 3 points with unit differences."""
    r = list(points)
    y = list(values)
    coeffs = [0, 0, 0]
    for i in range(3):
        num = [1]
        den = 1
        for l in range(3):
            if l == i:
                continue
            num = _polymul_linear(num, -r[l], m)
            den = den * (r[i] - r[l]) % m
        if den % p == 0:
            raise ValueError("interpolation points collide mod p")
        scale = y[i] * _invmod(den, m) % m
        for j, cj in enumerate(num):
            coeffs[j] = (coeffs[j] + scale * cj) % m
    return tuple(coeffs)


def _polymul_linear(poly, c, m):
    """Multiply the coefficient list poly by (T + c) mod m."""
    out = [0] * (len(poly) + 1)
    for j, a in enumerate(poly):
        out[j] = (out[j] + a * c) % m
        out[j + 1] = (out[j + 1] + a) % m
    return out
