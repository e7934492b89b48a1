"""Certified local branch analysis for Tr(gamma * eta^n) = c over Z/p^k.

The pipeline mirrors the structure of the underlying theory:

1. denominator clearing (rational gamma / c with p-power denominators are
   scaled to an integral pair at shifted precision),
2. primitive reduction (powers of p are stripped from gamma, with an
   all-or-none shortcut and an inflation rule for the stripped digits),
3. per-class classification over one period a mod P: each surviving class
   is resolved by its first nonzero jet in the binomial basis -- a unique
   transverse branch, a quadratic or cubic Hensel polynomial, a
   distinguished Weierstrass factor on a residue disk, or (when no normal
   form applies) the exact digit recursion.

The zeros of a distinguished factor W of degree e <= 3 on a residue disk
are found digit by digit: p evaluations of W per surviving root of each
level, p * sum_j |level_j| in all, instead of a scan of the p^(k0-2)
points of the disk.

Every descriptor carries the explicit set of surviving branch parameters
t mod p^(k0-1), so the expansion of the output can be compared verbatim
with the brute-force oracle ``brute_force_zero_oracle``.  That oracle
equality is the master correctness property; the descriptors are
additionally tagged with which normal form produced them.  The oracle
lifts n digit by digit from the definition alone, keeping at level j the
n mod P*p^(j-1) with Tr(gamma * eta^n) = c mod p^j.  It shares nothing
with the cascade -- no log tangent, no primitive reduction, no class
points, no Hensel lifting -- so the comparison checks two independent
routes.

Branch coordinates: n = a + P*t with a in {0..P-1} fixed once; residue
classes at precision p^k live in Z/(P*p^(k-1)).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import PrecisionError, _invmod, vp, vp_fraction

DEFAULT_ENUM_CAP = 10**6

# descriptor kinds
ALL_SOLUTIONS = "all-solutions"
NO_SOLUTIONS = "no-solutions"
DEAD_MOD_P = "dead-mod-p"
RETAINED_MOD_P = "retained-mod-p"
TRANSVERSE = "transverse-simple"
SINGULAR_OBSTRUCTED = "singular-obstructed"
SINGULAR_ALL_MOD_P2 = "singular-all-mod-p2"
SINGULAR_NO_ROOT = "singular-no-root"
SINGULAR_SIMPLE_ROOT = "singular-simple-root"
WEIERSTRASS_DISK = "quadratic-weierstrass-disk"
CUBIC_SIMPLE_ROOT = "cubic-simple-root"
CUBIC_LOCAL_FACTOR = "cubic-local-factor"
CLASS_ALL_SURVIVE = "class-all-survive"
JET_NO_ROOT = "jet-no-root"
JET_SIMPLE_ROOT = "jet-simple-root"
JET_LOCAL_FACTOR = "jet-local-factor"
DIGIT_LIST = "digit-list"


def binomial_cutoff(N, p):
    """Smallest safe M with m - v_p(m!) >= N for all m >= M (conservative form)."""
    return max(1, -(-(N * (p - 1) - 1) // (p - 2)))


def denominator_clear(p, gamma_coeffs, gamma_den, c):
    """Scale (gamma/p^den, c) to an integral pair.

    Returns (gamma_int, c_int, e, e_aff): e is the least exponent making the
    coefficient integral, e_aff >= max(e, -v_p(c)) the affine exponent, and
    the integral data is (p^e_aff * gamma, p^e_aff * c).
    """
    c = Fraction(c)
    den_fac = c.denominator
    while den_fac % p == 0:
        den_fac //= p
    if den_fac != 1:
        raise ValueError("target must have a p-power denominator")
    minv = min(vp(g, p, cap=gamma_den) for g in gamma_coeffs)
    e = max(0, gamma_den - minv)
    vc = vp_fraction(c, p)
    e_aff = max(e, 0 if vc >= 0 else -vc)
    shift = e_aff - gamma_den
    if shift >= 0:
        gamma_int = tuple(int(g) * p**shift for g in gamma_coeffs)
    else:
        gamma_int = tuple(int(g) // p ** (-shift) for g in gamma_coeffs)
    c_scaled = c * p**e_aff
    if c_scaled.denominator != 1:
        raise ArithmeticError("denominator clearing left a fractional target")
    return gamma_int, int(c_scaled), e, e_aff


ALL_CLASSES = "AllClasses"
NO_CLASSES = "NoClasses"
REDUCED = "Reduced"


@dataclass
class ReductionResult:
    tag: str
    gamma0: tuple = ()
    c0: int = 0
    k0: int = 0
    s_div: int = 0


def primitive_reduce(p, gamma, c, k):
    """The all/none/reduced trichotomy for gamma in p^s * A."""
    if all(g == 0 for g in gamma):
        return ReductionResult(ALL_CLASSES if c % p**k == 0 else NO_CLASSES)
    s = min(min(vp(g, p) for g in gamma if g != 0), k)
    if s >= k:
        return ReductionResult(ALL_CLASSES if c % p**k == 0 else NO_CLASSES)
    if vp(c, p, cap=k) < s:
        return ReductionResult(NO_CLASSES)
    gamma0 = tuple(g // p**s for g in gamma)
    return ReductionResult(REDUCED, gamma0, c // p**s, k - s, s)


@dataclass
class BranchDescriptor:
    kind: str
    a: int | None = None
    data: dict = field(default_factory=dict)
    residues: tuple = ()  # surviving t mod p^(k0-1) of the reduced problem

    def __repr__(self):
        return f"BranchDescriptor({self.kind}, a={self.a}, {self.data})"


@dataclass
class ZeroSetResult:
    descriptors: list
    classes: list  # sorted residues n mod P*p^(k_work-1)
    modulus: int
    k_work: int
    s_div: int


class BranchContext:
    """Immutable branch data for Tr(gamma * eta^n) = c at precision p^k.

    ``gamma`` is an exact integer coefficient tuple (optionally divided by
    p^gamma_den), ``c`` an int or Fraction with p-power denominator.  The
    context performs denominator clearing and primitive reduction once; all
    derived quantities (P, U, omega, the reduced pair) are exposed.
    """

    def __init__(self, A, eta, gamma, c=0, k=2, gamma_den=0):
        self.p = A.p
        self.k = k
        if k < 1:
            raise ValueError("precision k must be >= 1")
        gamma_int, c_int, _, e_aff = denominator_clear(self.p, gamma, gamma_den, c)
        self.gamma_int, self.c_int = gamma_int, c_int
        self.k_work = k + e_aff
        K = max(self.k_work, 2)
        self.A = A.at_precision(K)
        self.K = K
        self.eta_int = tuple(int(x) for x in eta)
        self.eta_elt = self.A.reduce(self.eta_int)
        if not self.A.is_unit(self.eta_elt):
            raise ValueError("eta must be a unit")
        self.gamma_elt = self.A.reduce(gamma_int)
        self.P = self.A.period(self.eta_elt)
        self.etaP = self.A.pow(self.eta_elt, self.P)
        self.U, self.omega = self.A.log_tangent(self.eta_elt, self.P)
        self.reduction = primitive_reduce(self.p, gamma_int, c_int, self.k_work)
        if self.reduction.tag == REDUCED:
            self.gamma0_elt = self.A.reduce(self.reduction.gamma0)
            self.c0 = self.reduction.c0
            self.k0 = self.reduction.k0
            self.s0 = self.c0 % self.p
        else:
            self.gamma0_elt = None
            self.c0 = None
            self.k0 = None
            self.s0 = None
        self._class_points = {}

    # -- basic evaluations --------------------------------------------------

    def class_point(self, a):
        """y_a = gamma0 * eta^a at work precision, gamma0 the primitive reduced gamma.

        Memoised per a: f_eval, and so every digit-recursion and Hensel
        step, asks for the same few class points again and again.
        """
        y = self._class_points.get(a)
        if y is None:
            if self.gamma0_elt is None:
                raise ValueError("context reduced away: no primitive problem")
            y = self._class_points[a] = self.A.mul(self.gamma0_elt, self.A.pow(self.eta_elt, a))
        return y

    def f_eval(self, a, t, prec):
        """F_{a,c}(t) = Tr(y_a eta^(P t)) - c0 mod p^prec, of the primitive reduced problem."""
        if prec > self.K:
            raise PrecisionError(f"need precision {prec}, context has {self.K}")
        val = self.A.trace(self.A.mul(self.class_point(a), self.A.pow(self.etaP, t))) - self.c0
        return val % self.p**prec

    def class_coefficients(self, a, mmax):
        """C'_m = Tr(y_a U^m) - (c0 if m == 0) for m < mmax."""
        A = self.A
        y = self.class_point(a)
        out = []
        upow = A.one
        for m in range(mmax):
            val = A.trace(A.mul(y, upow))
            if m == 0:
                val -= self.c0
            out.append(val)
            if m + 1 < mmax:
                upow = A.mul(upow, self.U)
        return out


# ---------------------------------------------------------------------------
# polynomial helpers over F_p and Z/p^N


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(f, g, m):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % m
    return _poly_trim(out)


def _poly_sub(f, g, m):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] = (out[i] - b) % m
    return _poly_trim(out)


def _poly_divmod(f, g, p):
    """Division over F_p; g nonzero."""
    f = [x % p for x in f]
    g = [x % p for x in g]
    _poly_trim(g)
    ginv = _invmod(g[-1], p)
    quot = [0] * max(0, len(f) - len(g) + 1)
    rem = f[:]
    _poly_trim(rem)
    while rem and len(rem) >= len(g):
        c = rem[-1] * ginv % p
        d = len(rem) - len(g)
        quot[d] = c
        for i, b in enumerate(g):
            rem[i + d] = (rem[i + d] - c * b) % p
        _poly_trim(rem)
    return quot, rem


def _poly_ext_euclid(f, g, p):
    """(u, v) with u*f + v*g = 1 over F_p for coprime f, g."""
    r0, r1 = [x % p for x in f], [x % p for x in g]
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while _poly_trim(r1[:]):
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1, p), p)
        v0, v1 = v1, _poly_sub(v0, _poly_mul(q, v1, p), p)
        _poly_trim(r1)
    _poly_trim(r0)
    if len(r0) != 1:
        raise ArithmeticError("polynomials are not coprime")
    cinv = _invmod(r0[0], p)
    return [x * cinv % p for x in u0], [x * cinv % p for x in v0]


def _poly_eval(f, x, m):
    out = 0
    for c in reversed(f):
        out = (out * x + c) % m
    return out


def _poly_shift(f, r, m):
    """f(X + r) mod m by repeated Horner."""
    out = [c % m for c in f]
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = (out[j] + r * out[j + 1]) % m
    return out


def _binom_to_monomial(coeffs, p):
    """Convert sum c_m binom(X, m) (m < p) to monomial coefficients over F_p."""
    out = [0] * max(1, len(coeffs))
    basis = [1]  # binom(X, m) as monomial coeffs, times m!
    for m, c in enumerate(coeffs):
        if m:
            basis = _poly_mul(basis, [-(m - 1) % p, 1], p)
            scale = _invmod(_factorial_mod(m, p), p)
        else:
            scale = 1
        if c % p:
            for j, b in enumerate(basis):
                out[j] = (out[j] + c * scale * b) % p
    return _poly_trim(out)


def _factorial_mod(m, p):
    out = 1
    for i in range(2, m + 1):
        out = out * i % p
    return out


# ---------------------------------------------------------------------------
# monomial truncation of the branch series (for disk-level Weierstrass work)


def _series_monomial(ctx, a, N):
    """Monomial coefficients of the reduced F_{a,c}, correct mod p^N coefficientwise."""
    p = ctx.p
    q = p**N
    mmax = binomial_cutoff(N, p)
    cs = ctx.class_coefficients(a, mmax)
    poly = [0] * (mmax + 1)
    num = [1]  # prod_{i<m} (X - i), exact integer coefficients
    for m, C in enumerate(cs):
        if m:
            num = [x % q for x in _poly_mul_exact(num, [-(m - 1), 1])]
        w = vp(_factorial_int(m), p) if m else 0
        unit = _factorial_int(m) // p**w
        scale = C % q * pow(p, m - w, q) % q * _invmod(unit % q, q) % q
        for j, b in enumerate(num):
            poly[j] = (poly[j] + scale * b) % q
    return _poly_trim(poly)


def _poly_mul_exact(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


_FACTS = [1]


def _factorial_int(m):
    while len(_FACTS) <= m:
        _FACTS.append(_FACTS[-1] * len(_FACTS))
    return _FACTS[m]


def _distinguished_factor(H, e, p, N):
    """Monic degree-e factor W = Y^e (mod p) of H, coefficients mod p^N.

    H is a polynomial over Z/p^N whose reduction is Y^e times a cofactor
    not vanishing at 0; classical coprime Hensel lifting.
    """
    q = p**N
    Hbar = [c % p for c in H]
    _poly_trim(Hbar)
    if any(c % p for c in Hbar[:e]) or len(Hbar) <= e or Hbar[e] % p == 0:
        raise ArithmeticError("reduction is not Y^e times a unit cofactor")
    gbar = [0] * e + [1]
    hbar = Hbar[e:]
    u_g, u_h = _poly_ext_euclid(gbar, hbar, p)
    W = [0] * e + [1]
    V = [c % q for c in hbar]
    pj = 1
    for _ in range(1, N):
        pj *= p
        diff = _poly_sub([c % q for c in H], _poly_mul(W, V, q), q)
        if any(c % pj for c in diff):
            raise ArithmeticError("Hensel lift: H - W*V is not divisible by p^j")
        dbar = [(c // pj) % p for c in diff]
        A = _poly_divmod(_poly_mul(dbar, u_h, p), gbar, p)[1]
        B, rem = _poly_divmod(_poly_sub(dbar, _poly_mul(A, hbar, p), p), gbar, p)
        if rem:
            raise ArithmeticError("Hensel lift: cofactor correction is not exact")
        W = [(w + pj * (A[i] if i < len(A) else 0)) % q for i, w in enumerate(W)]
        V = [(v + pj * (B[i] if i < len(B) else 0)) % q for i, v in enumerate(V)]
        V += [pj * B[i] % q for i in range(len(V), len(B))]
    return W


# ---------------------------------------------------------------------------
# the per-class jet cascade


def _class_jet(ctx, a, k0):
    """(s_shift, jet) of the reduced class at precision k0; function-level view."""
    p = ctx.p
    cs = ctx.class_coefficients(a, k0)
    best = None
    vals = []
    for m, C in enumerate(cs[:k0]):
        prec = k0 - m
        Cm = C % p**prec
        v = vp(Cm, p, cap=prec)
        vals.append((m, Cm, v))
        cm = m + v
        if best is None or cm < best:
            best = cm
    if best is None or best >= k0:
        return k0, None  # jet vanishes to this precision
    jet = [0] * (best + 1)
    for m, Cm, v in vals:
        if m + v == best and m <= best:
            jet[m] = Cm // p ** (best - m) % p
    return best, tuple(jet)


def _lift_simple_root(ctx, a, s_shift, rho, dG, k0):
    """tau mod p^(k0 - s_shift) with F = 0 mod p^k0 iff t = tau there."""
    p = ctx.p
    dinv = _invmod(dG, p)
    tau = rho
    for j in range(1, k0 - s_shift):
        val = ctx.f_eval(a, tau, s_shift + j + 1)
        if val % p ** (s_shift + j):
            raise ArithmeticError("simple-root lift: F(tau) lost divisibility")
        w = -(val // p ** (s_shift + j)) * dinv % p
        tau += w * p**j
    return tau % p ** (k0 - s_shift)


def _classify_and_expand(ctx, a, k0):
    """One descriptor (with residue expansion mod p^(k0-1)) per surviving class."""
    p = ctx.p
    mod_t = p ** (k0 - 1)
    y = ctx.class_point(a)
    A = ctx.A
    d_a = A.trace(A.mul(y, ctx.U)) % p
    delta_a = A.trace(A.mul(y, A.mul(ctx.U, ctx.U))) % p

    if k0 == 1:
        return BranchDescriptor(RETAINED_MOD_P, a, {"d_a": d_a}, residues=(0,))

    s_shift, jet = _class_jet(ctx, a, k0)
    if jet is None:
        kind = SINGULAR_ALL_MOD_P2 if (k0 == 2 and d_a == 0) else CLASS_ALL_SURVIVE
        return BranchDescriptor(
            kind, a, {"d_a": d_a, "shift": s_shift}, residues=tuple(range(mod_t))
        )
    if s_shift >= p - 1:
        # binomial jets beyond degree p-1 are not determined by t mod p:
        # fall back to the exact digit recursion for this class
        res = digit_recursion(ctx, a, k0)
        return BranchDescriptor(DIGIT_LIST, a, {"shift": s_shift}, residues=tuple(res))

    mono = _binom_to_monomial(jet, p)
    roots = _jet_roots(mono, p)
    base = {"d_a": d_a, "delta_a": delta_a, "shift": s_shift, "jet": jet}
    deriv = _poly_deriv(mono, p)

    if d_a != 0:
        if s_shift != 1 or len(roots) != 1 or roots[0][1] != 1:
            raise ArithmeticError("transverse class without a unique simple first digit")
        rho = roots[0][0]
        tau = _lift_simple_root(ctx, a, 1, rho, _poly_eval(deriv, rho, p), k0)
        return BranchDescriptor(
            TRANSVERSE,
            a,
            dict(base, tau=tau, tau_modulus=mod_t),
            residues=(tau % mod_t,),
        )

    if s_shift == 1:
        return BranchDescriptor(SINGULAR_OBSTRUCTED, a, base, residues=())

    if not roots:
        kind = SINGULAR_NO_ROOT if (s_shift == 2 and delta_a != 0) else JET_NO_ROOT
        return BranchDescriptor(kind, a, base, residues=())

    # resolve each first-digit root; collect residues
    residues = []
    branches = []
    for rho, mult in roots:
        if mult == 1:
            tau = _lift_simple_root(ctx, a, s_shift, rho, _poly_eval(deriv, rho, p), k0)
            step = p ** (k0 - s_shift)
            branches.append({"root": rho, "tau": tau, "tau_modulus": step})
            residues.extend(range(tau, mod_t, step))
        else:
            W, rs = _disk_factor_solutions(ctx, a, rho, mult, s_shift, k0)
            branches.append({"root": rho, "factor": tuple(W), "degree": mult})
            residues.extend(rs)
    has_factor = any("factor" in b for b in branches)
    if s_shift == 2 and delta_a != 0:
        kind = WEIERSTRASS_DISK if has_factor else SINGULAR_SIMPLE_ROOT
    elif s_shift == 3 and len(mono) == 4:
        kind = CUBIC_LOCAL_FACTOR if has_factor else CUBIC_SIMPLE_ROOT
    else:
        kind = JET_LOCAL_FACTOR if has_factor else JET_SIMPLE_ROOT
    return BranchDescriptor(
        kind, a, dict(base, branches=branches), residues=tuple(sorted(set(residues)))
    )


def _poly_deriv(f, p):
    return [i * c % p for i, c in enumerate(f)][1:] or [0]


def _jet_roots(mono, p):
    """Roots with multiplicity of a monomial-basis polynomial over F_p."""
    out = []
    for rho in range(p):
        if _poly_eval(mono, rho, p) == 0:
            g = mono
            mult = 0
            while _poly_eval(g, rho, p) == 0 and len(g) > 1:
                g, rem = _poly_divmod(g, [(-rho) % p, 1], p)
                if rem:
                    raise ArithmeticError("root does not divide the jet exactly")
                mult += 1
            if mult:
                out.append((rho, mult))
    return out


def _disk_factor_solutions(ctx, a, rho, mult, s_shift, k0):
    """Distinguished factor on the disk t = rho + Y, Y in pZ, and its solutions."""
    p = ctx.p
    poly = _series_monomial(ctx, a, k0)
    shifted = _poly_shift(poly, rho, p**k0)
    if any(c % p**s_shift for c in shifted):
        raise ArithmeticError("shifted series is not divisible by the jet shift")
    H = [c // p**s_shift for c in shifted]
    W = _distinguished_factor(H, mult, p, k0 - s_shift)
    return W, _disk_solutions(W, rho, p, s_shift, k0)


def _disk_solutions(W, rho, p, s_shift, k0):
    """Sorted t = rho + Y mod p^(k0-1), Y in pZ, with W(Y) = 0 mod p^(k0-s_shift).

    W(pu) mod p^(j+1) depends only on u mod p^j, so the roots Y = pu mod
    p^N, N = max(k0 - s_shift, 1), come from the digit recursion on u:
    p evaluations of W per survivor of each level, p * sum_j |level_j| in
    all, instead of one per point of the p^(k0-2)-point disk.  Each root
    mod p^N is then expanded over the p^(k0-1-N) free higher digits.
    """
    N = max(k0 - s_shift, 1)
    roots = _digit_recursion_generic(lambda u, prec: _poly_eval(W, p * u, p**prec), p, N)
    mod_t = p ** (k0 - 1)
    step = p**N
    return sorted(
        (rho + p * u + step * v) % mod_t for u in roots for v in range(p ** (k0 - 1 - N))
    )


def _digit_recursion_generic(f_eval, p, k):
    """R_a(k) = {t mod p^(k-1) : F(t) = 0 mod p^k} by digit-by-digit lifting."""
    level = [0]
    for j in range(1, k):
        nxt = []
        step = p ** (j - 1)
        for r in level:
            for w in range(p):
                t = r + step * w
                if f_eval(t, j + 1) == 0:
                    nxt.append(t)
        level = nxt
    return sorted(level)


def digit_recursion(ctx, a, k=None):
    """R_a(k) of the primitive reduced branch function, k = k0 by default."""
    if k is None:
        k = ctx.k0
    return _digit_recursion_generic(lambda t, prec: ctx.f_eval(a, t, prec), ctx.p, k)


# ---------------------------------------------------------------------------
# the certified algorithm and its oracle


def certified_zero_set(ctx):
    """Branch descriptors plus the explicit class list mod P*p^(k_work - 1)."""
    p = ctx.p
    P = ctx.P
    k = ctx.k_work
    mod_n = P * p ** (k - 1)
    red = ctx.reduction
    if red.tag == ALL_CLASSES:
        return ZeroSetResult(
            [BranchDescriptor(ALL_SOLUTIONS)], list(range(mod_n)), mod_n, k, 0
        )
    if red.tag == NO_CLASSES:
        return ZeroSetResult([BranchDescriptor(NO_SOLUTIONS)], [], mod_n, k, 0)
    k0, s_div = red.k0, red.s_div
    descriptors = []
    classes = []
    A = ctx.A
    y = ctx.gamma0_elt
    c_bar = ctx.c0 % p
    mod_t0 = p ** (k0 - 1)
    for a in range(P):
        if (A.trace(y) - c_bar) % p != 0:
            descriptors.append(BranchDescriptor(DEAD_MOD_P, a))
        else:
            desc = _classify_and_expand(ctx, a, k0)
            if s_div:
                desc = BranchDescriptor(
                    "inflated-" + desc.kind,
                    a,
                    dict(desc.data, inner_kind=desc.kind, s_div=s_div),
                    residues=tuple(
                        (t0 + mod_t0 * w)
                        for t0 in desc.residues
                        for w in range(p**s_div)
                    ),
                )
            descriptors.append(desc)
            classes.extend(a + P * t for t in desc.residues)
        y = A.mul(y, ctx.eta_elt)
    return ZeroSetResult(descriptors, sorted(classes), mod_n, k, s_div)


def brute_force_zero_oracle(ctx, cap=DEFAULT_ENUM_CAP):
    """All n mod P*p^(k_work-1) with Tr(gamma eta^n) = c mod p^k_work, by digit lift.

    eta^P = 1 mod p, so u_n = Tr(gamma eta^n) mod p^j depends on n mod
    P*p^(j-1) only.  Level j keeps the n mod P*p^(j-1) with u_n = c mod p^j,
    each one digit above a survivor of level j-1 and carrying its point
    gamma*eta^n.  It works on the integral pair (gamma, c), for an algebra
    of any rank, and raises ValueError when a level has over ``cap`` survivors.
    """
    A, p, c = ctx.A, ctx.p, ctx.c_int
    mul, trace = A.mul, A.trace
    level = [(0, ctx.gamma_elt)]
    # level j tries n + w*width for w < digits, stepping the point by eta^width
    width, digits, step = 1, ctx.P, ctx.eta_elt
    for j in range(1, ctx.k_work + 1):
        q = p**j
        survivors = []
        for n, y in level:
            for w in range(digits):
                if (trace(y) - c) % q == 0:
                    survivors.append((n + w * width, y))
                y = mul(y, step)
        if len(survivors) > cap:
            raise ValueError(f"digit lift exceeds the cap of {cap} survivors at level {j}")
        level = survivors
        width, step, digits = width * digits, A.pow(step, digits), p
    return sorted(n for n, _ in level)


# ---------------------------------------------------------------------------
# the paper's explicit models, computed from the class coefficients alone
# (quadratic, cubic, finite and shifted jets, higher-order transverse).  The
# per-class facts the cascade already finds -- the class list, d_a, delta_a,
# shift, jet, tau and the Weierstrass factor W -- are read from the
# descriptors of certified_zero_set, not recomputed here.


@dataclass
class QuadraticSingularData:
    Q: tuple  # (A_a, B_a, Delta_a) binomial-basis coefficients
    discriminant: int
    alternative: str  # NoRoot | TwoSimple | DoubleRoot
    roots: tuple


def quadratic_singular(ctx, a):
    """Q_a = A_a + B_a X + binom(X,2) Delta_a for a surviving singular class."""
    p = ctx.p
    cs = ctx.class_coefficients(a, 3)
    c0, c1 = cs[0], cs[1]
    A_alg = ctx.A
    y = ctx.class_point(a)
    delta = A_alg.trace(A_alg.mul(y, A_alg.mul(ctx.U, ctx.U))) % p
    if A_alg.trace(A_alg.mul(y, ctx.U)) % p != 0:
        raise ValueError("class is not singular")
    if delta == 0:
        raise ValueError("degenerate class: second tangent vanishes")
    if c0 % p != 0 or (c0 // p) % p != 0:
        raise ValueError("lower obstruction nonzero: class dies mod p^2")
    A_a = c0 // p**2 % p
    B_a = c1 // p % p
    # disc of A + BX + binom(X,2) D: (B - D/2)^2 - 2 D A
    half = _invmod(2, p)
    D_a = ((B_a - delta * half) ** 2 - 2 * delta * A_a) % p
    mono = _binom_to_monomial((A_a, B_a, delta), p)
    roots = _jet_roots(mono, p)
    if not roots:
        alt = "NoRoot"
    elif len(roots) == 2:
        alt = "TwoSimple"
    else:
        alt = "DoubleRoot" if roots[0][1] == 2 else "TwoSimple"
    return QuadraticSingularData(
        (A_a, B_a, delta), D_a, alt, tuple(r for r, _ in roots)
    )


@dataclass
class CubicDegenerateData:
    R: tuple  # binomial-basis (A3, B3, D3, s*Norm(omega))
    roots: tuple  # (root, multiplicity) pairs
    branches: list


def cubic_degenerate(ctx, a):
    """Cubic first-obstruction model for the trace-dual degenerate class x = s z0."""
    p = ctx.p
    A_alg = ctx.A
    red = A_alg.reduced
    y = ctx.class_point(a)
    x = red.reduce(y)
    s = ctx.s0
    if s == 0:
        raise ValueError("degenerate cubic class needs s != 0")
    omega = ctx.omega
    if not red.is_generator(omega):
        raise ValueError("omega must generate the reduced algebra")
    if red.norm(omega) == 0:
        raise ValueError("omega must be a unit")
    w2 = red.mul(omega, omega)
    if red.trace(red.mul(x, omega)) != 0 or red.trace(red.mul(x, w2)) != 0:
        raise ValueError("class is not the degenerate singular class")
    lead = s * red.norm(omega) % p
    tr3 = red.trace(red.mul(x, red.mul(w2, omega)))
    if tr3 != lead:
        raise ArithmeticError("Tr(x omega^3) differs from s*Norm(omega)")
    cs = ctx.class_coefficients(a, 4)
    if cs[0] % p**3 or cs[1] % p**2 or cs[2] % p:
        raise ValueError("lower obstructions do not vanish: use the digit recursion")
    A3 = cs[0] // p**3 % p
    B3 = cs[1] // p**2 % p
    D3 = cs[2] // p % p
    R = (A3, B3, D3, lead)
    mono = _binom_to_monomial(R, p)
    roots = _jet_roots(mono, p)
    branches = []
    k0 = ctx.k0
    deriv = _poly_deriv(mono, p)
    for rho, mult in roots:
        if mult == 1 and k0 > 3:
            tau = _lift_simple_root(ctx, a, 3, rho, _poly_eval(deriv, rho, p), k0)
            branches.append({"root": rho, "tau": tau, "valuation_shift": 3})
        elif mult > 1 and k0 > 3:
            W, sols = _disk_factor_solutions(ctx, a, rho, mult, 3, k0)
            branches.append({"root": rho, "factor": W, "degree": mult})
        else:
            branches.append({"root": rho, "multiplicity": mult})
    return CubicDegenerateData(R, tuple(roots), branches)


def finite_jet(ctx, a, r):
    """Q_{a,r}: the order-r jet under the divisibility hypotheses C_m in p^(r-m)."""
    p = ctx.p
    if not 1 <= r < p:
        raise ValueError("jet order must satisfy 1 <= r < p")
    cs = ctx.class_coefficients(a, r + 1)
    jet = []
    for m, C in enumerate(cs):
        need = r - m
        if C % p ** max(need, 0):
            raise ValueError(f"divisibility hypothesis fails at m={m}")
        jet.append(C // p**need % p if need >= 0 else C % p)
    return tuple(jet)


def shifted_jet(ctx, a, t0, j, R):
    """Q^(j,t0)_{a,R} on the residue disk t = t0 + p^j Y."""
    p = ctx.p
    M = R // (j + 1)
    if M >= p:
        raise ValueError("shifted jet needs floor(R/(j+1)) < p")
    A = ctx.A
    etaPj = A.pow(ctx.etaP, p**j)
    Uj = A.divide_exact(A.sub(etaPj, A.one), p ** (j + 1))
    y = A.mul(ctx.class_point(a), A.pow(ctx.etaP, t0))
    jet = []
    upow = A.one
    for m in range(M + 1):
        C = A.trace(A.mul(y, upow))
        if m == 0:
            C -= ctx.c0
        need = R - (j + 1) * m
        if C % p ** max(need, 0):
            raise ValueError(f"shifted divisibility hypothesis fails at m={m}")
        jet.append(C // p**need % p if need >= 0 else C % p)
        if m <= M:
            upow = A.mul(upow, Uj)
    return tuple(jet)


def higher_order_transverse(ctx, a, r):
    """Unique zero tau with v(F(t)) = r + v(t - tau) when eta^P = 1 + p^r U, d^(r) != 0."""
    p = ctx.p
    A = ctx.A
    diff = A.sub(ctx.etaP, A.one)
    if any(c % p**r for c in diff):
        raise ValueError("eta^P is not 1 mod p^r")
    Ur = A.divide_exact(diff, p**r)
    omega_r = tuple(c % p for c in Ur)
    y = ctx.class_point(a)
    d_r = A.trace(A.mul(y, Ur)) % p
    if d_r == 0:
        raise ValueError("higher-order tangent vanishes: not transverse")
    F0 = (A.trace(y) - ctx.c0) % p ** min(ctx.K, r + 1)
    if F0 % p**r:
        raise ValueError("F(0) is not divisible by p^r")
    dinv = _invmod(d_r, p)
    tau = 0
    for j in range(0, max(0, ctx.k0 - r)):
        val = ctx.f_eval(a, tau, r + j + 1)
        if val % p ** (r + j):
            raise ArithmeticError("higher-order lift: F(tau) lost divisibility")
        w = -(val // p ** (r + j)) * dinv % p
        tau += w * p**j
    return tau, omega_r, d_r
