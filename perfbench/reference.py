"""Reference computations the benchmark checks cubictrace against.

Nothing here imports cubictrace.  Each function is written from its
definition, in a different way from the package's own code:

* arithmetic in Z/m[T]/(f) by schoolbook multiplication and reduction of
  T^4, T^3, and trace and norm as trace and determinant of the matrix of
  multiplication, whose columns are x, x*T, x*T^2;
* Tr(gamma * eta^n) by square-and-multiply, in the polynomial basis and in
  split coordinates;
* the digit-by-digit lift of F(t) = Tr(gamma * eta^(a + P*t)) - c, one
  p-adic digit of t at a time, straight from the congruence it solves;
* the point count of E_{s,n} by Euler's criterion, and N_B(s, n) from it
  through the twist of the splitting type;
* the closed orders of the norm-one torus.

A cubic is the triple (f0, f1, f2) of T^3 + f2*T^2 + f1*T + f0; an element
is the triple (c0, c1, c2) of c0 + c1*T + c2*T^2.
"""

SPLIT, MIXED, INERT = "split", "mixed", "inert"


# -- arithmetic in Z/m[T]/(f) --------------------------------------------------


def poly_mulmod(x, y, f, m):
    """x * y in Z/m[T]/(f): the degree-4 product, then T^4 and T^3 folded down."""
    prod = [0] * 5
    for i in range(3):
        for j in range(3):
            prod[i + j] += x[i] * y[j]
    for top in (4, 3):
        lead = prod[top]
        prod[top] = 0
        # T^top = T^(top-3) * T^3 and T^3 = -(f2 T^2 + f1 T + f0)
        for i in range(3):
            prod[top - 3 + i] -= lead * f[i]
    return (prod[0] % m, prod[1] % m, prod[2] % m)


def poly_powmod(x, e, f, m):
    """x^e in Z/m[T]/(f) for e >= 0, by square-and-multiply."""
    result = (1 % m, 0, 0)
    base = tuple(c % m for c in x)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, f, m)
        base = poly_mulmod(base, base, f, m)
        e >>= 1
    return result


def _mult_columns(x, f, m):
    t = (0, 1, 0)
    xt = poly_mulmod(x, t, f, m)
    return (tuple(c % m for c in x), xt, poly_mulmod(xt, t, f, m))


def poly_trace(x, f, m):
    """Trace of multiplication by x: the diagonal of the matrix [x | xT | xT^2]."""
    cols = _mult_columns(x, f, m)
    return (cols[0][0] + cols[1][1] + cols[2][2]) % m


def poly_norm(x, f, m):
    """Norm of x: the determinant of the matrix [x | xT | xT^2], by Sarrus' rule."""
    (a, d, g), (b, e, h), (c, k, i) = _mult_columns(x, f, m)
    det = a * e * i + b * k * g + c * d * h - c * e * g - b * d * i - a * k * h
    return det % m


def trace_power(gamma, eta, n, f, m):
    """Tr(gamma * eta^n) mod m in Z/m[T]/(f)."""
    return poly_trace(poly_mulmod(gamma, poly_powmod(eta, n, f, m), f, m), f, m)


def split_trace_power(gamma, eta, n, m):
    """Tr(gamma * eta^n) mod m in the split algebra (Z/m)^d: sum of gamma_i eta_i^n."""
    return sum(g * pow(e, n, m) for g, e in zip(gamma, eta)) % m


# -- the digit lift -------------------------------------------------------------


def digit_lift(mul, trace, y_a, eta_P, c, p, k, cap=10**6):
    """R(k) = {t mod p^(k-1) : F(t) = 0 mod p^k} for F(t) = Tr(y_a * eta_P^t) - c.

    ``mul`` and ``trace`` are the algebra's product and trace mod p^k;
    ``y_a`` is gamma * eta^a and ``eta_P`` is eta^P, which is 1 mod p, so
    F(t) mod p^j depends on t mod p^(j-1) only.  Level j keeps the t mod
    p^(j-1) with F(t) = 0 mod p^j; each survivor r is extended by the
    digits w in 0..p-1 to t = r + p^(j-1) w.  Every candidate carries its
    point y_a * eta_P^t, so no power is recomputed.
    """
    level = [(0, y_a)] if (trace(y_a) - c) % p == 0 else []
    step = eta_P  # eta_P^(p^(j-1)) at level j
    for j in range(1, k):
        q = p ** (j + 1)
        nxt = []
        for r, y in level:
            for w in range(p):
                if (trace(y) - c) % q == 0:
                    nxt.append((r + p ** (j - 1) * w, y))
                y = mul(y, step)
        if len(nxt) > cap:
            raise ValueError(f"digit lift exceeds {cap} survivors")
        if not nxt:
            return []
        level = nxt
        step = _power(mul, step, p)
    return sorted(t for t, _ in level)


def _power(mul, x, e):
    out = x
    for _ in range(e - 1):
        out = mul(out, x)
    return out


# -- counts over F_p ---------------------------------------------------------------


def legendre_table(p):
    """chi(a) for a in F_p by Euler's criterion a^((p-1)/2), chi(0) = 0."""
    chi = [0] * p
    for a in range(1, p):
        chi[a] = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
    return chi


def elliptic_points(p, s, n, chi=None):
    """#E_{s,n}(F_p), projective: V^2 = s^2 U^2 - 4U^3 + 18snU - 4s^3 n - 27n^2."""
    chi = chi or legendre_table(p)
    total = 1  # the point at infinity
    for u in range(p):
        rhs = (s * s * u * u - 4 * u**3 + 18 * s * n * u - 4 * s**3 * n - 27 * n * n) % p
        total += 1 + chi[rhs]
    return total


def splitting_type(p, f):
    """split, mixed or inert from the number of roots of the squarefree cubic mod p."""
    roots = sum(1 for r in range(p) if (r**3 + f[2] * r * r + f[1] * r + f[0]) % p == 0)
    return {3: SPLIT, 1: MIXED, 0: INERT}[roots]


def fixed_labels(splitting):
    return {SPLIT: 3, MIXED: 1, INERT: 0}[splitting]


def exceptional_size(p, splitting):
    """|E_B| = 3 when p * sign(Frobenius) = 1 mod 3, else 1; sign -1 only for mixed."""
    sign = -1 if splitting == MIXED else 1
    return 3 if (p * sign) % 3 == 1 else 1


def n_b(p, splitting, s, n, chi=None):
    """N_B(s, n) for n != 0: the twisted elliptic count, or the nodal value."""
    s %= p
    n %= p
    if (s**3 - 27 * n) % p == 0:
        return p + 3 - fixed_labels(splitting) - exceptional_size(p, splitting)
    e = elliptic_points(p, s, n, chi)
    return {SPLIT: e - 3, MIXED: 2 * p + 1 - e, INERT: e}[splitting]


def count_table(p, splitting):
    """{(s, n): N_B(s, n)} over s in F_p and n in F_p^x."""
    chi = legendre_table(p)
    return {(s, n): n_b(p, splitting, s, n, chi) for s in range(p) for n in range(1, p)}


# -- the torus --------------------------------------------------------------------


def torus_order(p, splitting):
    """|T_B(F_p)|: (p-1)^2 split, p^2-1 mixed, p^2+p+1 inert."""
    return {SPLIT: (p - 1) ** 2, MIXED: p * p - 1, INERT: p * p + p + 1}[splitting]


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)
