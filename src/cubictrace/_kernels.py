"""Enumeration kernels, in pure Python with exact integers.

* ``trace_norm_histogram`` -- the (trace, norm) tally of the units of a
  cubic algebra F_p[T]/(f).  It enumerates only the trace-0 and trace-1
  slices (p^2 elements each) and fills every row s != 0 from row 1 by the
  scaling bijection x -> s*x, which maps the fiber (1, n) onto (s, s^3 n).
  It inlines the arithmetic of ``algebra.ZpCubicAlgebra`` at k = 1; the
  tests compare it against a tally of the algebra's own trace and norm over
  all p^3 elements.
* ``zero_class_sweep`` -- the n in 0..total-1 with u_n = Tr(gamma * eta^n)
  = c (mod p^k), by the trace recurrence of eta's characteristic polynomial
  (Cayley-Hamilton), for any rank d.  No product code calls it: it is the
  tests' full-sweep reference for ``branch.brute_force_zero_oracle``, and
  the benchmark's ``kernels.sweep`` span wraps it.
"""

from collections import deque
from operator import mul

from .algebra import is_prime


def trace_norm_histogram(p, f):
    """Tally units of F_p[T]/(T^3+f2*T^2+f1*T+f0) by (trace, norm).

    Returns a flat list ``hist`` of length p*p with ``hist[s*p + n]`` the
    number of elements of trace s and norm n != 0.  Norm-zero elements are
    not counted.  Needs a prime p >= 5: the slices solve Tr x = t for x0,
    which divides by 3.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    f0, f1, f2 = (x % p for x in f)
    tr1 = (-f2) % p
    tr2 = (f2 * f2 - 2 * f1) % p
    inv3 = pow(3, -1, p)
    rows = []
    for t in (0, 1):
        row = [0] * p
        for x2 in range(p):
            w0 = (-f0 * x2) % p
            ws1 = (f1 * x2) % p  # x0 - ws1 = second coord of x*T
            w2base = (-f2 * x2) % p
            tr_x2 = t - tr2 * x2
            for x1 in range(p):
                # the one x0 with Tr x = 3*x0 + tr1*x1 + tr2*x2 = t
                x0 = (tr_x2 - tr1 * x1) * inv3 % p
                w2 = (x1 + w2base) % p
                v0 = (-f0 * w2) % p
                v1 = (w0 - f1 * w2) % p
                w1 = (x0 - ws1) % p
                v2 = (w1 - f2 * w2) % p
                norm = (
                    x0 * (w1 * v2 - w2 * v1)
                    - w0 * (x1 * v2 - x2 * v1)
                    + v0 * (x1 * w2 - x2 * w1)
                ) % p
                row[norm] += 1
        row[0] = 0
        rows.append(row)
    row0, row1 = rows
    hist = row0
    for s in range(1, p):
        inv_s3 = pow(s, -3, p)
        hist.extend([row1[n * inv_s3 % p] for n in range(p)])
    return hist


def zero_class_sweep(p, k, total, traces, charpoly, c):
    """Collect n in [0, total) with u_n = c (mod p^k).

    ``traces`` holds the starting terms u_0, ..., u_{d-1} of
    u_n = Tr(gamma * eta^n), and ``charpoly`` the coefficients
    (c_0, ..., c_{d-1}) of the characteristic polynomial
    X^d + c_{d-1} X^{d-1} + ... + c_0 of eta.  Cayley-Hamilton gives
    u_{n+d} = -(c_{d-1} u_{n+d-1} + ... + c_0 u_n), so a step costs d
    multiplications and one reduction.  Every n is visited; all inputs are
    taken mod p^k.
    """
    d = len(traces)
    if d == 0 or len(charpoly) != d:
        raise ValueError(
            f"need d >= 1 starting traces and d coefficients, got {d} and {len(charpoly)}"
        )
    m = p**k
    c %= m
    neg = [(-x) % m for x in charpoly]
    hits = []
    append = hits.append
    if d == 3:
        # every cubic algebra: the window unrolled into three locals
        u0, u1, u2 = (x % m for x in traces)
        b0, b1, b2 = neg
        for n in range(total):
            if u0 == c:
                append(n)
            u0, u1, u2 = u1, u2, (b0 * u0 + b1 * u1 + b2 * u2) % m
        return hits
    window = deque((x % m for x in traces), maxlen=d)
    push = window.append
    for n in range(total):
        if window[0] == c:
            append(n)
        push(sum(map(mul, neg, window)) % m)
    return hits
