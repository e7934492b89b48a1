"""Enumeration kernels: the two hot loops, in pure Python with exact integers.

* ``trace_norm_histogram`` -- the (trace, norm) tally of the units of a
  cubic algebra F_p[T]/(f).  It enumerates only the trace-0 and trace-1
  slices (p^2 elements each) and fills every row s != 0 from row 1 by the
  scaling bijection x -> s*x, which maps the fiber (1, n) onto (s, s^3 n).
* ``zero_class_sweep`` -- one pass over the branch classes n = 0..total-1,
  collecting the n with Tr(gamma * eta^n) = c (mod p^k).

Both inline the arithmetic of ``algebra.ZpCubicAlgebra``; the tests compare
them against the algebra's own trace, norm and multiplication, the histogram
against a tally over all p^3 elements.
"""

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


def zero_class_sweep(p, k, total, eta, gamma, f, c):
    """Collect n in [0, total) with Tr(gamma * eta^n) = c (mod p^k).

    ``eta``, ``gamma`` are coefficient triples and ``f`` the cubic's
    (f0, f1, f2); all are taken mod p^k.
    """
    m = p**k
    f0, f1, f2 = (x % m for x in f)
    e0, e1, e2 = (x % m for x in eta)
    g0, g1, g2 = (x % m for x in gamma)
    c = c % m
    tr1 = (-f2) % m
    tr2 = (f2 * f2 - 2 * f1) % m
    r40 = (f2 * f0) % m
    r41 = (f2 * f1 - f0) % m
    r42 = (f2 * f2 - f1) % m
    hits = []
    append = hits.append
    for n in range(total):
        if (3 * g0 + tr1 * g1 + tr2 * g2) % m == c:
            append(n)
        h0 = g0 * e0
        h1 = g0 * e1 + g1 * e0
        h2 = g0 * e2 + g1 * e1 + g2 * e0
        h3 = g1 * e2 + g2 * e1
        h4 = g2 * e2
        g0 = (h0 - h3 * f0 + h4 * r40) % m
        g1 = (h1 - h3 * f1 + h4 * r41) % m
        g2 = (h2 - h3 * f2 + h4 * r42) % m
    return hits
