"""The codifferent singular line and exact branch censuses.

For a generator omega with trace-dual basis (z0, z1, z2), the elements with
Tr(x) = s and Tr(omega x) = 0 form the line s z0 + F z2, and the second
trace tangent of x = s z0 + u z2 is exactly u.  In a full union of norm
fibers, the number of singular branch classes therefore reduces to counting
solutions of one norm equation per fiber, and in the homogeneous case to
the cube equation u^3 = -Norm(gamma) delta disc(f_omega).

All censuses come with brute-force scans; full-fiber detection is by
exhaustive orbit enumeration, never by group-theoretic shortcut.
"""

from dataclasses import dataclass, field

from . import counts as counts_mod


def dual_coordinates(B, omega, x):
    """(s, t, u) with x = s z0 + t z1 + u z2: the three trace pairings."""
    w2 = B.mul(omega, omega)
    return (
        B.trace(x),
        B.trace(B.mul(omega, x)),
        B.trace(B.mul(w2, x)),
    )


def singular_line_membership(B, omega, s, x):
    """u with x = s z0 + u z2 when x lies on the singular line, else None."""
    if not B.is_generator(omega):
        raise ValueError("the line is attached to a generator")
    got_s, got_t, u = dual_coordinates(B, omega, x)
    if got_s != s % B.p or got_t != 0:
        return None
    z0, _, z2 = B.trace_dual_basis(omega)
    rebuilt = B.add(B.scalar_mul(s, z0), B.scalar_mul(u, z2))
    if rebuilt != B.reduce(x):
        raise ArithmeticError("s z0 + u z2 does not rebuild x")
    return u


@dataclass(frozen=True)
class CensusQuery:
    B: object
    gamma: tuple
    omega: tuple
    s: int
    fibers: tuple  # nonempty subset of F_p^x

    def __post_init__(self):
        if not self.fibers or any(d % self.B.p == 0 for d in self.fibers):
            raise ValueError("fibers must be a nonempty subset of the nonzero norms")
        if not self.B.is_unit(self.gamma):
            raise ValueError("gamma must be a unit")
        if not self.B.is_generator(self.omega):
            raise ValueError("omega must generate")


@dataclass
class CensusReport:
    total: int
    singular: int
    transverse: int
    per_fiber: dict = field(default_factory=dict)
    degenerate_fibers: tuple = ()
    u_values: dict = field(default_factory=dict)


def singular_census(query):
    """Formula census of X_{s,C,gamma} and its singular subset."""
    B = query.B
    p = B.p
    s = query.s % p
    ngamma = B.norm(query.gamma)
    z0, _, z2 = B.trace_dual_basis(query.omega)
    total = 0
    singular = 0
    per_fiber = {}
    degenerate = []
    u_values = {}
    sz0 = B.scalar_mul(s, z0)
    for delta in query.fibers:
        nd = ngamma * delta % p
        m_d = counts_mod.actual_count(B, s, nd)
        us = [
            u
            for u in range(p)
            if B.norm(B.add(sz0, B.scalar_mul(u, z2))) == nd
        ]
        per_fiber[delta] = {"count": m_d, "singular": len(us)}
        u_values[delta] = tuple(us)
        total += m_d
        singular += len(us)
        if B.norm(sz0) == nd:
            degenerate.append(delta)
    return CensusReport(
        total=total,
        singular=singular,
        transverse=total - singular,
        per_fiber=per_fiber,
        degenerate_fibers=tuple(degenerate),
        u_values=u_values,
    )


def homogeneous_singular_count(B, omega, gamma, delta):
    """#{u in F_p^x : u^3 = -Norm(gamma) delta disc(f_omega)} (the cube equation)."""
    p = B.p
    rhs = -B.norm(gamma) * delta * B.disc_charpoly(omega) % p
    return sum(1 for u in range(1, p) if pow(u, 3, p) == rhs)


def brute_force_census(query):
    """Exhaustive scan of X_{s,C,gamma} and its singular subset."""
    B = query.B
    p = B.p
    s = query.s % p
    fibers = {d % p for d in query.fibers}
    wg = B.mul(query.omega, query.gamma)
    total = singular = 0
    for h in B.elements():
        nh = B.norm(h)
        if nh == 0 or nh not in fibers:
            continue
        if B.trace(B.mul(query.gamma, h)) != s:
            continue
        total += 1
        if B.trace(B.mul(wg, h)) == 0:
            singular += 1
    return total, singular


@dataclass
class OrbitCensusReport:
    is_full_fiber: bool
    norms: tuple
    census: CensusReport | None
    branch_total: int
    branch_singular: int
    branch_transverse: int
    branch_degenerate: int  # singular classes with u = 0
    delta_equals_u: bool

    @property
    def degenerate_reconciles(self):
        if self.census is None:
            return None
        return self.branch_degenerate == len(self.census.degenerate_fibers)


def full_orbit_branch_census(ctx):
    """Reconcile the census formulas with the branch classification of one period.

    ``ctx`` is a BranchContext whose omega generates and whose gamma is a
    unit mod p.  When the reduced orbit of eta is a full union of norm
    fibers, the (M, S) formulas must equal the branch tallies; otherwise the
    orbit is reported non-full and no census is asserted.
    """
    A = ctx.A
    B = A.reduced
    p = ctx.p
    etab = B.reduce(ctx.eta_elt)
    gb = B.reduce(ctx.gamma_elt)
    if not B.is_unit(gb):
        raise ValueError("gamma must reduce to a unit")
    omega = ctx.omega
    orbit = []
    h = B.one
    for _ in range(ctx.P):
        orbit.append(h)
        h = B.mul(h, etab)
    norms = sorted({B.norm(h) for h in orbit})
    full = {x for x in B.elements() if B.norm(x) in set(norms)}
    is_full = len(orbit) == len(full) and set(orbit) == full
    # branch-side tallies over one period (mod-p data only)
    s = ctx.c_int % p
    w2 = B.mul(omega, omega)
    gen_ok = B.is_generator(omega)
    total = singular = degenerate = 0
    delta_match = True
    for h in orbit:
        x = B.mul(gb, h)
        if B.trace(x) != s:
            continue
        total += 1
        if B.trace(B.mul(x, omega)) == 0:
            singular += 1
            if not gen_ok:
                continue
            u = singular_line_membership(B, omega, s, x)
            if u is None or B.trace(B.mul(x, w2)) != u:
                delta_match = False
            if u == 0:
                degenerate += 1
    census = None
    if is_full and gen_ok:
        census = singular_census(
            CensusQuery(B, gb, omega, s, tuple(norms))
        )
    return OrbitCensusReport(
        is_full_fiber=is_full,
        norms=tuple(norms),
        census=census,
        branch_total=total,
        branch_singular=singular,
        branch_transverse=total - singular,
        branch_degenerate=degenerate,
        delta_equals_u=delta_match,
    )


@dataclass
class OrbitPreimageReport:
    preimage_count: int
    image_count: int


def orbit_preimage_count(B, etab, gammab, cbar):
    """#{h in <eta> : Tr(gamma h) = c} versus #(gamma<eta> cap trace fiber).

    The two counts agree when gamma is a unit; the preimage count is the
    correct general notion (gamma may be a zero divisor).
    """
    p = B.p
    cbar %= p
    if all(x % p == 0 for x in gammab):
        # every class is a zero class for c = 0; empty image treated as {0}
        order = B.element_order(etab) if B.is_unit(etab) else None
        pre = order if cbar == 0 else 0
        return OrbitPreimageReport(pre, 1 if cbar == 0 else 0)
    orbit = []
    h = B.one
    while True:
        orbit.append(h)
        h = B.mul(h, etab)
        if h == B.one:
            break
    pre = sum(1 for h in orbit if B.trace(B.mul(gammab, h)) == cbar)
    image = len({B.mul(gammab, h) for h in orbit if B.trace(B.mul(gammab, h)) == cbar})
    return OrbitPreimageReport(pre, image)
