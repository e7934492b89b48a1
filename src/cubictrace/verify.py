"""The desk-scale verification matrix: one runner per acceptance criterion.

Each ``check_*`` function returns a list of records
``{"id": str, "expected": ..., "got": ..., "pass": bool}``; ``run_all``
executes the whole matrix deterministically (seeded sweeps log their seed)
and assembles a machine-readable result sorted by check id.  All verdicts
are exact; no floats enter a pass/fail decision.
"""

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import counts as counts_mod
from . import stats as stats_mod
from .algebra import ZpCubicAlgebra, canonical_algebra, disc_cubic
from .branch import (
    DEFAULT_ENUM_CAP,
    BranchContext,
    brute_force_zero_oracle,
    certified_zero_set,
    quadratic_singular,
)
from .census import CensusQuery, brute_force_census, full_orbit_branch_census, singular_census
from .counts import CountQuery, brute_force_count, elliptic_count
from .rankd import affine_sharpness, jet_versality, rankd_classify, sharpness_construction
from .torus import (
    TorusGroup,
    coset_bound_report,
    coset_trace_count,
    nodal_concentration_check,
    nodal_coset_check,
    trace_fibers,
)
from .wieferich import CubicOrderSpec, scan

TYPES = ("split", "mixed", "inert")
DEFAULT_SEED = 20260809


def _rec(check_id, expected, got):
    return {"id": check_id, "expected": expected, "got": got, "pass": expected == got}


def _rec_bool(check_id, ok, got=None):
    return {"id": check_id, "expected": True, "got": ok if got is None else got, "pass": bool(ok)}


# -- criterion 1: count table ---------------------------------------------------


def check_count_table(pset=(5, 7, 11, 13)):
    records = []
    for p in pset:
        for name in TYPES:
            B = canonical_algebra(p, name)
            for s in range(p):
                for n in range(1, p):
                    brute = brute_force_count(CountQuery(B, s, n)).value
                    formula = counts_mod.count(CountQuery(B, s, n)).value
                    records.append(
                        _rec(f"count-table/p={p}/{name}/s={s}/n={n}", brute, formula)
                    )
    # the worked values N = 3, 5, 6 at p = 5, s = 0, n = 1
    for name, want in (("split", 3), ("mixed", 5), ("inert", 6)):
        got = brute_force_count(CountQuery(canonical_algebra(5, name), 0, 1)).value
        records.append(_rec(f"count-table/worked-example/{name}", want, got))
    # the six nodal table cells (type x q mod 3)
    nodal_cells = {
        ("split", 7): 7 - 3, ("split", 5): 5 - 1,
        ("mixed", 7): 7 + 1, ("mixed", 5): 5 - 1,
        ("inert", 7): 7, ("inert", 5): 5 + 2,
    }
    for (name, p), want in nodal_cells.items():
        got = counts_mod.nodal_count(canonical_algebra(p, name), 3).value
        records.append(_rec(f"count-table/nodal-cell/p={p}/{name}", want, got))
    return records


# -- criterion 2: factorization census identities --------------------------------


def check_factorization_census(pset=(5, 7, 11, 13)):
    records = []
    for p in pset:
        for eps in range(1, p):
            i, s, l, r = counts_mod.factorization_census(p, eps)
            e = elliptic_count(p, 0, eps)
            ok = (
                i + s + l + r == p
                and 3 * i == e
                and 6 * s + 3 * r == e - 3
                and 2 * l + r == 2 * p + 1 - e
            )
            records.append(_rec_bool(f"factorization-census/p={p}/eps={eps}", ok))
    return records


# -- criterion 3: smooth coset bound ---------------------------------------------


def norm_representative_units(B, rng):
    """One unit per norm value plus 20 random units."""
    by_norm = {}
    units = []
    for x in B.elements():
        n = B.norm(x)
        if n:
            units.append(x)
            by_norm.setdefault(n, x)
    sample = list(by_norm.values())
    sample.extend(rng.choice(units) for _ in range(20))
    return sample


def check_coset_bound(pset=(5, 7), seed=DEFAULT_SEED):
    """|m N_{gH,B}(s; gamma) - N_B(s, Norm gamma)| <= 3 (m-1) sqrt(q), exactly.

    For every smooth s, every subgroup H and every coset gH.  Tr(gamma h) is
    computed once per gamma over all of T, and each fiber is tallied by the
    coset labels that ``Subgroup`` caches; the bound depends only on the
    count, so it is checked once per distinct count of a (gamma, s, H).
    """
    rng = random.Random(seed)
    records = []
    for p in pset:
        for name in TYPES:
            B = canonical_algebra(p, name)
            T = TorusGroup(B)
            subs = T.subgroups()
            gammas = norm_representative_units(B, rng)
            failures = 0
            tested = 0
            for gamma in gammas:
                n = B.norm(gamma)
                fibers = trace_fibers(T, gamma)
                for s in range(p):
                    if (s**3 - 27 * n) % p == 0:
                        continue
                    n_b = counts_mod.actual_count(B, s, n)
                    for H in subs:
                        for cnt, times in Counter(H.coset_counts(fibers[s])).items():
                            tested += times
                            if not coset_bound_report(cnt, n_b, H.index, p).passed:
                                failures += times
            records.append(
                _rec(f"coset-bound/p={p}/{name}/tested={tested}", 0, failures)
            )
    return records


# -- criterion 4: nodal coset structure -------------------------------------------


def nodal_gammas(B, rng):
    """One (gamma, s) nodal pair for every nodal s in F_p^x."""
    p = B.p
    units_by_norm = {}
    for x in B.elements():
        n = B.norm(x)
        if n:
            units_by_norm.setdefault(n, []).append(x)
    out = []
    for s in range(1, p):
        n = s**3 * pow(27, -1, p) % p
        out.append((rng.choice(units_by_norm[n]), s))
    return out


def check_nodal_coset(pset=(5, 7), seed=DEFAULT_SEED):
    rng = random.Random(seed)
    records = []
    # the split p=7 all-or-nothing example on ker(chi0)
    B = canonical_algebra(7, "split")
    T = TorusGroup(B)
    K = T.subgroup_from_coords(T.exceptional.kernel_coords)
    from .torus import nodal_base_point

    hstar = T.coords(nodal_base_point(T, B.one, 3))
    per_coset = {g: coset_trace_count(T, K, g, B.one, 3) for g in K.coset_reps()}
    counts = sorted(per_coset.values(), reverse=True)
    records.append(_rec("nodal-coset/split7-all-or-nothing", [4, 0, 0], counts))
    carrier = next(g for g, cnt in per_coset.items() if cnt == 4)
    records.append(
        _rec_bool(
            "nodal-coset/split7-carrier-is-hstar-coset",
            hstar in set(K.coset_coords(carrier)),
        )
    )
    zero_rem = all(
        nodal_coset_check(T, K, g, B.one, 3).remainder == 0 for g in K.coset_reps()
    )
    records.append(_rec_bool("nodal-coset/split7-zero-remainder", zero_rem))
    for p in pset:
        for name in TYPES:
            B = canonical_algebra(p, name)
            T = TorusGroup(B)
            subs = T.subgroups()
            conc_fail = bound_fail = tested = 0
            for gamma, s in nodal_gammas(B, rng):
                rep = nodal_concentration_check(T, gamma, s)
                if not (rep.concentrated and rep.pointwise_character_match):
                    conc_fail += 1
                for H in subs:
                    for g in H.coset_reps():
                        tested += 1
                        if not nodal_coset_check(T, H, g, gamma, s).passed:
                            bound_fail += 1
            records.append(_rec(f"nodal-coset/concentration/p={p}/{name}", 0, conc_fail))
            records.append(
                _rec(f"nodal-coset/remainder-bound/p={p}/{name}/tested={tested}", 0, bound_fail)
            )
    return records


# -- criterion 5: certified branch algorithm = oracle ------------------------------


def _random_zp_algebra(rng, p, k, splitting_type):
    while True:
        f = tuple(rng.randrange(p) for _ in range(3))
        if disc_cubic(f[2], f[1], f[0]) % p == 0:
            continue
        A = ZpCubicAlgebra(p, k, f)
        if A.splitting_type == splitting_type:
            return A


def random_branch_context(rng, splitting_type, cap):
    """A random context at p in {5, 7, 11}, k <= 5, with at most ``cap`` oracle classes."""
    kmax = 5
    p = rng.choice((5, 7, 11))
    A = _random_zp_algebra(rng, p, kmax + 3, splitting_type)
    m = A.modulus
    while True:
        eta = tuple(rng.randrange(m) for _ in range(3))
        if A.is_unit(eta):
            break
    gamma = tuple(rng.randrange(m) for _ in range(3))
    gden = 0
    style = rng.randrange(4)
    if style == 1:
        gamma = tuple(g * p ** rng.randrange(1, 3) for g in gamma)
    elif style == 2:
        gden = rng.randrange(1, 3)
    c = rng.choice(
        [0, rng.randrange(p**3), Fraction(rng.randrange(1, p * p), p ** rng.randrange(1, 3))]
    )
    for k in range(rng.randrange(1, kmax + 1), 0, -1):
        ctx = BranchContext(A, eta, gamma, c=c, k=k, gamma_den=gden)
        if ctx.P * p ** (ctx.k_work - 1) <= cap:
            return ctx
    return None


def check_branch_oracle(seed, per_type, cap):
    rng = random.Random(seed)
    records = []
    # the split worked example: digits {0,1} from Q_0 = X(X-1)
    A = ZpCubicAlgebra.from_split_roots(5, 5, (0, 1, 2))
    eta = A.from_split_coords((1, 6, 11))
    gamma = A.from_split_coords((1, -2, 1))
    ctx = BranchContext(A, eta, gamma, c=0, k=3)
    qs = quadratic_singular(ctx, 0)
    records.append(_rec("branch-oracle/singular-splits/Q0", (0, 0, 2), qs.Q))
    res = certified_zero_set(ctx)
    records.append(
        _rec(
            "branch-oracle/singular-splits/digits",
            [0, 1],
            sorted({t % 5 for t in res.classes}),
        )
    )
    records.append(
        _rec_bool(
            "branch-oracle/singular-splits/oracle",
            res.classes == brute_force_zero_oracle(ctx),
        )
    )
    # the three versal alternatives at p = 5
    for (a0, b0), want in (((0, 0), "TwoSimple"), ((2, 1), "NoRoot"), ((0, 1), "DoubleRoot")):
        m = A.modulus
        half = pow(2, -1, m)
        x = A.from_split_coords((2 * half % m, -4 * half % m, 2 * half % m))
        y = A.from_split_coords((-b0 % m, b0, 0))
        z = A.from_split_coords((a0, 0, 0))
        g = A.add(x, A.add(A.scalar_mul(5, y), A.scalar_mul(25, z)))
        vctx = BranchContext(A, eta, g, c=0, k=4)
        records.append(
            _rec(
                f"branch-oracle/versal/A0={a0},B0={b0}",
                want,
                quadratic_singular(vctx, 0).alternative,
            )
        )
        records.append(
            _rec_bool(
                f"branch-oracle/versal-oracle/A0={a0},B0={b0}",
                certified_zero_set(vctx).classes == brute_force_zero_oracle(vctx),
            )
        )
    # randomized contexts per splitting type
    for name in TYPES:
        mismatches = 0
        tested = 0
        while tested < per_type:
            ctx = random_branch_context(rng, name, cap=cap)
            if ctx is None:
                continue
            tested += 1
            if certified_zero_set(ctx).classes != brute_force_zero_oracle(ctx, cap):
                mismatches += 1
        records.append(_rec(f"branch-oracle/randomized/{name}/n={tested}", 0, mismatches))
    return records


# -- criterion 6: census reconciliation --------------------------------------------


def full_fiber_context(B, rng, c=0, norm_order=1):
    """Context at k = 2 whose reduced orbit is the full union of fibers over a
    norm subgroup of the given order (1 = the norm-one orbit); None after 6000
    random tries."""
    p = B.p
    A = ZpCubicAlgebra(p, 2, B.f)
    target = B.torus_order() * norm_order
    for _ in range(6000):
        x = tuple(rng.randrange(A.modulus) for _ in range(3))
        if not A.is_unit(x):
            continue
        xb = B.reduce(x)
        nb = B.norm(xb)
        if pow(nb, norm_order, p) != 1 or B.element_order(xb) != target:
            continue
        ctx = BranchContext(A, x, (1, 0, 0), c=c, k=2)
        if B.is_generator(ctx.omega):
            return ctx
    return None


def check_census(pset=(5, 7, 11), seed=DEFAULT_SEED):
    rng = random.Random(seed)
    records = []
    for p in pset:
        # split algebras have no cyclic full-fiber orbit; mixed and inert do
        for name in ("mixed", "inert"):
            B = canonical_algebra(p, name)
            for c in (0, 1):
                ctx = full_fiber_context(B, rng, c=c)
                if ctx is None:
                    records.append(_rec_bool(f"census/context/p={p}/{name}/c={c}", False))
                    continue
                rep = full_orbit_branch_census(ctx)
                ok = (
                    rep.is_full_fiber
                    and rep.census is not None
                    and rep.census.total == rep.branch_total
                    and rep.census.singular == rep.branch_singular
                    and rep.delta_equals_u
                    and rep.degenerate_reconciles
                )
                records.append(_rec_bool(f"census/reconcile/p={p}/{name}/c={c}", ok))
        # formula censuses against brute force across types and fiber sets
        for name in TYPES:
            B = canonical_algebra(p, name)
            units = [x for x in B.elements() if B.is_unit(x)]
            gens = [x for x in B.elements() if B.is_generator(x)]
            fails = 0
            for _ in range(4):
                q = CensusQuery(
                    B,
                    rng.choice(units),
                    rng.choice(gens),
                    rng.randrange(p),
                    rng.choice([(1,), (1, p - 1), tuple(range(1, p))]),
                )
                rep = singular_census(q)
                if (rep.total, rep.singular) != brute_force_census(q):
                    fails += 1
            records.append(_rec(f"census/vs-brute-force/p={p}/{name}", 0, fails))
    # two-fiber orbits C = {1, -1} in the inert case
    for p in pset:
        B = canonical_algebra(p, "inert")
        ctx = full_fiber_context(B, rng, norm_order=2)
        if ctx is None:
            records.append(_rec_bool(f"census/two-fiber-context/p={p}", False))
            continue
        rep = full_orbit_branch_census(ctx)
        ok = (
            rep.is_full_fiber
            and sorted(rep.norms) == sorted({1, p - 1})
            and rep.census.total == rep.branch_total
            and rep.census.singular == rep.branch_singular
            and rep.delta_equals_u
        )
        records.append(_rec_bool(f"census/two-fiber/p={p}", ok))
    # supersingular census (p+1, 1, p) in the inert norm-one orbit
    for p in (5, 11):
        B = canonical_algebra(p, "inert")
        ctx = full_fiber_context(B, rng)
        rep = full_orbit_branch_census(ctx)
        got = (rep.branch_total, rep.branch_singular, rep.branch_transverse)
        records.append(_rec(f"census/supersingular/p={p}", (p + 1, 1, p), got))
    return records


# -- criterion 7: statistics ---------------------------------------------------------


def check_statistics(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    records = []
    for p in (5, 7, 11, 13):
        for name in TYPES:
            B = canonical_algebra(p, name)
            records.append(
                _rec(
                    f"stats/generator-count/p={p}/{name}",
                    stats_mod.generator_count(B),
                    stats_mod.generator_count_exhaustive(B),
                )
            )
    for p in (5, 11):
        for name in TYPES:
            t = stats_mod.cube_class_tally(canonical_algebra(p, name), 1)
            records.append(
                _rec(f"stats/cube-single-class/p={p}/{name}", 1, len(t.counts))
            )
    for p in (7, 13):
        for name in TYPES:
            for A in (1, 3):
                t = stats_mod.cube_class_tally(canonical_algebra(p, name), A)
                records.append(
                    _rec_bool(
                        f"stats/cube-bound/p={p}/{name}/A={A}",
                        t.class_bound_ok and t.character_bound_ok,
                    )
                )
    for p in (5, 7):
        B = canonical_algebra(p, "inert")
        w = next(x for x in B.elements() if B.is_generator(x) and B.is_unit(x))
        z0, _, z2 = B.trace_dual_basis(w)
        s = 2
        picked = None
        for u in range(1, p):
            x = B.add(B.scalar_mul(s, z0), B.scalar_mul(u, z2))
            if B.norm(x):
                picked = x
                break
        t = stats_mod.jet_family_statistics(B, w, picked, s)
        got = (t.freq_nonsquare, t.freq_square, t.freq_zero, t.uniform)
        want = (Fraction(p - 1, 2 * p), Fraction(p - 1, 2 * p), Fraction(1, p), True)
        records.append(_rec(f"stats/jet-frequencies/p={p}", want, got))
    return records


# -- criterion 8: appendix A -----------------------------------------------------------


def check_rankd(seed, contexts):
    from .algebra import RankDSplitAlgebra
    from .branch import digit_recursion

    rng = random.Random(seed)
    records = []
    for p, d, Om in ((7, 3, (1, 2, 3)), (11, 4, (1, 2, 3, 4)), (11, 2, (1, 2))):
        _, _, rep = sharpness_construction(p, d, Om)
        records.append(_rec_bool(f"rankd/sharpness/p={p}/d={d}", rep.passed))
        records.append(
            _rec(f"rankd/sharpness-value/p={p}/d={d}", p ** (d - 1), rep.values[d - 1])
        )
    for p, d in ((5, 3), (7, 3), (7, 4)):
        fails = 0
        for _ in range(25):
            e = rng.randrange(0, d)
            Q = [rng.randrange(p) for _ in range(e + 1)]
            Q[e] = rng.randrange(1, p)
            _, rep = jet_versality(p, d, tuple(Q))
            if not rep.passed:
                fails += 1
        records.append(_rec(f"rankd/versality/p={p}/d={d}", 0, fails))
    for p, d in ((7, 3), (11, 4), (7, 2)):
        ctx, rep = affine_sharpness(p, d)
        records.append(_rec_bool(f"rankd/affine-sharpness/p={p}/d={d}", rep.passed))
        zeros = certified_zero_set(ctx).classes
        records.append(
            _rec(
                f"rankd/affine-zeros/p={p}/d={d}",
                set(range(d)),
                {z % p for z in zeros},
            )
        )
    # bound sweep: no context exceeds its Weierstrass zero bound
    violations = 0
    checked = 0
    while checked < contexts:
        p = rng.choice([7, 11])
        d = rng.choice([2, 3, 4])
        A = RankDSplitAlgebra(p, 5, d)
        eta = tuple(rng.randrange(1, A.modulus) for _ in range(d))
        if not A.is_unit(eta):
            continue
        gamma = tuple(rng.randrange(A.modulus) for _ in range(d))
        if all(g % p == 0 for g in gamma):
            continue
        c = rng.choice([0, rng.randrange(p * p)])
        ctx = BranchContext(A, eta, gamma, c=c, k=5)
        checked += 1
        res = certified_zero_set(ctx)
        for desc in res.descriptors:
            if desc.a is None or not desc.data.get("branches"):
                continue
            mult = sum(b.get("degree", 1) for b in desc.data["branches"])
            try:
                rec = rankd_classify(ctx, desc.a, affine=c % p != 0)
            except ValueError:
                continue
            if mult > rec.bound:
                violations += 1
            if len(desc.residues) <= p * p:
                if list(desc.residues) != digit_recursion(ctx, desc.a, ctx.k0):
                    violations += 1
    records.append(_rec(f"rankd/zero-bound/contexts={checked}", 0, violations))
    return records


# -- criterion 9: appendix B ------------------------------------------------------------


def check_wieferich():
    spec = CubicOrderSpec((-1, -1, 0), (0, 1, 0))  # T^3 - T - 1, eta = t
    reports = scan(spec, 5, 200)
    inert = [r for r in reports if r.inert]
    bad = sum(
        1
        for r in inert
        if not r.scalar_checks_agree
        or (not r.indeterminate and not r.nonscalar_check)
        or (r.p**3 - 1) % r.P != 0
        or r.P % r.p == 0
    )
    return [
        _rec("wieferich/inert-prime-count-positive", True, len(inert) > 0),
        _rec(f"wieferich/three-way-and-restart/inert={len(inert)}", 0, bad),
    ]


# -- runner --------------------------------------------------------------------------


@dataclass
class VerificationMatrixResult:
    records: list
    seed: int
    summary: dict = field(default_factory=dict)

    @property
    def exit_code(self):
        return 0 if self.summary["failed"] == 0 else 1

    def to_jsonable(self):
        return {
            "seed": self.seed,
            "summary": self.summary,
            "records": self.records,
        }


# the size of each randomized criterion; cubictrace verify-all takes its
# option defaults from here, so run_all() and the CLI draw the same contexts
DEFAULT_CAPS = {"enum": DEFAULT_ENUM_CAP, "branch_contexts": 500, "rankd_contexts": 200}

CHECKS = {
    "1-count-table": lambda pset, seed, caps: check_count_table(),
    "2-factorization-census": lambda pset, seed, caps: check_factorization_census(),
    "3-coset-bound": lambda pset, seed, caps: check_coset_bound(pset, seed),
    "4-nodal-coset": lambda pset, seed, caps: check_nodal_coset(pset, seed),
    "5-branch-oracle": lambda pset, seed, caps: check_branch_oracle(
        seed, per_type=caps["branch_contexts"], cap=caps["enum"]
    ),
    "6-census": lambda pset, seed, caps: check_census(seed=seed),
    "7-statistics": lambda pset, seed, caps: check_statistics(seed),
    "8-rankd": lambda pset, seed, caps: check_rankd(seed, contexts=caps["rankd_contexts"]),
    "9-wieferich": lambda pset, seed, caps: check_wieferich(),
}


def run_all(pset=(5, 7), seed=DEFAULT_SEED, caps=None, fault=None, only=None):
    """Run the acceptance matrix; ``fault`` flips one named record (self-test).

    ``caps`` overrides entries of DEFAULT_CAPS.
    """
    caps = {**DEFAULT_CAPS, **(caps or {})}
    records = []
    for cid, fn in CHECKS.items():
        if only and cid not in only:
            continue
        recs = fn(tuple(pset), seed, caps)
        for r in recs:
            r["id"] = f"{cid}/{r['id']}"
        records.extend(recs)
    if fault is not None:
        for r in records:
            if fault in r["id"]:
                r["got"] = "FAULT-INJECTED"
                r["pass"] = False
                break
        else:
            raise ValueError(f"fault target {fault!r} matches no record")
    records.sort(key=lambda r: r["id"])
    summary = {
        "total": len(records),
        "passed": sum(1 for r in records if r["pass"]),
        "failed": sum(1 for r in records if not r["pass"]),
    }
    return VerificationMatrixResult(records=records, seed=seed, summary=summary)
