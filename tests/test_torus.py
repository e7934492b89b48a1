import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from conftest import canonical_algebras

from cubictrace.counts import CountQuery, actual_count, brute_force_count
from cubictrace.torus import (
    CharacterExponent,
    NodalCosetReport,
    TorusGroup,
    all_coset_bounds,
    coset_bound_report,
    coset_trace_count,
    exceptional_size,
    nodal_base_point,
    nodal_concentration_check,
    nodal_coset_check,
    nonemptiness_check,
    trace_fibers,
    verify_coset_bound,
)

_TORI = {}


def torus(p, name):
    if (p, name) not in _TORI:
        _TORI[(p, name)] = TorusGroup(canonical_algebras(p)[name])
    return _TORI[(p, name)]


def test_torus_orders():
    expected = {
        (5, "split"): 16, (5, "mixed"): 24, (5, "inert"): 31,
        (7, "split"): 36, (7, "mixed"): 48, (7, "inert"): 57,
    }
    for (p, name), order in expected.items():
        T = torus(p, name)
        assert T.order == order
        assert T.d1 * T.d2 == order and T.d1 % T.d2 == 0
    for p in (11, 13):
        for name, B in canonical_algebras(p).items():
            T = TorusGroup(B)
            assert T.order == B.torus_order()


def test_every_element_has_norm_one():
    T = torus(7, "mixed")
    assert all(T.B.norm(x) == 1 for x in T.elements)


def test_structure_regenerates_group():
    for p in (5, 7):
        for name in ("split", "mixed", "inert"):
            T = torus(p, name)
            assert len(set(T.coord_of.values())) == T.order
            # dlog is a homomorphism on a sample
            rng = random.Random(0)
            for _ in range(20):
                a = rng.choice(T.elements)
                b = rng.choice(T.elements)
                ca, cb = T.coords(a), T.coords(b)
                assert T.coords(T.B.mul(a, b)) == T.coord_add(ca, cb)


def test_subgroup_enumeration():
    # inert 5: order 31 is prime -> only trivial and full
    subs = torus(5, "inert").subgroups()
    assert [H.order for H in subs] == [1, 31]
    # split 5: Z4 x Z4 has 15 subgroups
    assert len(torus(5, "split").subgroups()) == 15
    # mixed 7: cyclic of order 48 -> one subgroup per divisor
    assert len(torus(7, "mixed").subgroups()) == 10
    for T in (torus(5, "split"), torus(7, "inert")):
        subs = T.subgroups()
        orders = {H.order for H in subs}
        assert 1 in orders and T.order in orders
        for H in subs:
            assert T.order % H.order == 0
            # closed under the group law
            for a in list(H.coords)[:6]:
                for b in list(H.coords)[:6]:
                    assert T.coord_add(a, b) in H.coords


def _subgroups_spanning_every_element(T):
    """Reference enumeration: every join of two cyclic spans, O(order^2)."""
    cyclic = {T.span([v]) for v in T.all_coords()}
    found = {frozenset(T.coord_add(a, b) for a in H1 for b in H2) for H1 in cyclic for H2 in cyclic}
    return sorted((len(H), sorted(H)) for H in found)


def test_subgroups_match_spanning_every_element():
    for p in (5, 7, 11, 13):
        for name in ("split", "mixed", "inert"):
            T = torus(p, name)
            got = [(H.order, sorted(H.coords)) for H in T.subgroups()]
            assert got == _subgroups_spanning_every_element(T), (p, name)


def test_cyclic_tori_list_every_subgroup_without_joins():
    # mixed and inert tori are cyclic (d2 = 1), so every subgroup is the
    # span of one element and the joins the reference forms add nothing
    for p in (5, 7, 11, 17):
        for name in ("mixed", "inert"):
            T = torus(p, name)
            assert T.d2 == 1
            got = [(H.order, sorted(H.coords)) for H in T.subgroups()]
            assert got == _subgroups_spanning_every_element(T), (p, name)
            # one subgroup per divisor of the order
            assert len(got) == sum(1 for d in range(1, T.order + 1) if T.order % d == 0)


def test_annihilator_sizes():
    T = torus(7, "split")
    for H in T.subgroups():
        assert len(T.annihilator(H)) == H.index


def test_subgroup_enumeration_is_complete_at_every_order():
    # Z_m x Z_n has sum_{a | m, b | n} gcd(a, b) subgroups; at split p = 23
    # (order 484) and 29 (order 784) every one is listed, each once
    for p, want in ((23, 70), (29, 150)):
        T = torus(p, "split")
        assert T.d1 == T.d2 == p - 1
        divisors = [d for d in range(1, p) if (p - 1) % d == 0]
        assert sum(gcd(a, b) for a in divisors for b in divisors) == want
        subs = T.subgroups()
        assert len(subs) == want
        assert len({H.coords for H in subs}) == want
        for H in subs:
            assert T.order % H.order == 0
            assert all(T.coord_add(a, b) in H.coords for a in H.coords for b in H.coords)
        if p == 23:
            assert [(H.order, sorted(H.coords)) for H in subs] == _subgroups_spanning_every_element(T)


def test_coset_trace_count_full_group_is_count():
    # H = T, g = 1: count = N_B(s, Norm(gamma))
    rng = random.Random(1)
    for p in (5, 7):
        for name in ("split", "mixed", "inert"):
            T = torus(p, name)
            B = T.B
            full = T.subgroup_from_coords(T.all_coords())
            for _ in range(5):
                gamma = rng.choice([x for x in B.elements() if B.is_unit(x)])
                s = rng.randrange(p)
                got = coset_trace_count(T, full, (0, 0), gamma, s)
                want = brute_force_count(CountQuery(B, s, B.norm(gamma))).value
                assert got == want


def test_coset_bound_m1_error_zero():
    T = torus(5, "inert")
    full = T.subgroup_from_coords(T.all_coords())
    r = verify_coset_bound(T, full, (0, 0), T.B.one, 0)
    assert r.error == 0 and r.passed


def test_coset_bound_exhaustive_split7():
    T = torus(7, "split")
    B = T.B
    rng = random.Random(2)
    units = [x for x in B.elements() if B.is_unit(x)]
    gammas = [rng.choice(units) for _ in range(3)]
    for H in T.subgroups():
        reps = H.coset_reps()
        for gamma in gammas:
            n = B.norm(gamma)
            for s in range(7):
                if (s**3 - 27 * n) % 7 == 0:
                    continue
                for g in reps:
                    assert verify_coset_bound(T, H, g, gamma, s).passed


def test_coset_tally_matches_enumeration():
    # the one-pass tally (trace fibers split by cached coset labels) against
    # the per-coset enumeration, for every subgroup, coset and smooth s
    rng = random.Random(5)
    for p in (5, 7):
        for name in ("split", "mixed", "inert"):
            T = torus(p, name)
            B = T.B
            units = [x for x in B.elements() if B.is_unit(x)]
            for gamma in [B.one] + [rng.choice(units) for _ in range(2)]:
                fibers = trace_fibers(T, gamma)
                assert sorted(c for fiber in fibers for c in fiber) == sorted(T.all_coords())
                n = B.norm(gamma)
                for s in range(p):
                    if (s**3 - 27 * n) % p == 0:
                        continue
                    n_b = actual_count(B, s, n)
                    for H in T.subgroups():
                        reps = H.coset_reps()
                        counts = H.coset_counts(fibers[s])
                        assert len(reps) == len(counts) == H.index
                        for g, cnt in zip(reps, counts):
                            assert cnt == coset_trace_count(T, H, g, gamma, s)
                            assert coset_bound_report(cnt, n_b, H.index, p) == verify_coset_bound(
                                T, H, g, gamma, s, n_b=n_b
                            )
            # the CLI's all-coset pass, report for report
            gamma, s = units[0], 1
            want = [
                (H.order, g, verify_coset_bound(T, H, g, gamma, s))
                for H in T.subgroups()
                for g in H.coset_reps()
            ]
            assert [(H.order, g, r) for H, g, r in all_coset_bounds(T, gamma, s)] == want


def test_coset_labels_partition_the_torus():
    for p in (5, 7):
        for name in ("split", "mixed", "inert"):
            T = torus(p, name)
            for H in T.subgroups():
                reps = H.coset_reps()
                assert H.coset_counts(T.all_coords()) == [H.order] * H.index
                assert reps == sorted(reps) and reps[0] == (0, 0)
                # each rep is the least coord of its coset, and a fresh list is returned
                assert all(g == min(H.coset_coords(g)) for g in reps)
                reps.append(None)
                assert len(H.coset_reps()) == H.index


def test_coset_bound_singleton_cosets_inert5():
    # H trivial (m=31): (31*N_gH - 6)^2 <= 9*900*5 at s=0, Norm=1
    T = torus(5, "inert")
    H = T.subgroup_from_coords([(0, 0)])
    for g in H.coset_reps():
        r = verify_coset_bound(T, H, g, T.B.one, 0)
        assert r.n_b == 6 and r.rhs == 9 * 900 * 5
        assert r.passed


def test_nonemptiness():
    T = torus(13, "inert")
    B = T.B
    # small-index subgroup: order 183 = 3*61
    H = next(h for h in T.subgroups() if h.index == 3)
    rep = nonemptiness_check(T, H, B.one, 0)
    if rep.criterion_holds:
        assert rep.verified_all_cosets
    # trivial index-1 certificate on a nonempty fiber
    full = T.subgroup_from_coords(T.all_coords())
    rep = nonemptiness_check(T, full, B.one, 0)
    assert rep.criterion_holds and rep.verified_all_cosets
    # criterion false -> no certificate, not "empty"
    H1 = T.subgroup_from_coords([(0, 0)])
    rep = nonemptiness_check(T, H1, B.one, 0)
    assert not rep.criterion_holds and rep.verified_all_cosets is None


def test_exceptional_size_table():
    # size 3 iff q*eps_B = 1 mod 3
    expected = {
        (7, "split"): 3, (13, "split"): 3, (5, "split"): 1, (11, "split"): 1,
        (5, "mixed"): 3, (11, "mixed"): 3, (7, "mixed"): 1, (13, "mixed"): 1,
        (7, "inert"): 3, (13, "inert"): 3, (5, "inert"): 1, (11, "inert"): 1,
    }
    for (p, name), size in expected.items():
        assert exceptional_size(canonical_algebras(p)[name]) == size


def test_exceptional_group_structure():
    for p, name in [(7, "split"), (5, "mixed"), (7, "inert")]:
        T = torus(p, name)
        exc = T.exceptional
        assert exc is T.exceptional  # derived once per torus
        assert exc.size == 3
        assert exc.generator.order == 3
        assert 3 * len(exc.kernel_coords) == T.order
    exc = torus(5, "inert").exceptional
    assert exc.size == 1 and exc.generator is None


def nodal_configurations(T, rng, count=4):
    """(gamma, s) pairs with s != 0 and s^3 = 27 Norm(gamma)."""
    B = T.B
    p = B.p
    units = [x for x in B.elements() if B.is_unit(x)]
    out = []
    for s in range(1, p):
        n = s**3 * pow(27, -1, p) % p
        cands = [u for u in units if B.norm(u) == n]
        out.append((rng.choice(cands), s))
    rng.shuffle(out)
    return out[:count]


def test_nodal_concentration_all_types():
    rng = random.Random(3)
    for p in (5, 7):
        for name in ("split", "mixed", "inert"):
            T = torus(p, name)
            for gamma, s in nodal_configurations(T, rng):
                rep = nodal_concentration_check(T, gamma, s)
                assert rep.concentrated and rep.pointwise_character_match
                if rep.exceptional_size == 3:
                    assert rep.coset_index == 3


def test_split7_nodal_all_or_nothing():
    # Example: ker(chi0) cosets carry (N^nod, 0, 0) with N^nod = 4, the
    # nonzero count sitting on the coset of h_* = (s/3) gamma^{-1}
    T = torus(7, "split")
    K = T.subgroup_from_coords(T.exceptional.kernel_coords)
    gamma, s = T.B.one, 3
    per_coset = {g: coset_trace_count(T, K, g, gamma, s) for g in K.coset_reps()}
    assert sorted(per_coset.values(), reverse=True) == [4, 0, 0]
    carrier = next(g for g, cnt in per_coset.items() if cnt == 4)
    hstar = T.coords(nodal_base_point(T, gamma, s))
    assert hstar in set(K.coset_coords(carrier))
    for g in K.coset_reps():
        r = nodal_coset_check(T, K, g, gamma, s)
        assert r.remainder == 0 and r.passed


def test_nodal_coset_bound_exhaustive():
    rng = random.Random(4)
    for p in (5, 7):
        for name in ("split", "mixed", "inert"):
            T = torus(p, name)
            for gamma, s in nodal_configurations(T, rng, count=2):
                for H in T.subgroups():
                    for g in H.coset_reps():
                        assert nodal_coset_check(T, H, g, gamma, s).passed


def test_nodal_coset_main_terms_sum():
    # coset counts over a subgroup partition the fiber
    T = torus(7, "split")
    gamma, s = T.B.one, 3
    for H in T.subgroups():
        total = sum(coset_trace_count(T, H, g, gamma, s) for g in H.coset_reps())
        assert total == 4


def _nodal_coset_reference(T, H, g, gamma, s):
    """nodal_coset_check by per-coset scans: gH meets h_* K by a scan of H,
    |H cap K| by set intersection, and u by testing chi0 and chi0^2 on H."""
    B = T.B
    q = B.p
    exc = T.exceptional
    kernel = exc.kernel_coords
    neg_star = T.coord_neg(T.coords(nodal_base_point(T, gamma, s)))
    n_nod = actual_count(B, s, B.norm(gamma))
    m = H.index
    cnt = coset_trace_count(T, H, g, gamma, s)
    if any(T.coord_add(T.coord_add(g, h), neg_star) in kernel for h in H.coords):
        main = Fraction(n_nod * len(H.coords & kernel), len(kernel))
    else:
        main = Fraction(0)
    u = 1
    if exc.generator is not None:
        chi = exc.generator
        for c in (chi, CharacterExponent(T, 2 * chi.e1, 2 * chi.e2)):
            u += all(c.value_exp(h) == 0 for h in H.coords)
    rem = cnt - main
    base = 3 * (m - u) * rem.denominator
    a = m * abs(rem.numerator) - base
    return NodalCosetReport(
        count=cnt,
        main_term=main,
        remainder=rem,
        m=m,
        exceptional_in_annihilator=u,
        passed=a <= 0 or a * a <= base * base * q,
    )


def _smooth_reference(T, H, g, gamma, s):
    B = T.B
    n_b = actual_count(B, s, B.norm(gamma))
    return coset_bound_report(coset_trace_count(T, H, g, gamma, s), n_b, H.index, B.p)


def _coset_members(H):
    """(g, rep) for every coset: g is the rep, then the coset's largest coord,
    which is not the rep when |H| > 1."""
    for g in H.coset_reps():
        yield g, g
        yield max(H.coset_coords(g)), g


def test_coset_checks_match_per_coset_scans():
    # the fiber lookups of verify_coset_bound and nodal_coset_check against
    # the per-coset enumeration, for every subgroup and coset, with g given
    # as the coset's rep and as another member of it
    rng = random.Random(6)
    for p in (5, 7, 11):
        for name in ("split", "mixed", "inert"):
            T = torus(p, name)
            B = T.B
            units = [x for x in B.elements() if B.is_unit(x)]
            gamma = rng.choice(units)
            n = B.norm(gamma)
            smooth = rng.sample([s for s in range(p) if (s**3 - 27 * n) % p], 3)
            nodal = nodal_configurations(T, rng, count=2)
            cosets = [(H, g, rep) for H in T.subgroups() for g, rep in _coset_members(H)]
            for s in smooth:
                for H, g, rep in cosets:
                    got = verify_coset_bound(T, H, g, gamma, s)
                    assert vars(got) == vars(_smooth_reference(T, H, rep, gamma, s))
            for nodal_gamma, s in nodal:
                for H, g, rep in cosets:
                    got = nodal_coset_check(T, H, g, nodal_gamma, s)
                    want = _nodal_coset_reference(T, H, rep, nodal_gamma, s)
                    assert vars(got) == vars(want), (p, name, H.order, g, s)


def test_trace_fiber_cache_follows_gamma():
    # T keeps the fibers of the last gamma only: every switch of gamma,
    # including back to an earlier one, must recompute them.  Each gamma is
    # a new tuple, dropped after its call, so a cache keyed on the object
    # would see its id reused by the next gamma.
    T = torus(5, "mixed")
    B = T.B
    p = B.p
    units = [x for x in B.elements() if B.is_unit(x)]
    g1 = next(x for x in units if B.norm(x) == 1 and x != B.one)
    g2 = next(x for x in units if B.norm(x) == 2)
    subs = T.subgroups()

    def fibers_by_enumeration(gamma):
        fibers = [[] for _ in range(p)]
        for h, c in T.coord_of.items():
            fibers[B.trace(B.mul(gamma, h))].append(c)
        return tuple(map(tuple, fibers))

    def fresh(gamma):
        return tuple(list(gamma))

    for gamma in (g1, g2, g1, tuple(c + p for c in g2), tuple(c - 3 * p for c in g1)):
        assert trace_fibers(T, fresh(gamma)) == fibers_by_enumeration(gamma)
        n = B.norm(gamma)
        for H in subs:
            for g, rep in _coset_members(H):
                for s in (0, 3, 4):  # nodal: 3 for Norm 1, 4 for Norm 2
                    if (s**3 - 27 * n) % p:
                        got = verify_coset_bound(T, H, g, fresh(gamma), s)
                        assert vars(got) == vars(_smooth_reference(T, H, rep, gamma, s))
                    else:
                        got = nodal_coset_check(T, H, g, fresh(gamma), s)
                        assert vars(got) == vars(_nodal_coset_reference(T, H, rep, gamma, s))
    full = T.subgroup_from_coords(T.all_coords())
    # a non-unit gamma is rejected even while a unit gamma is cached
    zero_divisor = next(x for x in B.elements() if any(x) and not B.is_unit(x))
    verify_coset_bound(T, full, (0, 0), g1, 0)
    with pytest.raises(ValueError):
        trace_fibers(T, zero_divisor)
    for s in (1, 2):
        with pytest.raises(ValueError):
            verify_coset_bound(T, full, (0, 0), zero_divisor, s)
    # a nodal (gamma, s) is rejected whatever gamma is cached: s = 3 is nodal
    # for Norm 1 but not for Norm 2, and s = 4 the other way round
    for cached, gamma, s in ((g1, g1, 3), (g2, g1, 3), (g1, g2, 4), (g2, g2, 4)):
        assert (s**3 - 27 * B.norm(gamma)) % p == 0
        verify_coset_bound(T, full, (0, 0), cached, 0)
        with pytest.raises(ValueError):
            verify_coset_bound(T, full, (0, 0), gamma, s)


def test_annihilator_orthogonality():
    # sum_{chi in H^perp} chi(x) is m = |H^perp| for x in H and 0 otherwise,
    # the relation behind m N_gH = sum_{chi in H^perp} chi(g)^-1 S_chi.  On
    # exponents: every chi in H^perp sends x in H to 0, and its values at any
    # other x spread evenly over a nontrivial subgroup of Z/d1
    for p in (5, 7):
        for name in ("split", "mixed", "inert"):
            T = torus(p, name)
            for H in T.subgroups():
                perp = T.annihilator(H)
                for x in T.all_coords():
                    tally = Counter(chi.value_exp(x) for chi in perp)
                    if x in H:
                        assert tally == {0: H.index}
                        continue
                    size = len(tally)
                    assert size > 1 and T.d1 % size == 0 and H.index % size == 0
                    step = T.d1 // size
                    assert tally == {k * step: H.index // size for k in range(size)}


def test_quotient_distribution_form():
    # kernels of the two invariant-factor projections, as explicit quotients
    T = torus(7, "split")
    gamma = T.B.one
    for kerdef in (lambda c: c[0] == 0, lambda c: c[1] == 0):
        H = T.subgroup_from_coords([c for c in T.all_coords() if kerdef(c)])
        for s in range(7):
            if (s**3 - 27) % 7 == 0:
                continue
            for g in H.coset_reps():
                assert verify_coset_bound(T, H, g, gamma, s).passed
