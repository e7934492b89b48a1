"""The four workloads: seeded inputs, one timed round, and its checks.

Inputs are plain integers made from the seed with the reference code
alone; cubictrace objects are built inside the timed round.  The amount
of work in a round does not depend on the seed, only its values do, so
runs on different seeds measure the same work.  A round is checked after
it ends, against reference.py or against a property the method must
have; no check runs inside a measured call.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import reference as ref

TYPES = (ref.SPLIT, ref.MIXED, ref.INERT)


# -- seeded inputs, made without cubictrace -------------------------------------


def _disc(f):
    f0, f1, f2 = f
    return f2 * f2 * f1 * f1 - 4 * f1**3 - 4 * f2**3 * f0 - 27 * f0 * f0 + 18 * f2 * f1 * f0


def random_cubic(rng, p, splitting):
    """A squarefree monic cubic mod p of the given splitting type."""
    while True:
        f = tuple(rng.randrange(p) for _ in range(3))
        if _disc(f) % p and ref.splitting_type(p, f) == splitting:
            return f


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def order_mod_p(x, f, p, group_order):
    """Multiplicative order of the unit x of F_p[T]/(f) dividing group_order."""
    one = (1, 0, 0)
    order = group_order
    for q in _prime_factors(group_order):
        while order % q == 0 and ref.poly_powmod(x, order // q, f, p) == one:
            order //= q
    return order


def _split_order_mod_p(x, p):
    order = 1
    for c in x:
        o = next(d for d in range(1, p) if (p - 1) % d == 0 and pow(c, d, p) == 1)
        order = order * o // gcd(order, o)
    return order


class Workload:
    name = ""
    items_per_round = 0

    def __init__(self):
        # reference results, computed once per run: every round has the same inputs
        self.cache = {}

    def inputs(self, seed):
        raise NotImplementedError

    def run_round(self, ct, data, clock, failure):
        """Run one round; returns (outputs, failed items)."""
        raise NotImplementedError

    def check(self, data, outputs):
        """Problems found in one round's outputs (empty when all is right)."""
        raise NotImplementedError

    def finish(self, ct, data, first_outputs):
        """Problems found by checks run once per run, after the rounds."""
        return []


# -- verify-all -------------------------------------------------------------------


class VerifyAll(Workload):
    """The acceptance matrix of ``cubictrace --json verify-all --pset 5,7``.

    ``--branch-contexts 60`` and ``--cap-enum 20000`` shrink criterion 5 from
    about a minute to about a second; every other criterion runs at its full
    size, and the matrix's seed is the benchmark's seed.  A round runs the
    nine criteria one by one through ``verify.run_all(only=[criterion])``,
    the function ``cli.main`` calls for them all at once, so the clock can
    sample the machine between criteria: one call of three seconds left
    the machine's changes of speed inside it uncorrected.  Once per run,
    ``cli.main`` itself runs the matrix with the hidden ``--fault`` hook; its
    records must be the round's, with just the chosen one failed.
    """

    name = "verify-all"
    BRANCH_CONTEXTS = 60
    CAP_ENUM = 20_000
    PSET = (5, 7)
    # criterion 5 compares 3 * BRANCH_CONTEXTS random contexts and 4 worked ones
    items_per_round = 3 * BRANCH_CONTEXTS + 4

    def inputs(self, seed):
        argv = [
            "--json", "--seed", str(seed), "--cap-enum", str(self.CAP_ENUM),
            "verify-all", "--pset", ",".join(map(str, self.PSET)),
            "--branch-contexts", str(self.BRANCH_CONTEXTS),
        ]
        # the caps cli.main passes for these arguments
        caps = {"enum": self.CAP_ENUM, "branch_contexts": self.BRANCH_CONTEXTS, "rankd_contexts": 200}
        return {"seed": seed, "argv": argv, "caps": caps}

    def run_round(self, ct, data, clock, failure):
        records, exit_codes = [], []
        try:
            for criterion in list(ct.verify.CHECKS):
                res = clock.call(ct.verify.run_all, pset=self.PSET, seed=data["seed"],
                                 caps=data["caps"], only=[criterion])
                records.extend(res.records)
                exit_codes.append(res.exit_code)
        except Exception as exc:  # noqa: BLE001 - an operation that fails is counted
            failure(exc)
            return None, self.items_per_round
        return {"records": json.loads(json.dumps(ct.cli.jsonable(records))), "exit_codes": exit_codes}, 0

    def check(self, data, outputs):
        if outputs is None:
            return []
        problems = []
        if any(outputs["exit_codes"]):
            problems.append(f"criteria exit codes {outputs['exit_codes']}")
        failed = [r["id"] for r in outputs["records"] if not r["pass"]]
        if failed:
            problems.append(f"{len(failed)} records fail, first {failed[0]}")
        criteria = {r["id"].split("-", 1)[0] for r in outputs["records"]}
        if criteria != {str(i) for i in range(1, 10)}:
            problems.append(f"records for criteria {sorted(criteria)}, want 1..9")
        return problems

    def finish(self, ct, data, first_outputs):
        """cli.main with the hidden --fault hook on a seeded record exits 1,
        and its records are the round's with only that one failed."""
        if first_outputs is None:
            return []
        records = first_outputs["records"]
        target = random.Random(data["seed"]).choice(records)["id"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ct.cli.main(data["argv"] + ["--fault", target])
        doc = json.loads(buf.getvalue())
        failed = [r["id"] for r in doc["records"] if not r["pass"]]
        problems = []
        if code != 1 or failed != [target]:
            problems.append(f"fault run on {target}: exit {code}, failed {failed[:3]}")
        want = sorted(records, key=lambda r: r["id"])
        got = [r for r in doc["records"] if r["id"] != target]
        if got != [r for r in want if r["id"] != target] or doc["summary"]["total"] != len(want):
            problems.append("cli.main verify-all records differ from the criteria run one by one")
        return problems


# -- certified-deep ------------------------------------------------------------------


class CertifiedDeep(Workload):
    """certified_zero_set on contexts beyond the reach of the sweep oracle.

    * the versal split construction of criterion 5 (gamma = x + p y + p^2 z
      with x on the singular line), for each quadratic alternative; the
      DoubleRoot context gets a planted zero t0, so its zero set is not
      empty;
    * the rank-d jet-versality and affine-sharpness constructions of rankd;
    * deep inert and mixed contexts whose eta has the largest period.

    After each constructed context's zero set, digit_recursion runs, as
    the package's second route, on every class whose branches are all
    simple roots.  It skips the Weierstrass disks and the deep contexts:
    how many zeros a disk holds, and how many singular classes of a deep
    context resolve, changes from seed to seed, and the recursion's cost
    with it, while the disk scan's cost does not.
    """

    name = "certified-deep"
    VERSAL = ((7, 9), (11, 8), (13, 7))
    ALTERNATIVES = ("DoubleRoot", "TwoSimple", "NoRoot")
    KIND_OF = {
        "DoubleRoot": "quadratic-weierstrass-disk",
        "TwoSimple": "singular-simple-root",
        "NoRoot": "singular-no-root",
    }
    RANKD_JETS = ((7, 3), (11, 3), (13, 3))
    RANKD_AFFINE = ((7, 3), (11, 4))
    DEEP = ((ref.INERT, 11, 7), (ref.MIXED, 13, 7), (ref.INERT, 7, 8))
    items_per_round = len(VERSAL) * len(ALTERNATIVES) + len(RANKD_JETS) + len(RANKD_AFFINE) + len(DEEP)

    def inputs(self, seed):
        rng = random.Random(seed)
        specs = []
        for p, k in self.VERSAL:
            for alt in self.ALTERNATIVES:
                specs.append(self._versal(rng, p, k, alt))
        for p, d in self.RANKD_JETS:
            jet = [rng.randrange(p) for _ in range(d - 1)] + [rng.randrange(1, p)]
            specs.append({"kind": "rankd-jet", "p": p, "d": d, "jet": tuple(jet)})
        for p, d in self.RANKD_AFFINE:
            specs.append({"kind": "rankd-affine", "p": p, "d": d})
        for splitting, p, k in self.DEEP:
            specs.append(self._deep(rng, splitting, p, k))
        return {"specs": specs}

    @staticmethod
    def _versal(rng, p, k, alt):
        """Split-coordinate data whose class 0 has the quadratic alternative ``alt``.

        With eta = 1 + p*omega, x = (w2-w3, w3-w1, w1-w2) has Tr(x) = Tr(x omega)
        = 0, y = lam*(-1, 1, 0) has Tr(y) = 0 and z = (A, 0, 0), F(t) = p^2
        (A + B t + delta binom(t, 2)) mod p^3 with B = lam*(w2 - w1) and
        delta = Tr(x omega^2); A sets the discriminant (B - delta/2)^2 - 2 delta A.
        """
        m = p**k
        roots = [r + p * rng.randrange(p ** (k - 1)) for r in rng.sample(range(p), 3)]
        w = rng.sample(range(p), 3)
        eta = [(1 + p * wi) % m for wi in w]
        x = [w[1] - w[2], w[2] - w[0], w[0] - w[1]]
        delta = sum(xi * wi * wi for xi, wi in zip(x, w)) % p
        B = rng.randrange(p)
        lam = B * pow(w[1] - w[0], -1, p) % p
        chi = ref.legendre_table(p)
        if alt == "DoubleRoot":
            D = 0
        elif alt == "TwoSimple":
            D = pow(rng.randrange(1, p), 2, p)
        else:
            D = rng.choice([a for a in range(1, p) if chi[a] == -1])
        half = pow(2, -1, p)
        A = ((B - delta * half) ** 2 - D) * pow(2 * delta, -1, p) % p
        gamma = [(x[0] + p * -lam + p * p * A) % m, (x[1] + p * lam) % m, x[2] % m]
        spec = {"kind": "versal", "alt": alt, "p": p, "k": k, "roots": roots, "eta": eta}
        if alt == "DoubleRoot":
            rho = next(r for r in range(p) if (A + B * r + delta * r * (r - 1) * half) % p == 0)
            t0 = rho + p * rng.randrange(p ** (k - 2))
            value = ref.split_trace_power(gamma, eta, t0, m)
            if value % p**3:  # F = p^2 Q mod p^3 and Q(rho) = 0
                raise ArithmeticError("versal construction: F(t0) is not 0 mod p^3")
            # changing gamma's first coordinate by a multiple of p^3 leaves
            # A, B and delta alone, and makes F(t0) = 0
            gamma[0] = (gamma[0] - value * pow(eta[0], -t0, m)) % m
            spec["planted"] = t0
        spec["gamma"] = gamma
        return spec

    @staticmethod
    def _deep(rng, splitting, p, k):
        m = p**k
        f = random_cubic(rng, p, splitting)
        order = p**3 - 1 if splitting == ref.INERT else p * p - 1
        while True:
            e = tuple(rng.randrange(p) for _ in range(3))
            if ref.poly_norm(e, f, p) and order_mod_p(e, f, p, (p - 1) * order) == order:
                break
        eta = tuple((c + p * rng.randrange(p ** (k - 1))) % m for c in e)
        while True:
            gamma = tuple(rng.randrange(m) for _ in range(3))
            if any(g % p for g in gamma):
                break
        c = rng.randrange(1, p) + p * rng.randrange(p ** (k - 1))
        return {"kind": "deep", "splitting": splitting, "p": p, "k": k, "f": f,
                "eta": eta, "gamma": gamma, "c": c}

    # -- the round -------------------------------------------------------------------

    @staticmethod
    def _context(ct, spec):
        kind = spec["kind"]
        if kind == "versal":
            A = ct.algebra.ZpCubicAlgebra.from_split_roots(spec["p"], spec["k"], spec["roots"])
            eta = A.from_split_coords(spec["eta"])
            gamma = A.from_split_coords(spec["gamma"])
            return ct.branch.BranchContext(A, eta, gamma, c=0, k=spec["k"]), True
        if kind == "rankd-jet":
            ctx, rep = ct.rankd.jet_versality(spec["p"], spec["d"], spec["jet"])
            return ctx, rep.passed
        if kind == "rankd-affine":
            ctx, rep = ct.rankd.affine_sharpness(spec["p"], spec["d"])
            return ctx, rep.passed
        A = ct.algebra.ZpCubicAlgebra(spec["p"], spec["k"], spec["f"])
        return ct.branch.BranchContext(A, spec["eta"], spec["gamma"], c=spec["c"], k=spec["k"]), True

    def run_round(self, ct, data, clock, failure):
        outputs, failed = [], 0
        for spec in data["specs"]:
            try:
                ctx, construction_ok = clock.call(self._context, ct, spec)
                res = clock.call(ct.branch.certified_zero_set, ctx)
                recursion = {}
                for desc in res.descriptors:
                    branches = desc.data.get("branches")
                    if (spec["kind"] != "deep" and desc.a is not None and branches
                            and not any("factor" in b for b in branches)):
                        recursion[desc.a] = clock.call(ct.branch.digit_recursion, ctx, desc.a)
            except Exception as exc:  # noqa: BLE001 - an operation that fails is counted
                failure(exc)
                outputs.append(None)
                failed += 1
                continue
            outputs.append({
                "construction_ok": construction_ok,
                "p": ctx.p, "k": ctx.k_work, "P": ctx.P,
                "f": getattr(ctx.A, "f_int", None),
                "gamma": ctx.gamma_int, "eta": ctx.eta_int, "c": ctx.c_int,
                "classes": res.classes,
                "descriptors": [
                    (d.kind, d.a, tuple(d.residues)) for d in res.descriptors
                    if d.a is not None and d.kind != "dead-mod-p"
                ],
                "recursion": recursion,
            })
        return outputs, failed

    # -- checks --------------------------------------------------------------------

    def check(self, data, outputs):
        cache = self.cache
        problems = []
        for i, (spec, out) in enumerate(zip(data["specs"], outputs)):
            if out is None:
                continue
            label = f"{spec['kind']}#{i} p={out['p']} k={out['k']}"
            if i not in cache:
                cache[i] = self._reference(out)
            P, lifts, evaluate = cache[i]
            problems.extend(self._compare(label, spec, out, P, lifts, evaluate))
        return problems

    @staticmethod
    def _reference(out):
        """(period, {a: digit lift}, evaluator of Tr(gamma eta^n) - c) for one context."""
        p, k, f = out["p"], out["k"], out["f"]
        m = p**k
        gamma = tuple(g % m for g in out["gamma"])
        eta = tuple(e % m for e in out["eta"])
        c = out["c"] % m
        if f is not None:
            f = tuple(x % m for x in f)
            red = tuple(x % p for x in f)
            P = order_mod_p(tuple(e % p for e in eta), red, p, (p**3 - 1) * (p - 1) * (p + 1))

            def mul(x, y):
                return ref.poly_mulmod(x, y, f, m)

            def trace(x):
                return ref.poly_trace(x, f, m)

            def evaluate(n):
                return (ref.trace_power(gamma, eta, n, f, m) - c) % m
        else:
            P = _split_order_mod_p(tuple(e % p for e in eta), p)

            def mul(x, y):
                return tuple(a * b % m for a, b in zip(x, y))

            def trace(x):
                return sum(x) % m

            def evaluate(n):
                return (ref.split_trace_power(gamma, eta, n, m) - c) % m

        eta_P = eta
        for _ in range(P - 1):
            eta_P = mul(eta_P, eta)
        lifts = {}
        y = gamma
        for a in range(P):
            lift = ref.digit_lift(mul, trace, y, eta_P, c, p, k)
            if lift:
                lifts[a] = lift
            y = mul(y, eta)
        return P, lifts, evaluate

    def _compare(self, label, spec, out, P, lifts, evaluate):
        problems = []
        p, k = out["p"], out["k"]
        if not out["construction_ok"]:
            problems.append(f"{label}: construction report failed")
        if out["P"] != P:
            return problems + [f"{label}: period {out['P']}, reference {P}"]
        bad = [n for n in out["classes"] if evaluate(n)]
        if bad:
            problems.append(f"{label}: {len(bad)} classes miss the trace equation, first n={bad[0]}")
        by_class = {}
        for n in out["classes"]:
            by_class.setdefault(n % P, []).append(n // P)
        if {a: sorted(ts) for a, ts in by_class.items()} != lifts:
            problems.append(f"{label}: zero set differs from the digit lift")
        for kind, a, residues in out["descriptors"]:
            if kind.startswith("inflated-"):
                continue
            if list(residues) != lifts.get(a, []):
                problems.append(f"{label}: class {a} ({kind}) residues differ from the digit lift")
        for a, rec in out["recursion"].items():
            if list(rec) != lifts.get(a, []):
                problems.append(f"{label}: digit_recursion on class {a} differs from the digit lift")
        if spec["kind"] == "versal":
            kinds = [kind for kind, _, _ in out["descriptors"]]
            if kinds != [self.KIND_OF[spec["alt"]]]:
                problems.append(f"{label}: {spec['alt']} gave descriptors {kinds}")
            if "planted" in spec and spec["planted"] % p ** (k - 1) not in out["classes"]:
                problems.append(f"{label}: planted zero {spec['planted']} not found")
            m = p**k
            split_bad = [n for n in out["classes"]
                         if ref.split_trace_power(spec["gamma"], spec["eta"], n, m)]
            if split_bad:
                problems.append(f"{label}: class {split_bad[0]} misses the split-coordinate equation")
        return problems


# -- torus-cosets ------------------------------------------------------------------


class TorusCosets(Workload):
    """TorusGroup, subgroups() and every coset check, for each splitting type.

    The inert torus at p = 31 is cyclic of order 993 > 400, past the
    exhaustive subgroup search; its subgroups() call takes most of a second.
    """

    name = "torus-cosets"
    TORI = ((ref.SPLIT, 13), (ref.MIXED, 17), (ref.INERT, 31))
    GAMMAS = 2
    SMOOTH_S = 4
    # smooth checks: one per coset of every subgroup; nodal: the same plus one
    # concentration check.  Cosets per torus: the sum of the indices of all its
    # subgroups, sigma(order) for the cyclic ones and 1650 for (Z/12)^2.
    COSETS = {(ref.SPLIT, 13): 1650, (ref.MIXED, 17): 819, (ref.INERT, 31): 1328}
    items_per_round = (GAMMAS * SMOOTH_S + 1) * sum(COSETS.values()) + len(COSETS)

    def inputs(self, seed):
        rng = random.Random(seed)
        tori = []
        for splitting, p in self.TORI:
            f = random_cubic(rng, p, splitting)
            smooth = []
            for _ in range(self.GAMMAS):
                gamma = self._unit(rng, p, f)
                n = ref.poly_norm(gamma, f, p)
                choices = [s for s in range(p) if (s**3 - 27 * n) % p]
                smooth.extend((gamma, s) for s in rng.sample(choices, self.SMOOTH_S))
            s = rng.randrange(1, p)
            n = s**3 * pow(27, -1, p) % p
            gamma = self._unit(rng, p, f, norm=n)
            tori.append({"splitting": splitting, "p": p, "f": f, "smooth": smooth, "nodal": (gamma, s)})
        return {"tori": tori}

    @staticmethod
    def _unit(rng, p, f, norm=None):
        while True:
            x = tuple(rng.randrange(p) for _ in range(3))
            n = ref.poly_norm(x, f, p)
            if n and (norm is None or n == norm):
                return x

    @staticmethod
    def _torus(ct, p, f):
        B = ct.algebra.FpCubicAlgebra(p, f)
        T = ct.torus.TorusGroup(B)
        return B, T

    @staticmethod
    def _cosets(subs):
        return [(H, H.coset_reps()) for H in subs]

    def run_round(self, ct, data, clock, failure):
        outputs, failed = [], 0
        torus = ct.torus
        for spec in data["tori"]:
            try:
                B, T = clock.call(self._torus, ct, spec["p"], spec["f"])
                subs = clock.call(T.subgroups)
                cosets = clock.call(self._cosets, subs)
                smooth = []
                for gamma, s in spec["smooth"]:
                    smooth.append([
                        [clock.call(torus.verify_coset_bound, T, H, g, gamma, s) for g in reps]
                        for H, reps in cosets
                    ])
                gamma, s = spec["nodal"]
                conc = clock.call(torus.nodal_concentration_check, T, gamma, s)
                nodal = [
                    [clock.call(torus.nodal_coset_check, T, H, g, gamma, s) for g in reps]
                    for H, reps in cosets
                ]
            except Exception as exc:  # noqa: BLE001 - an operation that fails is counted
                failure(exc)
                outputs.append(None)
                failed += (self.GAMMAS * self.SMOOTH_S + 1) * self.COSETS[(spec["splitting"], spec["p"])] + 1
                continue
            outputs.append({
                "splitting": B.splitting_type, "order": T.order,
                "subgroups": [(H.order, H.index, len(reps)) for H, reps in cosets],
                "smooth": [[[(r.count, r.n_b, r.m, r.lhs, r.rhs, r.passed) for r in per_h]
                            for per_h in pair] for pair in smooth],
                "concentration": (conc.fiber_size, conc.concentrated, conc.pointwise_character_match),
                "nodal": [[(r.count, r.main_term, r.remainder, r.m, r.exceptional_in_annihilator, r.passed)
                           for r in per_h] for per_h in nodal],
            })
        return outputs, failed

    def check(self, data, outputs):
        problems = []
        for spec, out in zip(data["tori"], outputs):
            if out is None:
                continue
            p, f = spec["p"], spec["f"]
            splitting = ref.splitting_type(p, f)
            label = f"{splitting} p={p}"
            order = ref.torus_order(p, splitting)
            if out["splitting"] != splitting or out["order"] != order:
                problems.append(f"{label}: type/order {out['splitting']}/{out['order']}, want {order}")
            if splitting != ref.SPLIT and len(out["subgroups"]) != ref.divisor_count(order):
                problems.append(f"{label}: cyclic torus has {len(out['subgroups'])} subgroups, "
                                f"want {ref.divisor_count(order)}")
            for h_order, index, ncosets in out["subgroups"]:
                if h_order * index != order or ncosets != index:
                    problems.append(f"{label}: subgroup of order {h_order} has {ncosets} cosets")
            if sum(index for _, index, _ in out["subgroups"]) != self.COSETS[(splitting, p)]:
                problems.append(f"{label}: the subgroups have {sum(i for _, i, _ in out['subgroups'])} "
                                f"cosets in all, want {self.COSETS[(splitting, p)]}")
            for (gamma, s), pair in zip(spec["smooth"], out["smooth"]):
                want = ref.n_b(p, splitting, s, ref.poly_norm(gamma, f, p))
                for per_h in pair:
                    if sum(r[0] for r in per_h) != want:
                        problems.append(f"{label}: coset counts at s={s} do not sum to N_B={want}")
                    for cnt, n_b, m, lhs, rhs, passed in per_h:
                        if (n_b != want or m != len(per_h) or lhs != (m * cnt - want) ** 2
                                or rhs != 9 * (m - 1) ** 2 * p or not passed or lhs > rhs):
                            problems.append(f"{label}: bad coset-bound report at s={s}, m={m}")
                            break
            gamma, s = spec["nodal"]
            want = ref.n_b(p, splitting, s, ref.poly_norm(gamma, f, p))
            fiber, concentrated, pointwise = out["concentration"]
            if fiber != want or not (concentrated and pointwise):
                problems.append(f"{label}: nodal fiber {fiber} (want {want}), "
                                f"concentrated={concentrated}, pointwise={pointwise}")
            for per_h in out["nodal"]:
                if sum(r[0] for r in per_h) != want:
                    problems.append(f"{label}: nodal coset counts do not sum to {want}")
                for cnt, main, rem, m, u, passed in per_h:
                    if rem != cnt - main or not passed or not _nodal_bound(rem, m, u, p):
                        problems.append(f"{label}: bad nodal report, m={m}")
                        break
        return problems


def _nodal_bound(rem, m, u, q):
    """m |rem| <= 3 (m - u) (sqrt(q) + 1), decided by squaring."""
    lhs = m * abs(Fraction(rem))
    base = 3 * (m - u)
    slack = lhs - base
    return slack <= 0 or slack * slack <= base * base * q


# -- count-table --------------------------------------------------------------------


class CountTable(Workload):
    """brute_force_count and count for every (s, n) at large p, each type.

    The only workload where trace_norm_histogram and the elliptic closed
    formula do most of the work.
    """

    name = "count-table"
    PRIMES = (61, 101)
    items_per_round = sum(len(TYPES) * p * (p - 1) for p in PRIMES)

    def inputs(self, seed):
        rng = random.Random(seed)
        return {"tables": [(p, t, random_cubic(rng, p, t)) for p in self.PRIMES for t in TYPES]}

    @staticmethod
    def _brute_row(ct, B, p, s):
        counts = ct.counts
        return [counts.brute_force_count(counts.CountQuery(B, s, n)).value for n in range(1, p)]

    @staticmethod
    def _formula_row(ct, B, p, s):
        counts = ct.counts
        return [counts.count(counts.CountQuery(B, s, n)).value for n in range(1, p)]

    def run_round(self, ct, data, clock, failure):
        # one call per row of the table, so the clock can sample the machine's
        # speed between rows
        outputs, failed = [], 0
        for p, _, f in data["tables"]:
            try:
                B = clock.call(ct.algebra.FpCubicAlgebra, p, f)
                brute, formula = [], []
                for s in range(p):
                    brute.extend(clock.call(self._brute_row, ct, B, p, s))
                for s in range(p):
                    formula.extend(clock.call(self._formula_row, ct, B, p, s))
            except Exception as exc:  # noqa: BLE001 - an operation that fails is counted
                failure(exc)
                outputs.append(None)
                failed += p * (p - 1)
                continue
            outputs.append((B.splitting_type, brute, formula))
        return outputs, failed

    def check(self, data, outputs):
        cache = self.cache
        problems = []
        for (p, splitting, f), out in zip(data["tables"], outputs):
            if out is None:
                continue
            label = f"{splitting} p={p}"
            if ref.splitting_type(p, f) != splitting or out[0] != splitting:
                problems.append(f"{label}: splitting type {out[0]}")
            if (p, splitting) not in cache:
                table = ref.count_table(p, splitting)
                cache[(p, splitting)] = [table[(s, n)] for s in range(p) for n in range(1, p)]
            want = cache[(p, splitting)]
            for route, got in (("brute_force_count", out[1]), ("count", out[2])):
                if got != want:
                    i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
                    s, n = divmod(i, p - 1)
                    problems.append(f"{label}: {route} N({s},{n + 1})={got[i]}, reference {want[i]}")
            order = ref.torus_order(p, splitting)
            for n in range(1, p):
                if sum(out[1][s * (p - 1) + n - 1] for s in range(p)) != order:
                    problems.append(f"{label}: sum over s of N(s,{n}) is not the torus order {order}")
                    break
        return problems


WORKLOADS = {w.name: w for w in (VerifyAll(), CertifiedDeep(), TorusCosets(), CountTable())}
