"""Command-line front end.

Subcommands: count, nodal, coset, census, branch, jets, cubeclass, rankd,
wieferich, verify-all.  All numeric JSON output is exact (integers or
{"num", "den"} pairs); floats appear only in explicitly labelled
diagnostic fields.  Exit codes: 0 ok, 1 check failure, 2 usage, 3 internal.
"""

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import counts as counts_mod
from . import stats as stats_mod
from . import verify as verify_mod
from .algebra import ZpCubicAlgebra, canonical_algebra, vp
from .branch import DEFAULT_ENUM_CAP, BranchContext, brute_force_zero_oracle, certified_zero_set
from .census import CensusQuery, brute_force_census, singular_census
from .counts import CountQuery
from .rankd import affine_sharpness, jet_versality, sharpness_construction
from .torus import (
    TorusGroup,
    all_coset_bounds,
    exceptional_size,
    nodal_coset_check,
    nodal_concentration_check,
)
from .wieferich import CubicOrderSpec, scan


class UsageError(ValueError):
    pass


def format_element(coeffs, den=0, split=False):
    """Inverse of parse_element: formatting a parsed element reparses equally."""
    sep = "|" if split else ","
    text = sep.join(str(c) for c in coeffs)
    if den:
        text += f"/p^{den}"
    return text


def parse_element(text, algebra=None):
    """'c0,c1,c2' monomial, 'a|b|c' split coordinates; optional '/p^e' suffix.

    Returns (coeffs, den_exp, is_split).
    """
    den = 0
    if "/" in text:
        text, dpart = text.split("/", 1)
        if not dpart.startswith("p"):
            raise UsageError(f"denominator must be a power of p, got {dpart!r}")
        dpart = dpart[1:].lstrip("^")
        den = int(dpart) if dpart else 1
    if "|" in text:
        coords = tuple(int(x) for x in text.split("|"))
        if len(coords) != 3:
            raise UsageError("split coordinates need three entries")
        return coords, den, True
    coeffs = tuple(int(x) for x in text.split(","))
    if len(coeffs) != 3:
        raise UsageError("element needs three coefficients c0,c1,c2")
    return coeffs, den, False


def resolve_element(text, algebra):
    coeffs, den, is_split = parse_element(text)
    if is_split:
        coeffs = algebra.from_split_coords(coeffs)
    return coeffs, den


def parse_algebra_spec(spec):
    """'p=5;f=0,2,2' or 'p=5;split=0,1,2' -> ZpCubicAlgebra over F_p; lift with at_precision."""
    fields = {}
    for part in spec.split(";"):
        if "=" not in part:
            raise UsageError(f"bad algebra field {part!r}")
        key, val = part.split("=", 1)
        fields[key.strip()] = val.strip()
    unknown = sorted(set(fields) - {"p", "f", "split"})
    if unknown:
        raise UsageError(f"unknown algebra field {unknown[0]!r}; branch precision comes from --k")
    try:
        p = int(fields["p"])
    except KeyError:
        raise UsageError("algebra spec needs p=<prime>") from None
    if "split" in fields and "f" in fields:
        raise UsageError("algebra spec gives both 'f' and 'split'; give one of them")
    if "split" in fields:
        roots = tuple(int(x) for x in fields["split"].split(","))
        return ZpCubicAlgebra.from_split_roots(p, 1, roots)
    if "f" in fields:
        f = tuple(int(x) for x in fields["f"].split(","))
        if len(f) != 3:
            raise UsageError("f needs three coefficients (constant first)")
        return ZpCubicAlgebra(p, 1, f)
    raise UsageError("algebra spec needs f=... or split=...")


def parse_rational(text, p):
    """integer or 'n/p^e'."""
    if "/" in text:
        num, dpart = text.split("/", 1)
        if not dpart.startswith("p"):
            raise UsageError("target denominator must be a power of p")
        e = dpart[1:].lstrip("^")
        return Fraction(int(num), p ** (int(e) if e else 1))
    return Fraction(int(text))


def jsonable(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items)
        return [jsonable(v) for v in items]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj  # diagnostics only
    return str(obj)


def emit(args, payload, lines):
    if args.json:
        print(json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


# -- subcommands ------------------------------------------------------------------


def cmd_count(args):
    B = canonical_algebra(args.p, args.type)
    q = CountQuery(B, args.s, args.n)
    smooth = counts_mod.is_smooth_fiber(args.p, args.s, args.n)
    payload = {
        "p": args.p,
        "type": args.type,
        "s": args.s % args.p,
        "n": args.n % args.p,
        "smooth": smooth,
        "sign": B.frobenius_sign,
        "fixed_labels": B.fixed_labels,
        "exceptional": exceptional_size(B),
    }
    if args.method in ("both", "brute"):
        payload["value_brute"] = counts_mod.brute_force_count(q, cap=args.cap_p).value
    if args.method in ("both", "formula"):
        rep = counts_mod.count(q)
        payload["value_formula"] = rep.value
        payload["elliptic"] = rep.components.get("elliptic_count")
    code = 0
    if args.method == "both" and payload["value_brute"] != payload["value_formula"]:
        code = 1
    emit(args, payload, [f"N_B(s={payload['s']}, n={payload['n']}) = "
                         f"{payload.get('value_formula', payload.get('value_brute'))}"
                         f" [{'smooth' if smooth else 'nodal'}]"])
    return code


def cmd_coset(args):
    B = canonical_algebra(args.p, args.type)
    gamma, den = resolve_element(args.gamma, B)
    if den:
        raise UsageError("coset gamma must be integral")
    gamma = B.reduce(gamma)
    records = [
        {
            "subgroup_order": H.order,
            "index": H.index,
            "coset": list(g),
            "count": r.count,
            "main_term": r.main_term,
            "error": r.error,
            "pass": r.passed,
        }
        for H, g, r in all_coset_bounds(TorusGroup(B), gamma, args.s)
    ]
    ok = all(r["pass"] for r in records)
    payload = {"p": args.p, "type": args.type, "s": args.s, "records": records, "all_pass": ok}
    emit(args, payload, [f"{len(records)} coset checks, all_pass={ok}"])
    return 0 if ok else 1


def cmd_nodal(args):
    B = canonical_algebra(args.p, args.type)
    gamma, den = resolve_element(args.gamma, B)
    if den:
        raise UsageError("nodal gamma must be integral")
    gamma = B.reduce(gamma)
    if not B.is_unit(gamma):
        raise UsageError("gamma must be a unit")
    p = B.p
    n = B.norm(gamma)
    svals = [s for s in range(1, p) if (s**3 - 27 * n) % p == 0]
    T = TorusGroup(B)
    subs = T.subgroups()
    results = []
    ok = True
    for s in svals:
        conc = nodal_concentration_check(T, gamma, s)
        sub_ok = all(
            nodal_coset_check(T, H, g, gamma, s).passed
            for H in subs
            for g in H.coset_reps()
        )
        ok = ok and conc.concentrated and conc.pointwise_character_match and sub_ok
        results.append(
            {
                "s": s,
                "fiber_size": conc.fiber_size,
                "exceptional_size": conc.exceptional_size,
                "concentrated": conc.concentrated,
                "coset_bounds_pass": sub_ok,
            }
        )
    payload = {"p": p, "type": args.type, "nodal_s": svals, "results": results}
    lines = [f"nodal s values: {svals}"] + [str(r) for r in results]
    emit(args, payload, lines)
    return 0 if ok else 1


def cmd_census(args):
    B = canonical_algebra(args.p, args.type)
    gamma, _ = resolve_element(args.gamma, B)
    omega, _ = resolve_element(args.omega, B)
    gamma, omega = B.reduce(gamma), B.reduce(omega)
    if args.fibers == "all":
        fibers = tuple(range(1, args.p))
    else:
        fibers = tuple(int(x) % args.p for x in args.fibers.split(","))
    q = CensusQuery(B, gamma, omega, args.s, fibers)
    rep = singular_census(q)
    bt, bs = brute_force_census(q)
    ok = rep.total == bt and rep.singular == bs
    payload = {
        "p": args.p,
        "type": args.type,
        "s": args.s % args.p,
        "fibers": list(fibers),
        "total": rep.total,
        "singular": rep.singular,
        "transverse": rep.transverse,
        "degenerate_fibers": list(rep.degenerate_fibers),
        "brute_total": bt,
        "brute_singular": bs,
        "agree": ok,
    }
    emit(args, payload, [f"census M={rep.total} S={rep.singular} agree={ok}"])
    return 0 if ok else 1


def cmd_branch(args):
    B = parse_algebra_spec(args.algebra)
    c = parse_rational(args.c, B.p)
    _, gden, _ = parse_element(args.gamma)
    # an upper bound on the context's K = max(k + e_aff, 2), so the elements are exact at K
    A = B.at_precision(max(args.k + max(gden, vp(c.denominator, B.p)), 2))
    eta, eden = resolve_element(args.eta, A)
    if eden:
        raise UsageError("eta must be integral")
    gamma, gden = resolve_element(args.gamma, A)
    ctx = BranchContext(A, eta, gamma, c=c, k=args.k, gamma_den=gden)
    res = certified_zero_set(ctx)
    descriptors = [
        {"kind": d.kind, "a": d.a, "data": d.data, "residues": list(d.residues)}
        for d in res.descriptors
        if d.kind != "dead-mod-p" or args.verbose
    ]
    payload = {
        "p": ctx.p,
        "k": args.k,
        "k_work": ctx.k_work,
        "period": ctx.P,
        "modulus": res.modulus,
        "s_div": res.s_div,
        "descriptors": descriptors,
        "classes": res.classes,
    }
    code = 0
    if args.oracle:
        orc = brute_force_zero_oracle(ctx, args.cap_enum)
        payload["oracle_agrees"] = res.classes == orc
        if not payload["oracle_agrees"]:
            code = 1
    lines = [f"period P={ctx.P}, modulus {res.modulus}"]
    lines += [f"  {d['kind']} a={d['a']} residues={d['residues']}" for d in descriptors]
    lines += [f"classes mod {res.modulus}: {res.classes}"]
    if args.oracle:
        lines += [f"oracle agrees: {payload['oracle_agrees']}"]
    emit(args, payload, lines)
    return code


def cmd_jets(args):
    B = canonical_algebra(args.p, args.type)
    x, _ = resolve_element(args.x, B)
    omega, _ = resolve_element(args.omega, B)
    t = stats_mod.jet_family_statistics(B, B.reduce(omega), B.reduce(x), args.c)
    payload = {
        "p": args.p,
        "type": args.type,
        "surviving": t.surviving,
        "uniform": t.uniform,
        "freq_nonsquare": t.freq_nonsquare,
        "freq_square": t.freq_square,
        "freq_zero": t.freq_zero,
    }
    emit(
        args,
        payload,
        [
            f"surviving lifts: {t.surviving}, uniform pairs: {t.uniform}",
            f"frequencies: nonsquare {t.freq_nonsquare}, square {t.freq_square}, zero {t.freq_zero}",
        ],
    )
    return 0


def cmd_cubeclass(args):
    B = canonical_algebra(args.p, args.type)
    t = stats_mod.cube_class_tally(B, args.A)
    payload = {
        "p": args.p,
        "type": args.type,
        "A": args.A % args.p,
        "total": t.total,
        "counts": {str(k): v for k, v in sorted(t.counts.items())},
        "class_bound_ok": t.class_bound_ok,
        "character_bound_ok": t.character_bound_ok,
    }
    ok = t.class_bound_ok and t.character_bound_ok
    emit(args, payload, [f"tally {dict(sorted(t.counts.items()))} bounds_ok={ok}"])
    return 0 if ok else 1


def cmd_rankd(args):
    if args.demo == "sharpness":
        Om = tuple(range(1, args.d + 1))
        _, _, rep = sharpness_construction(args.p, args.d, Om)
        payload = {"demo": "sharpness", "p": args.p, "d": args.d,
                   "values": list(rep.values), "passed": rep.passed}
    elif args.demo == "versality":
        if not args.q_coeffs:
            raise UsageError("versality demo needs --q-coeffs c0,c1,...")
        Q = tuple(int(x) for x in args.q_coeffs.split(","))
        _, rep = jet_versality(args.p, args.d, Q)
        payload = {"demo": "versality", "p": args.p, "d": args.d,
                   "jet": list(rep.jet), "shift": rep.shift, "passed": rep.passed}
    else:
        _, rep = affine_sharpness(args.p, args.d)
        payload = {"demo": "affine", "p": args.p, "d": args.d,
                   "zeros": list(rep.zeros), "value_at_d": rep.value_at_d,
                   "expected": rep.expected, "passed": rep.passed}
    emit(args, payload, [str(payload)])
    return 0 if payload["passed"] else 1


def cmd_wieferich(args):
    g = tuple(int(x) for x in args.g.split(","))
    eta = tuple(int(x) for x in args.eta.split(","))
    spec = CubicOrderSpec(g, eta)
    reports = scan(spec, args.pmin, args.pmax, max_r=args.max_r)
    payload = {
        "g": list(g),
        "eta": list(eta),
        "range": [args.pmin, args.pmax],
        "reports": [
            {
                "p": r.p,
                "inert": r.inert,
                "P": r.P,
                "r": r.r,
                "wieferich": r.wieferich,
                "nonscalar": r.nonscalar_check,
                "agree": r.scalar_checks_agree,
                "reason": r.reason,
            }
            for r in reports
        ],
    }
    inert = [r for r in reports if r.inert]
    bad = [r for r in inert if not r.scalar_checks_agree
           or (not r.indeterminate and not r.nonscalar_check)]
    lines = [
        f"p={r.p}: inert P={r.P} r={r.r} wieferich={r.wieferich}"
        for r in inert
    ]
    lines.append(f"{len(inert)} inert primes, violations: {len(bad)}")
    emit(args, payload, lines)
    return 0 if not bad else 1


def cmd_verify_all(args):
    pset = tuple(int(x) for x in args.pset.split(","))
    caps = {
        "enum": args.cap_enum,
        "branch_contexts": args.branch_contexts,
        "rankd_contexts": args.rankd_contexts,
    }
    res = verify_mod.run_all(pset=pset, seed=args.seed, caps=caps, fault=args.fault)
    if args.json:
        print(json.dumps(jsonable(res.to_jsonable()), sort_keys=True, separators=(",", ":")))
    else:
        by_criterion = {}
        for r in res.records:
            cid = r["id"].split("/", 1)[0]
            ok, tot = by_criterion.get(cid, (0, 0))
            by_criterion[cid] = (ok + (1 if r["pass"] else 0), tot + 1)
        for cid in sorted(by_criterion):
            ok, tot = by_criterion[cid]
            print(f"{'PASS' if ok == tot else 'FAIL'} {cid}: {ok}/{tot}")
        for r in res.records:
            if not r["pass"]:
                print(f"  FAILED {r['id']}: expected {r['expected']}, got {r['got']}")
        print(f"total: {res.summary['passed']}/{res.summary['total']} passed")
    return res.exit_code


# -- parser ------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubictrace",
        description="Exact cubic trace/norm counts, torus cosets, and p-adic branches.",
        allow_abbrev=False,  # subcommand flags like --c must not abbreviate --cap-*
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    parser.add_argument(
        "--cap-p", type=int, default=counts_mod.DEFAULT_PRIME_CAP,
        help="largest p that `count` enumerates by brute force (--method both or brute); "
        "nothing else reads it",
    )
    parser.add_argument("--cap-enum", type=int, default=DEFAULT_ENUM_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="prescribed trace/norm count")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--type", choices=("split", "mixed", "inert"), required=True)
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--method", choices=("both", "brute", "formula"), default="both")
    c.set_defaults(func=cmd_count)

    c = sub.add_parser("coset", help="smooth coset bound verification")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--type", choices=("split", "mixed", "inert"), required=True)
    c.add_argument("--gamma", required=True)
    c.add_argument("--s", type=int, required=True)
    c.set_defaults(func=cmd_coset)

    c = sub.add_parser("nodal", help="nodal concentration and coset checks")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--type", choices=("split", "mixed", "inert"), required=True)
    c.add_argument("--gamma", required=True)
    c.set_defaults(func=cmd_nodal)

    c = sub.add_parser("census", help="codifferent singular census")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--type", choices=("split", "mixed", "inert"), required=True)
    c.add_argument("--gamma", required=True)
    c.add_argument("--omega", required=True)
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--fibers", default="1")
    c.set_defaults(func=cmd_census)

    c = sub.add_parser("branch", help="certified local branch descriptors")
    c.add_argument("--algebra", required=True,
                   help="p=5;f=0,2,2 or p=5;split=0,1,2; precision comes from --k")
    c.add_argument("--eta", required=True)
    c.add_argument("--gamma", required=True)
    c.add_argument("--c", default="0")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--oracle", action="store_true")
    c.add_argument("--verbose", action="store_true", help="include dead classes")
    c.set_defaults(func=cmd_branch)

    c = sub.add_parser("jets", help="quadratic jet lift-family statistics")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--type", choices=("split", "mixed", "inert"), required=True)
    c.add_argument("--x", required=True)
    c.add_argument("--omega", required=True)
    c.add_argument("--c", type=int, required=True)
    c.set_defaults(func=cmd_jets)

    c = sub.add_parser("cubeclass", help="cube-class equidistribution tally")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--type", choices=("split", "mixed", "inert"), required=True)
    c.add_argument("--A", type=int, default=1)
    c.set_defaults(func=cmd_cubeclass)

    c = sub.add_parser("rankd", help="rank-d sharpness/versality demos")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--demo", choices=("sharpness", "versality", "affine"), required=True)
    c.add_argument("--q-coeffs", dest="q_coeffs")
    c.set_defaults(func=cmd_rankd)

    c = sub.add_parser("wieferich", help="toric Wieferich prime scan")
    c.add_argument("--g", required=True, help="cubic coefficients, constant first")
    c.add_argument("--eta", required=True, help="unit coefficients of 1, t, t^2")
    c.add_argument("--pmin", type=int, default=5)
    c.add_argument("--pmax", type=int, default=200)
    c.add_argument("--max-r", type=int, default=16)
    c.set_defaults(func=cmd_wieferich)

    c = sub.add_parser("verify-all", help="run the full acceptance matrix")
    c.add_argument("--pset", default="5,7",
                   help="primes of criteria 3 and 4; the other criteria use fixed prime sets")
    c.add_argument("--branch-contexts", type=int,
                   default=verify_mod.DEFAULT_CAPS["branch_contexts"])
    c.add_argument("--rankd-contexts", type=int,
                   default=verify_mod.DEFAULT_CAPS["rankd_contexts"])
    c.add_argument("--fault", help=argparse.SUPPRESS)  # harness self-test hook
    c.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
