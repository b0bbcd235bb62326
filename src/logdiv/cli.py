"""Command-line front end.

Subcommands cover the individual pipelines (logder, euler, freeness,
v0-member, v0-basis, vk-basis, symalg, criterion, arrangement) plus a
selftest that replays the golden cases.  ``--json`` selects the machine
format (schema ``logdiv/1``); identical invocations produce byte-identical
JSON, so wall-clock timings appear only in the human-readable output.

Exit codes: 0 for computed verdicts (including refutations), 2 for usage
or parse errors, 3 for unsupported input such as a non-homogeneous divisor
on a graded-basis command.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import arrangements as arr_mod
from . import logder as logder_mod
from . import symalg as symalg_mod
from . import vfilt as vfilt_mod
from .grammar import ParseError, parse_operator, parse_polynomial, _tokenize
from .logder import InvalidDivisor
from .poly import Polynomial, format_polynomial
from .vfilt import NonHomogeneousError, VMembershipQuery
from .weyl import format_operator

SCHEMA = "logdiv/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

_ALIAS_N = {"x": 1, "y": 2, "z": 3, "w": 4}


def infer_nvars(*texts):
    """Smallest ring dimension accommodating every variable mentioned."""
    n = 1
    for text in texts:
        if not text:
            continue
        for kind, value, line, col in _tokenize(text):
            if kind != "NAME":
                continue
            body = value[1:] if value.startswith("d") and len(value) > 1 else value
            if body in _ALIAS_N:
                n = max(n, _ALIAS_N[body])
            elif body.startswith("x") and body[1:].isdigit():
                n = max(n, int(body[1:]))
    return n


def _nvars_for(args, *texts):
    return args.nvars if args.nvars else infer_nvars(*texts)


def _poly_str(p: Polynomial) -> str:
    return format_polynomial(p)


def _vec(v) -> list:
    return [_poly_str(p) for p in v.components]


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a JSON-able dict)
# ---------------------------------------------------------------------------

def cmd_logder(args):
    n = _nvars_for(args, args.f)
    f = parse_polynomial(args.f, n)
    dm = logder_mod.log_derivations(f)
    chi = logder_mod.euler_field(f)
    verdict = logder_mod.saito_freeness_test(dm)
    return {
        "command": "logder",
        "input": {"f": _poly_str(f), "nvars": n},
        "generators": [_vec(v) for v in dm.generators],
        "cofactors": [_poly_str(c) for c in dm.cofactors],
        "syzygies": [_vec(s) for s in dm.first_syzygies],
        "freeness": verdict.status,
        "euler": format_operator(chi) if chi is not None else None,
    }


def cmd_euler(args):
    n = _nvars_for(args, args.f)
    f = parse_polynomial(args.f, n)
    chi = logder_mod.euler_field(f)
    return {
        "command": "euler",
        "input": {"f": _poly_str(f), "nvars": n},
        "euler": format_operator(chi) if chi is not None else None,
        "euler_homogeneous": chi is not None,
    }


def cmd_freeness(args):
    n = _nvars_for(args, args.f)
    f = parse_polynomial(args.f, n)
    dm = logder_mod.log_derivations(f)
    verdict = logder_mod.saito_freeness_test(dm)
    out = {
        "command": "freeness",
        "input": {"f": _poly_str(f), "nvars": n},
        "verdict": verdict.status,
        "min_generators": verdict.min_generators,
    }
    if verdict.status == "free":
        out["basis"] = [_vec(v) for v in verdict.basis]
        out["determinant"] = _poly_str(verdict.determinant)
    return out


def cmd_v0_member(args):
    n = _nvars_for(args, args.f, args.P)
    f = parse_polynomial(args.f, n)
    P = parse_operator(args.P, n)
    query = VMembershipQuery(f, P, args.k)
    member = vfilt_mod.v_membership(query)
    return {
        "command": "v0-member",
        "input": {"f": _poly_str(f), "P": format_operator(P), "k": args.k,
                  "nvars": n},
        "order": query.order,
        "member": member,
    }


def _basis_payload(space):
    return {
        "dim": space.dim,
        "basis": [format_operator(op) for op in space.basis],
    }


def cmd_v0_basis(args):
    n = _nvars_for(args, args.f)
    f = parse_polynomial(args.f, n)
    out = {
        "command": "v0-basis",
        "input": {"f": _poly_str(f), "d": args.d, "w": args.w, "nvars": n,
                  "compare": bool(args.compare)},
    }
    weights = ([args.w] if args.w is not None
               else list(vfilt_mod.default_weight_range(f, args.d)))
    pieces = []
    for w in weights:
        if args.compare:
            cmp = vfilt_mod.compare_v0(f, args.d, w)
            piece = {"w": w, "dim_v0": cmp.dim_v0,
                     "dim_generated": cmp.dim_generated, "equal": cmp.equal}
            if cmp.witness is not None:
                piece["witness"] = format_operator(cmp.witness)
        else:
            space = vfilt_mod.v0_graded_basis(f, args.d, w)
            piece = {"w": w, **_basis_payload(space)}
        pieces.append(piece)
    out["pieces"] = pieces
    return out


def cmd_vk_basis(args):
    n = _nvars_for(args, args.f)
    f = parse_polynomial(args.f, n)
    space = vfilt_mod.vk_graded_basis(f, args.k, args.d, args.w)
    return {
        "command": "vk-basis",
        "input": {"f": _poly_str(f), "k": args.k, "d": args.d, "w": args.w,
                  "nvars": n},
        **_basis_payload(space),
    }


def _module_for(f, which):
    if which == "ann":
        return logder_mod.ann_theta(f)
    dm = logder_mod.log_derivations(f)
    try:
        return dm.minimalized()
    except ValueError:
        return dm


def cmd_symalg(args):
    n = _nvars_for(args, args.f)
    f = parse_polynomial(args.f, n)
    dm = _module_for(f, args.module)
    sp = symalg_mod.sym_presentation(dm)
    rk = symalg_mod.rees_kernel(dm)
    injective = symalg_mod.pi_injectivity_test(sp, rk)
    report = symalg_mod.torsion_test_symk(sp, args.symk)
    return {
        "command": "symalg",
        "input": {"f": _poly_str(f), "module": args.module,
                  "symk": args.symk, "nvars": n},
        "module_rank": sp.module_rank,
        "ring_variables": [f"x{i+1}" for i in range(n)] +
                          [f"T{j+1}" for j in range(sp.module_rank)],
        "relations": [_poly_str(r) for r in sp.relations],
        "rees_kernel": [_poly_str(p) for p in rk.generators],
        "pi_injective": injective,
        "torsion": {
            "k": report.tdegree,
            "torsion_free": report.torsion_free,
            "witnesses": [{"variable": i, "element": _vec(v)}
                          for i, v in report.witnesses],
        },
    }


# ---------------------------------------------------------------------------
# the certification pipeline
# ---------------------------------------------------------------------------

def _split_complement(f, chi):
    """Generators A with O*chi + <A> = Der(log f) direct, or None."""
    from .groebner import FreeModuleVector, buchberger, gb_equal
    dm = logder_mod.log_derivations(f)
    try:
        dm = dm.minimalized()
    except ValueError:
        return None
    chi_vec = FreeModuleVector(chi.first_order_part())
    gens = dm.generators
    full = buchberger(gens)
    for drop in range(len(gens)):
        cand = [g for i, g in enumerate(gens) if i != drop]
        if not cand:
            continue
        if not gb_equal(buchberger([chi_vec] + cand), full):
            continue
        if logder_mod.split_check(dm, chi, a_generators=cand):
            return cand
    return None


def _route_report(f, name, a_gens, dimZ, symk_bound):
    from .groebner import syzygies
    from .logder import DerivationModule, _cofactor
    cofs = [_cofactor(v, f) for v in a_gens]
    dm = DerivationModule(f, list(a_gens), cofs, syzygies(list(a_gens)))
    cert = symalg_mod.grade_criterion(dm, dimZ)
    sp = symalg_mod.sym_presentation(dm)
    witnesses = []
    for k in range(2, symk_bound + 1):
        report = symalg_mod.torsion_test_symk(sp, k)
        for i, v in report.witnesses:
            witnesses.append({"k": k, "variable": i, "element": _vec(v)})
    route = {
        "route": name,
        "module_rank": len(a_gens),
        "resolution_shape": "ok" if cert.applicable else "na",
        "resolution_note": cert.reason,
        "grade": None if cert.grade is None else
                 ("inf" if cert.grade == float("inf") else cert.grade),
        "required": cert.required,
        "grade_certified": cert.certified,
        "torsion_witnesses": witnesses,
    }
    if cert.applicable:
        route["syzygy_vector"] = _vec(cert.syzygy_vector)
    return route


def criterion_certificate(f, dimZ, symk_bound=2, route="both"):
    """Hypothesis checklist and verdict for the vector-field generation
    criterion: freeness shortcut, Euler field, splitting, rank-one
    resolution, grade bound, and degreewise torsion evidence."""
    chi = logder_mod.euler_field(f)
    homogeneous = f.is_homogeneous()
    freeness = logder_mod.saito_freeness_test(logder_mod.log_derivations(f))
    cert = {
        "input": {"f": _poly_str(f), "dimZ": dimZ, "symk_bound": symk_bound,
                  "route": route},
        "hypotheses": {
            "euler": format_operator(chi) if chi is not None else None,
            "euler_homogeneous": chi is not None,
            "homogeneous": homogeneous,
            "quasi_homogeneous": logder_mod.quasi_weights(f) is not None,
            "free": freeness.status,
            "split": None,
        },
        "routes": [],
    }
    routes = []
    if chi is not None:
        if route in ("both", "ann"):
            ann = logder_mod.ann_theta(f)
            routes.append(_route_report(f, "ann", ann.generators, dimZ,
                                        symk_bound))
        if route in ("both", "split"):
            comp = _split_complement(f, chi)
            cert["hypotheses"]["split"] = comp is not None
            if comp is not None:
                routes.append(_route_report(f, "split", comp, dimZ,
                                            symk_bound))
    cert["routes"] = routes
    refuted = [r for r in routes if r["torsion_witnesses"]]
    certified = [r for r in routes
                 if r["grade_certified"] and not r["torsion_witnesses"]]
    if freeness.status == "free":
        verdict = "certified"
        rests_on = ("free divisor: a basis of logarithmic fields generates "
                    "every logarithmic differential operator")
    elif chi is None:
        verdict, rests_on = "inconclusive", "no Euler field: criterion hypotheses fail"
    elif certified:
        verdict = "certified"
        rests_on = ("rank-one resolution with grade >= dimZ+3 implies the "
                    "logarithmic operators are generated by vector fields")
    elif refuted:
        verdict = "refuted-with-witness"
        rests_on = ("coordinate zero divisors on a symmetric power show the "
                    "symmetric-to-Rees map is not injective, so the "
                    "criterion's torsion-freeness hypothesis fails")
    else:
        verdict, rests_on = "inconclusive", "no route certified and no witness found"
    best = certified[0] if certified else (routes[0] if routes else None)
    cert.update({
        "euler": cert["hypotheses"]["euler"],
        "split": cert["hypotheses"]["split"],
        "resolution_shape": best["resolution_shape"] if best else "na",
        "grade": best["grade"] if best else None,
        "required": dimZ + 3,
        "certified": bool(certified) or freeness.status == "free",
        "torsion_witnesses": [w for r in routes for w in r["torsion_witnesses"]],
        "verdict": verdict,
        "rests_on": rests_on,
    })
    return cert


def cmd_criterion(args):
    n = _nvars_for(args, args.f)
    f = parse_polynomial(args.f, n)
    cert = criterion_certificate(f, args.dimZ, args.symk_bound, args.route)
    cert["command"] = "criterion"
    cert["input"]["nvars"] = n
    return cert


def cmd_arrangement(args):
    if args.kind == "dn" and args.n is None:
        raise ValueError("arrangement dn requires --n")
    if args.kind == "example9":
        arrangement, Q = arr_mod.example9_objects()
        return {
            "command": "arrangement",
            "input": {"kind": "example9"},
            "f": _poly_str(arrangement.f),
            "hyperplanes": [_poly_str(h) for h in arrangement.hyperplanes],
            "Q": format_operator(Q),
            "Q_order": int(Q.order()),
            "Q_weight": Q.weight(),
        }
    n = args.n
    arrangement = arr_mod.generic_dn(n)
    out = {
        "command": "arrangement",
        "input": {"kind": "dn", "n": n, "check": args.check},
        "f": _poly_str(arrangement.f),
        "eta_count": len(arrangement.eta_index),
        "sigma_count": len(arrangement.sigmas),
    }
    if args.check == "lemma19":
        out["lemma19"] = arr_mod.lemma19_check(n)
    elif args.check == "prop17":
        out["prop17"] = arr_mod.prop17_check(n)
    return out


# ---------------------------------------------------------------------------
# selftest: the golden cases
# ---------------------------------------------------------------------------

def _golden_cases():
    from .groebner import buchberger, gb_equal, FreeModuleVector

    def example3_2():
        ok = True
        for m, k in ((0, 2), (1, 2), (0, 3)):
            n = m + k
            f = Polynomial.one(n)
            for i in range(m, n):
                f = f * Polynomial.variable(n, i)
            dm = logder_mod.log_derivations(f)
            expected = []
            zero = Polynomial.zero(n)
            for i in range(m):
                comps = [zero] * n
                comps[i] = Polynomial.one(n)
                expected.append(FreeModuleVector(comps))
            for i in range(m, n):
                comps = [zero] * n
                comps[i] = Polynomial.variable(n, i)
                expected.append(FreeModuleVector(comps))
            ok = ok and gb_equal(buchberger(dm.generators),
                                 buchberger(expected))
        return ok

    def example9_member():
        arrangement, Q = arr_mod.example9_objects()
        return vfilt_mod.v_member(arrangement.f, Q, 0)

    def example16():
        arrangement, Q = arr_mod.example9_objects()
        f = arrangement.f
        dm = logder_mod.log_derivations(f).minimalized()
        nf = symalg_mod.alpha_image_nf(dm, Q, 2)
        sp = symalg_mod.sym_presentation(dm)
        rk = symalg_mod.rees_kernel(dm)
        cmp = vfilt_mod.compare_v0(f, 2, 3, dm)
        return ((not nf.is_zero()) and
                symalg_mod.pi_injectivity_test(sp, rk) and
                not cmp.equal and cmp.witness is not None)

    def d3_certified():
        cert = criterion_certificate(
            arr_mod.generic_dn(3).f, 0, symk_bound=2, route="split")
        return cert["verdict"] == "certified"

    def dim3_corollary():
        ok = True
        for text, n in (("x^3+y^3+z^3", 3), ("x^2+y^2+z^2", 3),
                        ("x^5+y^3+z^2", 3)):
            cert = criterion_certificate(
                parse_polynomial(text, n), 0, symk_bound=2, route="ann")
            ok = ok and cert["verdict"] == "certified"
        return ok

    def quadric_c4():
        f = parse_polynomial("x^2+y^2+z^2+w^2", 4)
        ann = logder_mod.ann_theta(f)
        sp = symalg_mod.sym_presentation(ann)
        rk = symalg_mod.rees_kernel(ann)
        report = symalg_mod.torsion_test_symk(sp, 2)
        return (sorted(i for i, _ in report.witnesses) == [0, 1, 2, 3]
                and not symalg_mod.pi_injectivity_test(sp, rk))

    def d4_torsion():
        dm = arr_mod.generic_dn(4).a_module()
        sp = symalg_mod.sym_presentation(dm)
        report = symalg_mod.torsion_test_symk(sp, 2)
        return sorted(i for i, _ in report.witnesses) == [0, 1, 2, 3]

    cases = [("example3_2_normal_crossing", example3_2),
             ("example9_v0_membership", example9_member),
             ("example16_gap_and_injectivity", example16)]
    for n in (3, 4, 5):
        cases.append((f"lemma19_n{n}", lambda n=n: arr_mod.lemma19_check(n)))
        cases.append((f"prop17_n{n}", lambda n=n: arr_mod.prop17_check(n)))
    cases.extend([
        ("d3_certification", d3_certified),
        ("dim3_corollary_instances", dim3_corollary),
        ("quadric_c4_torsion_and_pi", quadric_c4),
        ("d4_sym2_torsion", d4_torsion),
    ])
    return cases


def cmd_selftest(args):
    results = []
    failures = 0
    for name, fn in _golden_cases():
        t0 = time.perf_counter()
        try:
            ok = bool(fn())
        except Exception as exc:  # a crash is a failing golden case
            ok = False
            results.append({"case": name, "pass": False,
                            "error": f"{type(exc).__name__}: {exc}",
                            "seconds": round(time.perf_counter() - t0, 3)})
            failures += 1
            continue
        results.append({"case": name, "pass": ok,
                        "seconds": round(time.perf_counter() - t0, 3)})
        if not ok:
            failures += 1
    return {
        "command": "selftest",
        "cases": results,
        "passed": len(results) - failures,
        "failed": failures,
    }


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _build_parser():
    subparsers = []
    parser = argparse.ArgumentParser(
        prog="logdiv",
        description="Exact computations with logarithmic derivations, "
                    "symmetric algebras and the V-filtration along a divisor.")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value defaults, one per line")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    _add = sub.add_parser

    def add_parser(*a, **kw):
        p = _add(*a, **kw)
        subparsers.append(p)
        return p
    sub.add_parser = add_parser

    def common(p):
        p.add_argument("-n", "--nvars", type=int, default=None,
                       help="ring dimension (default: inferred)")
        p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("logder", help="generators of Der(log f)")
    p.add_argument("f")
    common(p)
    p.set_defaults(fn=cmd_logder)

    p = sub.add_parser("euler", help="Euler field, if one exists")
    p.add_argument("f")
    common(p)
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("freeness", help="Saito freeness verdict")
    p.add_argument("f")
    common(p)
    p.set_defaults(fn=cmd_freeness)

    p = sub.add_parser("v0-member", help="membership in the filtration level")
    p.add_argument("-f", required=True)
    p.add_argument("-P", required=True)
    p.add_argument("-k", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_v0_member)

    p = sub.add_parser("v0-basis", help="graded basis of the level-0 piece")
    p.add_argument("-f", required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-w", type=int, default=None)
    p.add_argument("--compare", action="store_true",
                   help="compare against the vector-field subalgebra")
    common(p)
    p.set_defaults(fn=cmd_v0_basis)

    p = sub.add_parser("vk-basis", help="graded basis of a level-k piece")
    p.add_argument("-f", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-w", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_vk_basis)

    p = sub.add_parser("symalg", help="symmetric algebra, Rees kernel, torsion")
    p.add_argument("f")
    p.add_argument("--module", choices=("logder", "ann"), default="logder")
    p.add_argument("--symk", type=int, default=2)
    common(p)
    p.set_defaults(fn=cmd_symalg)

    p = sub.add_parser("criterion", help="vector-field generation certificate")
    p.add_argument("f")
    p.add_argument("--dimZ", type=int, default=0)
    p.add_argument("--symk-bound", type=int, default=2, dest="symk_bound")
    p.add_argument("--route", choices=("both", "ann", "split"), default="both")
    common(p)
    p.set_defaults(fn=cmd_criterion)

    p = sub.add_parser("arrangement", help="generic arrangement constructors")
    p.add_argument("kind", choices=("dn", "example9"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--check", choices=("lemma19", "prop17"), default=None)
    common(p)
    p.set_defaults(fn=cmd_arrangement)

    p = sub.add_parser("selftest", help="replay the golden cases")
    common(p)
    p.set_defaults(fn=cmd_selftest)

    return parser, subparsers


def _load_config(path):
    values = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _emit_human(data, out):
    def emit(prefix, value):
        if isinstance(value, dict):
            for k in value:
                emit(f"{prefix}{k}." if prefix else f"{k}.", value[k]) \
                    if isinstance(value[k], (dict, list)) else \
                    out.write(f"{prefix}{k}: {_scalar(value[k])}\n")
        elif isinstance(value, list):
            if not value:
                out.write(f"{prefix.rstrip('.')}: []\n")
            for i, item in enumerate(value):
                if isinstance(item, (dict, list)):
                    emit(f"{prefix}{i}.", item)
                else:
                    out.write(f"{prefix}{i}: {_scalar(item)}\n")
        else:
            out.write(f"{prefix.rstrip('.')}: {_scalar(value)}\n")

    emit("", data)


def _scalar(v):
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _attach_dash_values(argv, parsers):
    """Join an option and a value that starts with '-' into one token, so
    ``-P -x*dx`` parses as ``-P=-x*dx`` instead of as two options."""
    valued = {opt for p in parsers for action in p._actions
              if action.nargs is None for opt in action.option_strings}
    out = []
    pending = None  # a valued option still waiting for its value
    for arg in argv:
        if pending is not None and arg.startswith("-") and arg != "--":
            out[-1] = f"{pending}={arg}"
            pending = None
            continue
        out.append(arg)
        pending = arg if pending is None and arg in valued else None
    return out


def run(argv) -> int:
    parser, subparsers = _build_parser()
    # apply --config before the real parse so flags still win
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 < len(argv):
            try:
                values = _load_config(argv[idx + 1])
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return EXIT_USAGE
            converted = {}
            for key, value in values.items():
                if value.lstrip("-").isdigit():
                    converted[key] = int(value)
                elif value in ("true", "false"):
                    converted[key] = value == "true"
                else:
                    converted[key] = value
            parser.set_defaults(**converted)
            for p in subparsers:
                p.set_defaults(**converted)
    try:
        args = parser.parse_args(_attach_dash_values(argv,
                                                     [parser, *subparsers]))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        data = args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonHomogeneousError, InvalidDivisor) as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.perf_counter() - t0
    if args.as_json:
        payload = {"schema": SCHEMA, **data}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit_human(data, sys.stdout)
        sys.stdout.write(f"elapsed: {elapsed:.3f}s\n")
    if data.get("command") == "selftest" and data.get("failed"):
        return 1
    return EXIT_OK


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
