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
from .criterion import criterion_certificate, format_vector, run_golden_cases
from .grammar import ParseError, infer_nvars, parse_operator, parse_polynomial
from .groebner import gb_polys
from .logder import InvalidDivisor
from .poly import format_int, format_polynomial
from .vfilt import NonHomogeneousError
from .weyl import format_blocks, format_operator

SCHEMA = "logdiv/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

MAX_NVARS = 32
"""Largest ring a command builds, inferred or given by ``-n``.  The cost
grows about as the cube of the ring size: ``logder "x150"`` takes seconds,
and ``"x100000"`` would never return."""


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

def _nvars_for(args, *texts):
    n = infer_nvars(*texts) if args.nvars is None else args.nvars
    if n < 1:
        raise ValueError("-n/--nvars must be at least 1")
    if n > MAX_NVARS:
        raise ValueError(f"the ring would have {format_int(n)} variables; "
                         f"at most {MAX_NVARS} are supported")
    return n


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
        "input": {"f": format_polynomial(f), "nvars": n},
        "generators": [format_vector(v) for v in dm.generators],
        "cofactors": [format_polynomial(c) for c in dm.cofactors],
        "syzygies": [format_vector(s) for s in dm.first_syzygies],
        "freeness": verdict.status,
        "euler": format_operator(chi) if chi is not None else None,
    }


def cmd_euler(args):
    n = _nvars_for(args, args.f)
    f = parse_polynomial(args.f, n)
    chi = logder_mod.euler_field(f)
    return {
        "command": "euler",
        "input": {"f": format_polynomial(f), "nvars": n},
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
        "input": {"f": format_polynomial(f), "nvars": n},
        "verdict": verdict.status,
        "min_generators": verdict.min_generators,
    }
    if verdict.status == "free":
        out["basis"] = [format_vector(v) for v in verdict.basis]
        out["determinant"] = format_polynomial(verdict.determinant)
    return out


def cmd_v0_member(args):
    n = _nvars_for(args, args.f, args.P)
    f = parse_polynomial(args.f, n)
    P = parse_operator(args.P, n)
    member = vfilt_mod.v_membership(f, P, args.k)
    return {
        "command": "v0-member",
        "input": {"f": format_polynomial(f), "P": format_operator(P),
                  "k": args.k, "nvars": n},
        "order": 0 if P.is_zero() else int(P.order()),
        "member": member,
    }


def _basis_payload(space):
    # printed straight from the integer rows, as format_operator would
    # print the basis operators row / row[pivot]
    n, blocks = space.coords.nvars, space.coords.blocks
    return {
        "dim": space.dim,
        "basis": [format_blocks(blocks(row, row[p]), n)
                  for row, p in zip(space.rows, space.pivots)],
    }


def cmd_v0_basis(args):
    n = _nvars_for(args, args.f)
    f = parse_polynomial(args.f, n)
    out = {
        "command": "v0-basis",
        "input": {"f": format_polynomial(f), "d": args.d, "w": args.w,
                  "nvars": n, "compare": bool(args.compare)},
    }
    if args.w is None:
        weights = vfilt_mod.default_weight_range(f, args.d)
        # a heuristic range, not a proven bound: label it in the output
        out["weight_range"] = {"from": weights.start, "to": weights.stop - 1,
                               "heuristic": True}
    else:
        weights = [args.w]
    # one Der(log f) for the whole scan; an invalid divisor is reported by
    # default_weight_range, or with -w by the piece
    dm = (logder_mod.log_derivations(f) if args.compare and
          f.is_homogeneous() and not f.is_constant() else None)
    pieces = []
    for w in weights:
        if args.compare:
            cmp = vfilt_mod.compare_v0(f, args.d, w, dm)
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
        "input": {"f": format_polynomial(f), "k": args.k, "d": args.d,
                  "w": args.w, "nvars": n},
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
        "input": {"f": format_polynomial(f), "module": args.module,
                  "symk": args.symk, "nvars": n},
        "module_rank": sp.module_rank,
        "ring_variables": [f"x{i+1}" for i in range(n)] +
                          [f"T{j+1}" for j in range(sp.module_rank)],
        "relations": [format_polynomial(r) for r in sp.relations],
        "rees_kernel": [format_polynomial(p) for p in gb_polys(rk)],
        "pi_injective": injective,
        "torsion": {
            "k": report.tdegree,
            "torsion_free": report.torsion_free,
            "witnesses": [{"variable": i, "element": format_vector(v)}
                          for i, v in report.witnesses],
        },
    }


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
            "f": format_polynomial(arrangement.f),
            "hyperplanes": [format_polynomial(h)
                            for h in arrangement.hyperplanes],
            "Q": format_operator(Q),
            "Q_order": int(Q.order()),
            "Q_weight": Q.weight(),
        }
    n = args.n
    arrangement = arr_mod.generic_dn(n)
    out = {
        "command": "arrangement",
        "input": {"kind": "dn", "n": n, "check": args.check},
        "f": format_polynomial(arrangement.f),
        "eta_count": len(arrangement.eta_index),
        "sigma_count": len(arrangement.sigmas),
    }
    if args.check == "lemma19":
        out["lemma19"] = arr_mod.lemma19_check(n)
    elif args.check == "prop17":
        out["prop17"] = arr_mod.prop17_check(n)
    return out


def cmd_selftest(args):
    return {"command": "selftest", **run_golden_cases()}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="logdiv",
        description="Exact computations with logarithmic derivations, "
                    "symmetric algebras and the V-filtration along a divisor.")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value defaults, one per line")
    sub = parser.add_subparsers(dest="subcommand", required=True)

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

    return parser, sub.choices


_PARSER, _SUBPARSERS = _build_parser()
# options that take a value, for _attach_dash_values
_VALUED = {opt for p in (_PARSER, *_SUBPARSERS.values()) for a in p._actions
           if a.nargs is None for opt in a.option_strings}


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
    return format_int(v) if isinstance(v, int) else str(v)


def _dumps(data):
    """``data`` as indented JSON with sorted keys.  json writes an int with
    ``int.__repr__``, which refuses one past the interpreter's limit on
    int/str conversion (4300 digits by default); then every int goes in as
    a placeholder string and comes out as its ``format_int`` digits."""
    try:
        return json.dumps(data, indent=2, sort_keys=True)
    except ValueError:
        pass
    ints = []

    def mark(v):
        if isinstance(v, dict):
            return {k: mark(x) for k, x in v.items()}
        if isinstance(v, list):
            return [mark(x) for x in v]
        if isinstance(v, int) and not isinstance(v, bool):
            ints.append(v)
            return f"\0{len(ints) - 1}"
        return v

    text = json.dumps(mark(data), indent=2, sort_keys=True)
    for i, v in enumerate(ints):
        text = text.replace(f'"\\u0000{i}"', format_int(v), 1)
    return text


def _attach_dash_values(argv):
    """Join an option and a value that starts with '-' into one token, so
    ``-P -x*dx`` parses as ``-P=-x*dx`` instead of as two options."""
    out = []
    pending = None  # a valued option still waiting for its value
    for arg in argv:
        if pending is not None and arg.startswith("-") and arg != "--":
            out[-1] = f"{pending}={arg}"
            pending = None
            continue
        out.append(arg)
        pending = arg if pending is None and arg in _VALUED else None
    return out


def _config_args(path, subparser):
    """The ``key=value`` lines of a config file as option tokens of
    ``subparser``, so argparse checks them like flags.  Keys are flag
    destinations; those ``subparser`` has no option for are ignored."""
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
    tokens = []
    for action in subparser._actions:
        value = values.get(action.dest)
        if value is None or not action.option_strings:
            continue
        opt = action.option_strings[-1]
        if action.nargs is None:
            tokens.append(f"{opt}={value}")
        elif value == "true":
            tokens.append(opt)
        elif value != "false":
            raise ValueError(f"{action.dest} must be true or false")
    return tokens


def _parse(argv):
    """Parse argv; ``--config`` values go in right after the subcommand
    name, so explicit flags, which come later, still win."""
    argv = _attach_dash_values(argv)
    args = _PARSER.parse_args(argv)
    if args.config is not None:
        # skip the config path, which could be spelled like a subcommand
        at = argv.index(args.subcommand, 1 if "=" in argv[0] else 2) + 1
        tokens = _config_args(args.config, _SUBPARSERS[args.subcommand])
        args = _PARSER.parse_args(argv[:at] + tokens + argv[at:])
    return args


def run(argv) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        sys.stdout.write(_dumps(payload) + "\n")
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
