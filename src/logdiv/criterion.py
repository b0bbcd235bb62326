"""The certification pipeline for the sufficient criterion: when are the
logarithmic differential operators along f generated by vector fields?

``criterion_certificate`` checks the hypotheses (freeness, Euler field,
splitting, rank-one resolution, grade bound, degreewise torsion) and
returns a JSON-able certificate with a verdict.  ``run_golden_cases``
replays the paper's worked examples.
"""

from __future__ import annotations

from . import arrangements as arr_mod
from . import logder as logder_mod
from . import symalg as symalg_mod
from . import vfilt as vfilt_mod
from .grammar import parse_polynomial
from .groebner import FreeModuleVector, buchberger, gb_equal
from .poly import Polynomial, format_polynomial
from .weyl import format_operator


def format_vector(v) -> list:
    """The components of a module element as printed polynomials."""
    return [format_polynomial(p) for p in v.components]


# ---------------------------------------------------------------------------
# the certification pipeline
# ---------------------------------------------------------------------------

def _split_complement(dm, chi):
    """Der(log f) on minimal generators A with O*chi + <A> = Der(log f)
    direct, or None; A drops the first minimal generator g_j that allows.

    With chi = sum c_i g_i, chi and A span iff c_j is a unit (graded
    Nakayama); then a syzygy s of the g_i is one of (chi, A) with
    chi-coefficient s_j / c_j, so the sum is direct iff all s_j = 0."""
    try:
        mini = dm.minimalized()
    except ValueError:
        return None
    m = len(mini.generators)
    if m < 2:
        return None
    # chi(f) = f, so chi lies in Der(log f) and the lift exists
    lift = mini.lift(FreeModuleVector(chi.first_order_part()))
    for drop, c in enumerate(lift):
        if c.constant_term() and all(s.components[drop].is_zero()
                                     for s in mini.first_syzygies):
            return mini.subset([i for i in range(m) if i != drop])
    return None


def _route_report(name, dm, dimZ, symk_bound):
    cert = symalg_mod.grade_criterion(dm, dimZ)
    sp = symalg_mod.sym_presentation(dm)
    witnesses = []
    for k in range(2, symk_bound + 1):
        report = symalg_mod.torsion_test_symk(sp, k)
        for i, v in report.witnesses:
            witnesses.append({"k": k, "variable": i,
                              "element": format_vector(v)})
    route = {
        "route": name,
        "module_rank": len(dm.generators),
        "resolution_shape": "ok" if cert.applicable else "na",
        "resolution_note": cert.reason,
        "grade": None if cert.grade is None else
                 ("inf" if cert.grade == float("inf") else cert.grade),
        "required": cert.required,
        "grade_certified": cert.certified,
        "torsion_witnesses": witnesses,
    }
    if cert.applicable:
        route["syzygy_vector"] = format_vector(cert.syzygy_vector)
    return route


def criterion_certificate(f, dimZ, symk_bound=2, route="both"):
    """Hypothesis checklist and verdict for the vector-field generation
    criterion: freeness shortcut, Euler field, splitting, rank-one
    resolution, grade bound, and degreewise torsion evidence.

    Der(log f) is built once: with an Euler field chi and the ann route
    (both or ann) it is Ann(f) + O*chi, ``log_derivations_from_ann``;
    without chi or on route split alone, ``log_derivations(f)``."""
    if dimZ < 0:
        raise ValueError(f"dimZ must be at least 0, got {dimZ}")
    if symk_bound < 1:
        raise ValueError(f"symk_bound must be at least 1, got {symk_bound}")
    if route not in ("both", "ann", "split"):
        raise ValueError(f"route must be both, ann or split, got {route!r}")
    chi = logder_mod.euler_field(f)
    ann = None
    if chi is not None and route in ("both", "ann"):
        ann = logder_mod.ann_theta(f)
        dm = logder_mod.log_derivations_from_ann(ann, chi)
    else:
        dm = logder_mod.log_derivations(f)
    freeness = logder_mod.saito_freeness_test(dm)
    cert = {
        "input": {"f": format_polynomial(f), "dimZ": dimZ,
                  "symk_bound": symk_bound, "route": route},
        "hypotheses": {
            "euler": format_operator(chi) if chi is not None else None,
            "euler_homogeneous": chi is not None,
            "homogeneous": f.is_homogeneous(),
            "quasi_homogeneous": dm.grading[0] is not None,
            "free": freeness.status,
            "split": None,
        },
        "routes": [],
    }
    routes = []
    if chi is not None:
        if route in ("both", "ann"):
            routes.append(_route_report("ann", ann, dimZ, symk_bound))
        if route in ("both", "split"):
            comp = _split_complement(dm, chi)
            cert["hypotheses"]["split"] = comp is not None
            if comp is not None:
                routes.append(_route_report("split", comp, dimZ, symk_bound))
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


# ---------------------------------------------------------------------------
# the golden cases
# ---------------------------------------------------------------------------

def _golden_cases():
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


def run_golden_cases():
    """Pass/fail of every golden case; a crash fails its case."""
    results = []
    for name, fn in _golden_cases():
        try:
            results.append({"case": name, "pass": bool(fn())})
        except Exception as exc:  # a crash is a failing golden case
            results.append({"case": name, "pass": False,
                            "error": f"{type(exc).__name__}: {exc}"})
    failures = sum(not r["pass"] for r in results)
    return {"cases": results, "passed": len(results) - failures,
            "failed": failures}
