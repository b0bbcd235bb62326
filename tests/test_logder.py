import os
import pathlib
import random
import subprocess
import sys
from itertools import combinations

import pytest

from logdiv import groebner
from logdiv.arrangements import generic_dn
from logdiv.criterion import _split_complement
from logdiv.grammar import parse_operator, parse_polynomial
from logdiv.groebner import (FreeModuleVector, buchberger, gb_equal,
                             in_submodule, normal_form, syzygies)
from logdiv.logder import (InvalidDivisor, ann_theta, euler_field,
                           log_derivations, poly_det,
                           quasi_weights, saito_freeness_test)
from logdiv.poly import Polynomial, divide_exact
from logdiv.weyl import apply_op

from oracles import commutator, is_direct_sum, span_membership


def P(s, n):
    return parse_polynomial(s, n)


def unit_field(n, i, coeff=None):
    zero = Polynomial.zero(n)
    comps = [zero] * n
    comps[i] = coeff if coeff is not None else Polynomial.one(n)
    return FreeModuleVector(comps)


def check_derivation_module(dm):
    """theta(f) = cofactor*f exactly, and bracket closure against the
    generators' basis."""
    f = dm.divisor
    gb = buchberger(dm.generators)
    ops = dm.operators()
    for v, c, op in zip(dm.generators, dm.cofactors, ops):
        assert apply_op(op, f) == c * f
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            br = commutator(ops[i], ops[j])
            vec = FreeModuleVector(br.first_order_part())
            assert br.order() <= 1 and not br.terms.get((0,) * dm.nvars)
            assert normal_form(vec, gb).is_zero()


def test_normal_crossing_pure():
    # y1 y2 with no free variables, then one free variable, then y1 y2 y3
    for m, k in ((0, 2), (1, 2), (0, 3)):
        n = m + k
        f = Polynomial.one(n)
        for i in range(m, n):
            f = f * Polynomial.variable(n, i)
        dm = log_derivations(f)
        expected = [unit_field(n, i) for i in range(m)]
        expected += [unit_field(n, i, Polynomial.variable(n, i))
                     for i in range(m, n)]
        assert gb_equal(buchberger(dm.generators), buchberger(expected))
        check_derivation_module(dm)


def test_smooth_hyperplane():
    f = P("x", 3)
    dm = log_derivations(f)
    expected = [unit_field(3, 0, P("x", 3)), unit_field(3, 1), unit_field(3, 2)]
    assert gb_equal(buchberger(dm.generators), buchberger(expected))


def test_f3_equals_chi_plus_etas():
    from logdiv.arrangements import generic_dn
    arr = generic_dn(3)
    dm = log_derivations(arr.f)
    named = [arr.chi] + arr.eta_list()
    assert gb_equal(buchberger(dm.generators), buchberger(named))
    check_derivation_module(dm)


def test_constant_divisor_rejected():
    with pytest.raises(InvalidDivisor):
        log_derivations(Polynomial.one(2))
    with pytest.raises(InvalidDivisor):
        ann_theta(Polynomial.zero(2))


# -- Euler fields -------------------------------------------------------------

def test_euler_homogeneous():
    f = P("x*y*(x+y)", 2)
    chi = euler_field(f)
    assert chi == parse_operator("1/3*x*dx + 1/3*y*dy", 2)
    assert apply_op(chi, f) == f


def test_euler_quasi_homogeneous_lift():
    f = P("x^2 + y^3", 2)
    chi = euler_field(f)
    assert chi is not None
    assert apply_op(chi, f) == f


EULER_UNDER_O = """
from logdiv import logder
from logdiv.grammar import parse_polynomial
from logdiv.poly import Polynomial

assert not __debug__
f = parse_polynomial(TEXT, 2)
logder.apply_op = lambda chi, g: g + Polynomial.one(g.nvars)
try:
    logder.euler_field(f)
except AssertionError as err:
    print("raised:", err)
else:
    print("returned")
"""


@pytest.mark.parametrize("text", ["x^2*y + y^3", "y^2 - 2*x^3"])
def test_euler_field_checks_its_image_under_python_O(text):
    # ``python -O`` strips assert statements: the check chi(f) = f must
    # still raise
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-O", "-c", EULER_UNDER_O.replace("TEXT", repr(text))],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("raised:"), run.stdout
    assert "engine inconsistency" in run.stdout


def test_non_euler_homogeneous_detected():
    # an isolated plane curve singularity that is not quasi-homogeneous,
    # so f cannot lie in the ideal of its partials
    f = P("x^5 + y^5 + x^3*y^3", 2)
    assert quasi_weights(f) is None
    assert euler_field(f) is None
    # brute-force cross-check at a generous degree bound
    grads = [f.deriv(0), f.deriv(1)]
    assert not span_membership(f, grads, f.degree() + 4)


# -- annihilator ---------------------------------------------------------------

def test_ann_smooth():
    dm = ann_theta(P("x", 3))
    expected = [unit_field(3, 1), unit_field(3, 2)]
    assert gb_equal(buchberger(dm.generators), buchberger(expected))


def test_ann_quadric_rotations():
    f = P("x^2+y^2+z^2+w^2", 4)
    dm = ann_theta(f)
    zero = Polynomial.zero(4)
    rotations = []
    for i in range(4):
        for j in range(i + 1, 4):
            comps = [zero] * 4
            comps[i] = Polynomial.variable(4, j)
            comps[j] = -Polynomial.variable(4, i)
            rotations.append(FreeModuleVector(comps))
    assert gb_equal(buchberger(dm.generators), buchberger(rotations))
    check_derivation_module(dm)


def test_ann_f3_complements_chi():
    from logdiv.arrangements import generic_dn
    arr = generic_dn(3)
    dm = log_derivations(arr.f)
    ann = ann_theta(arr.f)
    chi = arr.chi
    assert gb_equal(buchberger(dm.generators),
                    buchberger([chi] + list(ann.generators)))
    # the eta fields land in Ann only after removing their chi-part, and
    # A3 + O*chi recovers the whole module
    assert gb_equal(buchberger(dm.generators),
                    buchberger([chi] + arr.eta_list()))


def test_homogeneous_decomposition_property():
    for text, n in (("x*y", 2), ("x*y*z*(x+y+z)", 3), ("x^3+y^3+z^3", 3)):
        f = P(text, n)
        dm = log_derivations(f)
        chi = euler_field(f)
        chi_vec = FreeModuleVector(chi.first_order_part())
        ann = ann_theta(f)
        assert gb_equal(buchberger(dm.generators),
                        buchberger([chi_vec] + list(ann.generators)))


# -- freeness ------------------------------------------------------------------

def test_normal_crossing_free():
    dm = log_derivations(P("x*y", 2))
    verdict = saito_freeness_test(dm)
    assert verdict.status == "free"
    assert divide_exact(verdict.determinant, P("x*y", 2)).is_constant()


def test_plane_curves_free():
    for text in ("x^3 - y^2", "x*y*(x+y)", "x^4 + y^4", "x*(x-y)*(x+y)"):
        dm = log_derivations(P(text, 2))
        assert saito_freeness_test(dm).status == "free"


def test_f3_not_free():
    from logdiv.arrangements import generic_dn
    dm = log_derivations(generic_dn(3).f)
    verdict = saito_freeness_test(dm)
    assert verdict.status == "not free at 0"
    assert verdict.min_generators == 4


def test_freeness_inconclusive_for_nongraded():
    f = P("x^5 + y^5 + x^3*y^3 + x", 2)
    dm = log_derivations(f)
    assert saito_freeness_test(dm).status == "inconclusive"


def test_first_syzygies_are_computed_on_first_read(monkeypatch):
    calls = []
    real = groebner._basis

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_basis", counting)
    dm = log_derivations(P("x*y*z*(x+y+z)", 3))
    assert saito_freeness_test(dm).status == "not free at 0"
    # Der(log f) itself and the minimal generators' tagged basis; none
    # for the generators' own relations yet
    assert len(calls) == 2
    first = dm.first_syzygies
    assert len(calls) == 3
    assert dm.first_syzygies is first
    assert len(calls) == 3
    assert first == syzygies(dm.generators)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _general_position_planes(seed, count):
    """Product of ``count`` integer linear forms in x, y, z, every three of
    them independent."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        c = [rng.randint(-2, 2) for _ in range(3)]
        if (any(c) and all(any(_cross(a, c)) for a in forms) and
                all(sum(u * v for u, v in zip(_cross(a, b), c))
                    for a, b in combinations(forms, 2))):
            forms.append(c)
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    f = Polynomial.one(3)
    for a, b, c in forms:
        f = f * (a * x + b * y + c * z)
    return f


@pytest.mark.parametrize(
    "f", [generic_dn(n).f for n in (3, 4, 5)] +
    [_general_position_planes(seed, 5) for seed in range(3)] +
    [P("x*y*z*(x+y+z)", 4), P("x^5+y^3+z^2", 3), P("x*y*z*(x+y)*(y+z)", 3)],
    ids=["d3", "d4", "d5", "planes0", "planes1", "planes2", "xyz(x+y+z)-n4",
         "brieskorn", "nongeneric"])
def test_split_complement_membership_matches_module_equality(f):
    """A brute-force search is the oracle: drop each minimal generator in
    turn, test by module equality whether chi and the others span
    Der(log f) and by ``is_direct_sum`` whether the sum is direct.
    ``_split_complement``, which reads the lift of chi and the syzygies of
    the minimal generators instead, returns the first complement found.
    Membership of the dropped generator agrees with module equality."""
    dm = log_derivations(f)
    chi = euler_field(f)
    chi_vec = FreeModuleVector(chi.first_order_part())
    gens = dm.minimalized().generators
    full = buchberger(dm.generators)   # not the basis minimalized() seeds
    expected = None
    for drop in range(len(gens)):
        cand = gens[:drop] + gens[drop + 1:]
        span = buchberger([chi_vec] + cand)
        equal = gb_equal(span, full)
        assert in_submodule(gens[drop], span) == equal
        if (expected is None and equal and
                is_direct_sum(chi_vec, cand)):
            expected = cand
    comp = _split_complement(dm, chi)
    assert (comp and comp.generators) == expected


# -- determinants ---------------------------------------------------------------

def test_polynomiality_diagonal():
    n = 3
    fields = [unit_field(n, i, Polynomial.variable(n, i)) for i in range(n)]
    det = poly_det([list(v.components) for v in fields])
    assert det == P("x*y*z", 3)


def test_polynomiality_repeated_row():
    n = 2
    fields = [unit_field(n, 0), unit_field(n, 0)]
    assert poly_det([list(v.components) for v in fields]).is_zero()


def test_polynomiality_free_basis():
    dm = log_derivations(P("x^3 - y^2", 2))
    verdict = saito_freeness_test(dm)
    assert verdict.status == "free"
    assert not poly_det([list(v.components) for v in verdict.basis]).is_zero()
    assert divide_exact(verdict.determinant, P("x^3 - y^2", 2)).is_constant()


def test_polynomiality_wrong_count():
    with pytest.raises(ValueError):
        poly_det([list(unit_field(3, 0).components)])


# -- quasi-weights ---------------------------------------------------------------

def test_quasi_weights():
    assert quasi_weights(P("x^2+y^2", 2)) == (1, 1)
    assert quasi_weights(P("x^5+y^3+z^2", 3)) == (6, 10, 15)
    assert quasi_weights(P("x^2 + y^3 + y", 2)) is None
    assert quasi_weights(P("x*y", 3)) == (1, 1, 1)  # absent variable gets 1
