"""``compare_v0`` decides equal pieces by a rank modulo one prime and one
exact product, and only a gap builds the canonical bases.

Every test compares the certified path with the exact one it skips: with
``linalg.span_is_kernel`` answering None, ``compare_v0`` builds the rref of
the V_0 piece and of the generated piece and compares them, as it did for
every piece before the certificate.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from logdiv import linalg, vfilt
from logdiv.arrangements import example9_objects, generic_dn
from logdiv.grammar import parse_polynomial
from logdiv.logder import log_derivations
from logdiv.poly import Polynomial
from logdiv.vfilt import OperatorCoordinates, compare_v0, default_weight_range
from logdiv.weyl import WeylOperator

from oracles import BRUTE_MAX_COLS, brute_v0_dimension


def _four_lines(seed):
    slopes = random.Random(seed).sample(range(-5, 6), 4)
    return parse_polynomial("*".join(f"(x + ({a})*y)" for a in slopes), 2)


def _half_node():
    """x*y*(x + y/2): the grammar has no '/', so build it term by term."""
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return x * y * (x + y * Fraction(1, 2))


@lru_cache(maxsize=None)
def divisor(name):
    if name == "quintic":
        return example9_objects()[0].f
    if name == "d3":
        return generic_dn(3).f
    if name.startswith("lines"):
        return _four_lines(int(name[5:]))
    if name == "half":
        return _half_node()
    return parse_polynomial("x^2", 1)


@lru_cache(maxsize=None)
def module(name):
    return log_derivations(divisor(name))


def _pieces():
    cases = [("quintic", 2, w)
             for w in default_weight_range(divisor("quintic"), 2)]
    cases.append(("quintic", 3, 1))
    for name, orders in (("d3", (0, 1, 2)), ("lines3", (2, 3)),
                         ("lines8", (2, 3)), ("lines13", (2, 3)),
                         ("half", (0, 1, 2, 3)), ("x2", (0, 1, 2, 3))):
        cases += [(name, d, w) for d in orders
                  for w in default_weight_range(divisor(name), d)]
    return [pytest.param(name, d, w, id=f"{name}-d{d}-w{w}")
            for name, d, w in cases]


def _exact(monkeypatch, name, d, w):
    with monkeypatch.context() as m:
        m.setattr(linalg, "span_is_kernel", lambda *args: None)
        return compare_v0(divisor(name), d, w, module(name))


def _spy(monkeypatch):
    """Counts of the calls that build the canonical V_0 piece."""
    calls = {"_condition_kernel": 0, "kernel_basis": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapped)

    counting(vfilt, "_condition_kernel")
    counting(linalg, "kernel_basis")
    return calls


@pytest.mark.parametrize("name, d, w", _pieces())
def test_certified_path_equals_exact_path(monkeypatch, name, d, w):
    calls = _spy(monkeypatch)
    fast = compare_v0(divisor(name), d, w, module(name))
    built = dict(calls)
    assert fast == _exact(monkeypatch, name, d, w)
    # only the gap builds the V_0 kernel, once
    gap = (name, d, w) == ("quintic", 2, 3)
    assert fast.equal is not gap
    assert built == ({"_condition_kernel": 1, "kernel_basis": 1} if gap else
                     {"_condition_kernel": 0, "kernel_basis": 0})
    if len(OperatorCoordinates(divisor(name).nvars, d, w)) <= BRUTE_MAX_COLS:
        assert fast.dim_v0 == brute_v0_dimension(divisor(name), d, w)


def test_gap_witness_is_unchanged():
    cmp = compare_v0(divisor("quintic"), 2, 3, module("quintic"))
    assert (cmp.dim_v0, cmp.dim_generated, cmp.equal) == (51, 50, False)
    assert vfilt.v_membership(divisor("quintic"), cmp.witness, 0)
    assert not vfilt.logder_generated_graded(
        divisor("quintic"), 2, 3, module("quintic")).contains(cmp.witness)


def test_tiny_prime_falls_back_to_equal_outputs(monkeypatch):
    f, dm = divisor("quintic"), module("quintic")
    weights = range(-2, 4)
    expected = [compare_v0(f, 2, w, dm) for w in weights]
    calls = _spy(monkeypatch)
    monkeypatch.setattr(linalg, "PRIMES", (3,))
    assert [compare_v0(f, 2, w, dm) for w in weights] == expected
    # modulo 3 the rank certifies w <= 0 and falls short from w = 1 on,
    # on the equal pieces w = 1, 2 and on the gap
    assert calls["_condition_kernel"] == 3


class _Fields:
    """Stands in for Der(log f): the given fields, taken as minimal."""

    def __init__(self, fields, weights):
        self.fields = fields
        self.grading = (None, weights)

    def minimalized(self):
        return self

    def operators(self):
        return self.fields


@pytest.mark.parametrize("scale", [1, "prime"])
def test_non_logarithmic_field_escapes(scale):
    """x*dy is not logarithmic for x*y*(x + y).  Added to the Euler field
    as chi + p*x*dy, p = PRIMES[0], it agrees with chi modulo p, so only
    the exact product over every generated vector can see it."""
    f = parse_polynomial("x*y*(x+y)", 2)
    minimal = log_derivations(f).minimalized()
    chi = WeylOperator.vector_field([Polynomial.variable(2, 0),
                                     Polynomial.variable(2, 1)])
    bad = WeylOperator.vector_field([Polynomial.zero(2),
                                     Polynomial.variable(2, 0)])
    if scale == "prime":
        bad = chi + bad.left_mul(Polynomial.constant(2, linalg.PRIMES[0]))
    dm = _Fields(minimal.operators() + [bad], minimal.grading[1] + [0])
    for d, w in ((1, 0), (2, 1)):
        with pytest.raises(AssertionError,
                           match="generated subalgebra escaped V_0"):
            compare_v0(f, d, w, dm)
