"""Der(log f) = Ann(f) + O*chi for an Euler field chi (chi(f) = f): the
module built from Ann(f) equals the syzygy run of (d_1 f, .., d_n f, -f)
exactly, and the certificate that uses it is byte-identical."""

import json

import pytest

from logdiv import criterion, groebner, logder
from logdiv.arrangements import generic_dn
from logdiv.grammar import parse_polynomial
from logdiv.logder import (ann_theta, euler_field, log_derivations,
                           log_derivations_from_ann)

from oracles import planes
from test_logder import _general_position_planes


def P(s, n):
    return parse_polynomial(s, n)


DIVISORS = {
    **{f"d{n}": (lambda n=n: generic_dn(n).f) for n in (3, 4, 5)},
    "fermat3": lambda: P("x^3+y^3+z^3", 3),
    "quadric3": lambda: P("x^2+y^2+z^2", 3),
    # not homogeneous: euler_field lifts f onto its partials
    "brieskorn": lambda: P("x^5+y^3+z^2", 3),
    "quadric4": lambda: P("x^2+y^2+z^2+w^2", 4),
    "xyz(x+y+z)-n4": lambda: P("x*y*z*(x+y+z)", 4),
    **{f"planes{m}-{seed}": (lambda seed=seed, m=m:
                             _general_position_planes(seed, m))
       for m in (5, 6) for seed in range(10)},
    **{f"lines-{seed}": (lambda seed=seed: planes(seed, n=2, m=4))
       for seed in range(5)},
}


@pytest.mark.parametrize("name", sorted(DIVISORS))
def test_der_from_ann_equals_log_derivations(name):
    f = DIVISORS[name]()
    chi = euler_field(f)
    assert chi is not None
    expected = log_derivations(f)
    got = log_derivations_from_ann(ann_theta(f), chi)
    assert got.divisor == f
    assert got.generators == expected.generators
    assert got.cofactors == expected.cofactors


@pytest.mark.parametrize("name", ["d3", "d4", "brieskorn", "planes5-0",
                                  "lines-0"])
@pytest.mark.parametrize("route", ["both", "ann", "split"])
def test_certificate_is_byte_identical_to_log_derivations_throughout(
        monkeypatch, name, route):
    f = DIVISORS[name]()
    got = json.dumps(criterion.criterion_certificate(f, 0, route=route))
    monkeypatch.setattr(logder, "log_derivations_from_ann",
                        lambda ann, chi: log_derivations(ann.divisor))
    assert got == json.dumps(criterion.criterion_certificate(f, 0,
                                                             route=route))


@pytest.fixture
def s_vectors(monkeypatch):
    """Counts the S-vectors the engine forms from here on."""
    calls = []
    real = groebner._Engine.s_vector

    def spy(self, ri, rj, tl):
        calls.append(tl)
        return real(self, ri, rj, tl)

    monkeypatch.setattr(groebner._Engine, "s_vector", spy)
    return calls


# 221, 45, 45 and 43 when Der(log f) was a syzygy run of its own and the
# split complement took a tagged run of its own
@pytest.mark.parametrize("f, count", [
    (generic_dn(4).f, 207),
    (_general_position_planes(0, 5), 33),
    (_general_position_planes(1, 5), 31),
    (_general_position_planes(2, 5), 32)],
    ids=["d4", "planes0", "planes1", "planes2"])
def test_certificate_s_vector_count_is_pinned(s_vectors, f, count):
    for _ in range(2):
        s_vectors.clear()
        criterion.criterion_certificate(f, 0, route="both")
        assert len(s_vectors) == count
