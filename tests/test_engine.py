"""The packed-term Groebner engine: packed keys against the orders' tuple
keys, slot-overflow restarts, and byte-exact CLI outputs.

The sha256 pins below were recorded with the tuple-key engine that the
packed one replaced; reduced bases are unique, so they must not move.
"""

import hashlib
import io
import random
from contextlib import redirect_stdout

import pytest

from logdiv import cli, criterion, groebner, logder
from logdiv.arrangements import generic_dn
from logdiv.grammar import parse_polynomial
from logdiv.groebner import (FreeModuleVector, buchberger, in_submodule,
                             is_groebner_basis, normal_form, syzygies)
from logdiv.poly import (DEGREVLEX, LEX, BlockElim, Polynomial, PotOrder,
                         SyzElimOrder, TopOrder, format_polynomial,
                         monomials_of_degree)

from oracles import (in_row_span, module_vec_to_row, rand_homog_poly,
                     rand_poly)


def P(s, n):
    return parse_polynomial(s, n)


def module_orders(nvars, rank):
    """One instance of every order class of ``poly`` (ring orders inside
    each module order)."""
    out = []
    for ring in (DEGREVLEX, LEX, BlockElim([0], nvars)):
        out += [TopOrder(ring), PotOrder(ring, ascending=True),
                PotOrder(ring, ascending=False), SyzElimOrder(1, ring)]
    out.append(TopOrder(DEGREVLEX, shifts=range(3, 3 - rank, -1)))
    return out


def _sign(a, b):
    return (a > b) - (a < b)


@pytest.mark.parametrize("nvars,rank", [(1, 1), (3, 1), (3, 3), (5, 2)])
def test_packed_keys_agree_with_tuple_keys(nvars, rank):
    rng = random.Random(nvars * 10 + rank)
    for order in module_orders(nvars, rank):
        eng = groebner._engine(order, nvars, rank, groebner.SLOT_BITS)
        top = (0, 1, 2, eng.emax - 1, eng.emax)

        def rand_term():
            return (rng.randrange(rank),
                    tuple(rng.choice(top) if rng.random() < 0.2 else
                          rng.randint(0, 4) for _ in range(nvars)))

        extremes = [(c, m) for c in range(rank)
                    for m in ((0,) * nvars, (eng.emax,) * nvars)]
        terms = extremes + [rand_term() for _ in range(60)]
        packed = [eng.term(c, m) for c, m in terms]
        for (s, ps) in zip(terms, packed):
            assert eng.exps(ps) == s[1]
            for (t, pt) in zip(terms, packed):
                assert _sign(ps, pt) == _sign(order.key(s), order.key(t)), order
                divides = s[0] == t[0] and all(map(int.__le__, s[1], t[1]))
                assert divides == (not (pt - ps) & eng.dmask)
        # key(t*u) = key(t) + key(u): the shift does not depend on the term
        for c, m in terms[:20]:
            u = tuple(rng.randint(0, 2) for _ in range(nvars))
            mu = tuple(a + b for a, b in zip(m, u))
            if max(mu) <= eng.emax:
                assert (eng.term(c, mu) - eng.term(c, m) ==
                        eng.term(0, u) - eng.term(0, (0,) * nvars))
        # a rational vector, the zero vector included, comes back from the
        # integer vector of den * v
        for _ in range(6):
            v = FreeModuleVector([rand_poly(rng, nvars, 4, zero_ok=True)
                                  for _ in range(rank)])
            vec, den = eng.encode(v)
            assert all(type(c) is int for c in vec.values())
            assert eng.decode(vec.items(), den) == v


def _homog_vector(rng, nvars, rank, deg):
    return FreeModuleVector([rand_homog_poly(rng, nvars, deg, max_terms=3)
                             for _ in range(rank)])


def _span_member(v, gens, nvars, rank, deg):
    """Brute force: is the degree-``deg`` vector v in the span of the
    monomial multiples of the homogeneous generators?"""
    index = {m: i for i, m in enumerate(monomials_of_degree(nvars, deg))}
    rows = []
    for g in gens:
        gdeg = max(p.degree() for p in g.components)
        for m in monomials_of_degree(nvars, deg - gdeg):
            rows.append(module_vec_to_row(
                g.scale(Polynomial.monomial(nvars, m)), rank, index))
    return in_row_span(rows, module_vec_to_row(v, rank, index),
                       rank * len(index))


@pytest.mark.parametrize("nvars,rank", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_bases_under_every_order_pass_both_oracles(nvars, rank):
    rng = random.Random(100 + 10 * nvars + rank)
    for trial in range(2):
        gens = [_homog_vector(rng, nvars, rank, rng.randint(1, 2))
                for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        targets = [_homog_vector(rng, nvars, rank, 3) for _ in range(4)]
        for g in gens[:2]:   # members: multiples of one generator
            gdeg = max(p.degree() for p in g.components)
            h = rand_homog_poly(rng, nvars, 3 - gdeg, max_terms=2)
            targets.append(g.scale(h))
        for order in module_orders(nvars, rank):
            gb = buchberger(gens, order)
            assert is_groebner_basis(gb.generators, order)
            for v in targets:
                if v.is_zero():
                    continue
                assert (in_submodule(v, gb) ==
                        _span_member(v, gens, nvars, rank, 3)), order


def _restarts(monkeypatch, slot):
    """Shrink the initial slot width; record the widths engines get."""
    seen = []
    make = groebner._engine

    def spy(order, nvars, rank, width):
        seen.append(width)
        return make(order, nvars, rank, width)

    monkeypatch.setattr(groebner, "SLOT_BITS", slot)
    monkeypatch.setattr(groebner, "_engine", spy)
    return seen


@pytest.mark.parametrize("slot", [2, 3])
def test_overflow_restart_gives_the_same_bases(monkeypatch, slot):
    n = 3
    ideal = [FreeModuleVector([P(t, n)])
             for t in ("x*y - z", "x*z - y", "y*z - x + y")]
    module = [FreeModuleVector([P(a, n), P(b, n)])
              for a, b in (("x", "y*z"), ("y", "x - z"), ("z", "x*y"))]
    lex = TopOrder(LEX)
    # multilinear inputs whose reduced lex basis holds x5^5: every run must
    # outgrow 2- and 3-bit slots, whichever pairs it treats
    chain = [FreeModuleVector([P(t, 5)])
             for t in ("x1 - x2*x3", "x2 - x3*x4", "x3 - x4*x5", "x4 - x5")]
    expected = [buchberger(ideal).generators, buchberger(ideal, lex).generators,
                buchberger(module).generators, syzygies(module),
                syzygies(ideal), buchberger(chain, lex).generators]
    assert expected[-1] == [FreeModuleVector([P(t, 5)]) for t in
                            ("x4 - x5", "x3 - x5^2", "x2 - x5^3", "x1 - x5^5")]
    big = FreeModuleVector([P("x^9*y^2 + z^11", n)])
    expected_nf = normal_form(big, buchberger(ideal))
    # x*y*z and y*z - x fit 2-bit slots, but the reduction makes x^2
    xyz, yz = (FreeModuleVector([P(t, n)]) for t in ("x*y*z", "y*z - x"))
    assert normal_form(xyz, buchberger([yz])) == FreeModuleVector([P("x^2", n)])

    seen = _restarts(monkeypatch, slot)
    got = [buchberger(ideal).generators, buchberger(ideal, lex).generators,
           buchberger(module).generators, syzygies(module), syzygies(ideal),
           buchberger(chain, lex).generators]
    assert got == expected
    assert max(seen) > slot           # the narrow slots did overflow
    gb = buchberger(ideal)
    assert normal_form(big, gb) == expected_nf   # input wider than the basis
    assert gb._packed[0].emax >= 11    # its reducers were rebuilt wider
    assert normal_form(xyz, buchberger([yz])) == FreeModuleVector([P("x^2", n)])


def _stdout_sha(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.run(argv + ["--json"]) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _dn(n):
    return format_polynomial(generic_dn(n).f)


PINS = [
    (3, "ann", "e0857cd5e9ab1f3210265486c3b7a51d8dee765b0f462e7ad715c7d0e8d6ca7f"),
    (3, "split", "9b363df9234cfa757e4a06b9661788cbb1e27d51cfa41bb8ea54d2a5030d7b0a"),
    (4, "ann", "4a6037cc7f034de5d7f4b34486510dac8b3e5bf5701eb1dba08ace487f867ff7"),
    (4, "split", "3887e15c2e1d1de42383ee0f8f0224deb4aa050d0eca34e0bae961c28bfec218"),
    (5, "split", "efeda6219975dd7813d802eb26bfb2006b529c470cb2a5bcb081a968b9ece7b2"),
]


@pytest.mark.parametrize("n,route,sha", PINS)
def test_criterion_json_is_pinned(n, route, sha):
    assert _stdout_sha(["criterion", _dn(n), "--route", route]) == sha


def test_symalg_quadric_json_is_pinned():
    assert (_stdout_sha(["symalg", "x^2+y^2+z^2+w^2", "--module", "ann",
                         "--symk", "2"]) ==
            "538a7b150725448615d2dece3190e36aad06267341f7530b5a06f57dd859d9b1")


@pytest.fixture
def der_calls(monkeypatch):
    """Counts the calls of each Der(log f) constructor from here on."""
    calls = {"syzygies": 0, "ann": 0}
    real = logder.log_derivations, logder.log_derivations_from_ann

    def counting(f):
        calls["syzygies"] += 1
        return real[0](f)

    def counting_from_ann(ann, chi):
        calls["ann"] += 1
        return real[1](ann, chi)

    monkeypatch.setattr(logder, "log_derivations", counting)
    monkeypatch.setattr(logder, "log_derivations_from_ann", counting_from_ann)
    return calls


def test_criterion_computes_log_derivations_once(der_calls):
    """Once per call, and on route both from the Ann(f) of the ann route."""
    for n in (3, 4):
        der_calls.update(syzygies=0, ann=0)
        cert = criterion.criterion_certificate(generic_dn(n).f, 0, route="both")
        assert len(cert["routes"]) == 2
        assert der_calls == {"syzygies": 0, "ann": 1}


@pytest.mark.parametrize("f, route, from_ann", [
    (generic_dn(4).f, "ann", True), (generic_dn(4).f, "split", False),
    (P("x^5+y^5+x^2*y^2", 2), "both", False)],
    ids=["d4-ann", "d4-split", "no-euler"])
def test_der_from_ann_needs_an_euler_field_and_the_ann_route(der_calls, f,
                                                            route, from_ann):
    criterion.criterion_certificate(f, 0, route=route)
    assert der_calls == ({"syzygies": 0, "ann": 1} if from_ann else
                         {"syzygies": 1, "ann": 0})
