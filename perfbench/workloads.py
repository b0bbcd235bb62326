"""The three workloads: job lists generated from a seed, and the checks
of each job's output.

A job is a callable that returns a deterministic string (the CLI's exit
code and JSON, or a canonical rendering of a library result); the runner
times it and hashes the string.  Checks run after the timed region.  They
compare paper cases with the values the paper states, and cross-check
generated inputs by a second route through the library.

Library functions are always looked up through their module at call time
(``logdiv.vfilt.v_member``, not a name bound at import), so the tracer's
rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from itertools import combinations

import logdiv
from logdiv import (arrangements, cli, grammar, groebner, logder, symalg,
                    vfilt, weyl)
from logdiv.poly import format_polynomial
from logdiv.weyl import format_operator

VARS = "xyzw"


class Job:
    __slots__ = ("id", "run", "check")

    def __init__(self, job_id, run, check):
        self.id = job_id
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _cli(argv):
    """Run the CLI in-process with stdout captured; returns exit code and
    JSON text."""
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv + ["--json"])
        return f"{rc}\n{buf.getvalue()}"
    return run


def _json(out):
    rc, _, body = out.partition("\n")
    if rc != "0":
        raise ValueError(f"exit code {rc}")
    return json.loads(body)


def _rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            t = rows[r][col] / rows[rank][col]
            rows[r] = [a - t * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _linear_forms(rng, n, m, bound):
    """m integer linear forms in n variables with coefficients in
    [-bound, bound], in general position (every n of them independent), as
    a product.  General position fixes the combinatorial type, so the work
    per job varies little across seeds."""
    forms, rejected = [], 0
    while len(forms) < m:
        if rejected > 1000:        # a dead end: start over
            forms, rejected = [], 0
        c = [rng.randint(-bound, bound) for _ in range(n)]
        k = min(len(forms), n - 1)
        if all(_rank([c, *rest]) == k + 1
               for rest in combinations(forms, k)):
            forms.append(c)
        else:
            rejected += 1
    return "*".join(
        "(" + "+".join(f"({a})*{VARS[i]}" for i, a in enumerate(c) if a) + ")"
        for c in forms)


def _parse_ops(texts, n):
    return [grammar.parse_operator(t, n) for t in texts]


# ---------------------------------------------------------------------------
# certify: the vector-field generation certificate and its pieces
# ---------------------------------------------------------------------------

def _verdict_is(expected):
    return lambda out: _json(out)["verdict"] == expected


def _witness_vars(witnesses):
    return sorted(w["variable"] for w in witnesses)


def _check_d4(out):
    (route,) = _json(out)["routes"]
    return (_json(out)["verdict"] == "refuted-with-witness" and
            _witness_vars(route["torsion_witnesses"]) == [0, 1, 2, 3])


def _check_quadric(out):
    data = _json(out)
    return (not data["pi_injective"] and
            _witness_vars(data["torsion"]["witnesses"]) == [0, 1, 2, 3])


def _check_random_criterion(f_text, n):
    """Cross-check a certificate by a second route: the Euler field is
    applied to f directly, and each torsion witness of the ann route is
    verified by multiplying it into the relation module of Sym^k."""
    def check(out):
        cert = _json(out)
        f = grammar.parse_polynomial(f_text, n)
        if cert["input"]["f"] != format_polynomial(f):
            return False
        chi = grammar.parse_operator(cert["euler"], n)
        if weyl.apply_op(chi, f) != f:
            return False
        verdict = cert["verdict"]
        if verdict == "certified" and not cert["certified"]:
            return False
        if verdict == "refuted-with-witness" and not cert["torsion_witnesses"]:
            return False
        ann = [r for r in cert["routes"] if r["route"] == "ann"]
        if not ann or not ann[0]["torsion_witnesses"]:
            return True
        sp = symalg.sym_presentation(logder.ann_theta(f))
        rel_gbs = {}
        for w in ann[0]["torsion_witnesses"]:
            k = w["k"]
            if k not in rel_gbs:
                _, rel_vecs, _ = symalg.symk_module(sp, k)
                rel_gbs[k] = groebner.buchberger(rel_vecs)
            comps = [grammar.parse_polynomial(p, n) for p in w["element"]]
            xi = logdiv.Polynomial.variable(n, w["variable"])
            v = groebner.FreeModuleVector(comps)
            xv = groebner.FreeModuleVector([xi * p for p in comps])
            if (groebner.in_submodule(v, rel_gbs[k]) or
                    not groebner.in_submodule(xv, rel_gbs[k])):
                return False
        return True
    return check


def certify_jobs(rng):
    dn = {n: format_polynomial(arrangements.generic_dn(n).f) for n in (3, 4, 5)}
    jobs = []
    for n in (3, 4):
        for route in ("ann", "split"):
            jobs.append(Job(f"d{n}-{route}",
                            _cli(["criterion", dn[n], "--route", route]),
                            _verdict_is("certified") if n == 3 else _check_d4))
    jobs.append(Job("d5-split", _cli(["criterion", dn[5], "--route", "split"]),
                    _verdict_is("refuted-with-witness")))
    for text in ("x^3+y^3+z^3", "x^2+y^2+z^2", "x^5+y^3+z^2"):
        jobs.append(Job(f"surface:{text}", _cli(["criterion", text]),
                        _verdict_is("certified")))
    jobs.append(Job("quadric-c4-sym2",
                    _cli(["symalg", "x^2+y^2+z^2+w^2", "--module", "ann",
                          "--symk", "2"]), _check_quadric))
    for n in (3, 4, 5):
        for check in ("lemma19", "prop17"):
            jobs.append(Job(
                f"dn{n}-{check}",
                _cli(["arrangement", "dn", "--n", str(n), "--check", check]),
                lambda out, c=check: _json(out)[c] is True))
    # About 100 jobs, so that job_p90_s has ten jobs above it.  The counts
    # put the median job inside the five-plane cluster and the 90th
    # percentile inside the six-plane one, so the percentiles are order
    # statistics of many draws of one kind, not the edge between kinds.
    # General position keeps the work per job close across seeds.  Six
    # planes in C^4 are left out: their ann route has a heavy tail.
    for count, n, m in ((10, 3, 4), (60, 3, 5), (12, 3, 6), (3, 4, 5)):
        for i in range(count):
            text = _linear_forms(rng, n, m, 2)
            jobs.append(Job(f"planes{n}-m{m}-{i}", _cli(["criterion", text]),
                            _check_random_criterion(text, n)))
    return jobs


# ---------------------------------------------------------------------------
# vpieces: graded pieces of V_0 and V_k
# ---------------------------------------------------------------------------

def _members(ops, f, k, n):
    return all(vfilt.v_member(f, op, k) for op in _parse_ops(ops, n))


def _check_quintic_compare(f_text, w):
    def check(out):
        (piece,) = _json(out)["pieces"]
        f = grammar.parse_polynomial(f_text, 3)
        if piece["dim_generated"] > piece["dim_v0"]:
            return False
        if w != 3:
            return piece["equal"] and "witness" not in piece
        # example 16: the only gap at order two sits at weight three, and
        # its witness is a genuine member of V_0
        return (not piece["equal"] and
                _members([piece["witness"]], f, 0, 3))
    return check


def _check_free_compare(out):
    (piece,) = _json(out)["pieces"]
    return (piece["equal"] and "witness" not in piece and
            piece["dim_v0"] == piece["dim_generated"])


def _check_basis(f_text, n, k):
    """Every piece has as many basis elements as its dimension, and its
    first and last basis elements pass the pointwise membership test."""
    def check(out):
        data = _json(out)
        f = grammar.parse_polynomial(f_text, n)
        pieces = data.get("pieces", [data])
        for piece in pieces:
            basis = piece["basis"]
            if piece["dim"] != len(basis):
                return False
            if basis and not _members([basis[0], basis[-1]], f, k, n):
                return False
        return True
    return check


def vpieces_jobs(rng):
    arrangement, _ = arrangements.example9_objects()
    quintic = format_polynomial(arrangement.f)
    jobs = []
    for w in range(-2, 6):
        jobs.append(Job(f"quintic-d2-w{w}",
                        _cli(["v0-basis", "-f", quintic, "-d", "2", "-w",
                              str(w), "--compare"]),
                        _check_quintic_compare(quintic, w)))
    jobs.append(Job("quintic-d3-w1",
                    _cli(["v0-basis", "-f", quintic, "-d", "3", "-w", "1"]),
                    _check_basis(quintic, 3, 0)))
    jobs.append(Job("quintic-vk1-d2-w3",
                    _cli(["vk-basis", "-f", quintic, "-k", "1", "-d", "2",
                          "-w", "3"]),
                    _check_basis(quintic, 3, 1)))
    # Random plane curves (four lines), each at a fixed schedule of pieces,
    # for about 100 jobs in all.  Line arrangements are free and locally
    # quasi-homogeneous, so their order-2 pieces must equal the generated
    # ones.
    for i in range(13):
        text = _linear_forms(rng, 2, 4, 3)
        for w in (1, 3, 5, 7):
            jobs.append(Job(f"lines{i}-d3-w{w}",
                            _cli(["v0-basis", "-f", text, "-d", "3",
                                  "-w", str(w)]),
                            _check_basis(text, 2, 0)))
        for w in (2, 4):
            jobs.append(Job(f"lines{i}-d2-w{w}-compare",
                            _cli(["v0-basis", "-f", text, "-d", "2", "-w",
                                  str(w), "--compare"]),
                            _check_free_compare))
        jobs.append(Job(f"lines{i}-vk1-d3-w3",
                        _cli(["vk-basis", "-f", text, "-k", "1", "-d", "3",
                              "-w", "3"]),
                        _check_basis(text, 2, 1)))
    return jobs


# ---------------------------------------------------------------------------
# queries: many small library calls against a pool of small divisors
# ---------------------------------------------------------------------------

# Two homogeneous and two non-homogeneous divisors in each of two and three
# variables.
SHAPES = [
    ("x*y*(x+({a})*y)", 2),
    ("x*y*(x+({a})*y)*(x+({b})*y)", 2),
    ("x*y*z*(x+({a})*y+({b})*z)", 3),
    ("x^2+({a})*y^2+({b})*z^2", 3),
    ("y^2+({a})*x^3", 2),
    ("y^2-x^2+({a})*x^3", 2),
    ("x*y+z^2+({a})*z^3", 3),
    ("x^2+y^3+({a})*z^2+x*y*z", 3),
]

PIECES = [(1, 0), (1, 1), (2, 0), (2, 1)]


class Divisor:
    """One pool entry with what the client prepares once per divisor."""

    def __init__(self, text, n):
        self.n = n
        self.text = text
        self.f = grammar.parse_polynomial(text, n)
        self.homogeneous = self.f.is_homogeneous()
        self.dm = logder.log_derivations(self.f)
        try:
            fields = self.dm.minimalized().operators()
        except ValueError:
            fields = self.dm.operators()
        self.fields = fields
        self.pieces = {}
        if self.homogeneous:
            for d, w in PIECES:
                self.pieces[(d, w)] = vfilt.v0_graded_basis(self.f, d, w)


def _pool(rng):
    """The seed draws the signs of the coefficients a = +-2 and b = +-3;
    their sizes stay fixed, and with them the cost of each divisor."""
    return [Divisor(shape.format(a=rng.choice((-2, 2)),
                                 b=rng.choice((-3, 3))), n)
            for shape, n in SHAPES]


def _monomial_text(alpha, beta):
    parts = []
    for i, e in enumerate(alpha):
        if e:
            parts.append(VARS[i] if e == 1 else f"{VARS[i]}^{e}")
    for i, e in enumerate(beta):
        if e:
            parts.append(f"d{VARS[i]}" if e == 1 else f"d{VARS[i]}^{e}")
    return "*".join(parts) or "1"


def _exponents(n, deg, rng):
    e = [0] * n
    for _ in range(deg):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _random_box_op(rng, n, d, w):
    """A random operator of order <= d and weight exactly w, as text."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        bdeg = rng.randint(0, d)
        adeg = w + bdeg
        if adeg < 0:
            adeg, bdeg = 0, -w
        c = rng.choice([-2, -1, 1, 2, 3])
        terms.append(f"({c})*" + _monomial_text(_exponents(n, adeg, rng),
                                                _exponents(n, bdeg, rng)))
    return "+".join(terms)


def _field_word(rng, div):
    """x^gamma * theta_i (* theta_j): a member of V_0 by construction."""
    n = div.n
    op = div.fields[rng.randrange(len(div.fields))]
    if rng.random() < 0.5:
        op = weyl.compose(op, div.fields[rng.randrange(len(div.fields))])
    gamma = _exponents(n, rng.randint(0, 1), rng)
    return op.left_mul(logdiv.Polynomial.monomial(n, gamma))


def _piece_member(rng, piece):
    """A random combination of two basis elements of a prebuilt piece."""
    ops = [rng.choice(piece.basis) for _ in range(2)]
    c = rng.choice([1, 2, -3])
    return ops[0] + ops[1].scale(c)


def _render(value):
    if isinstance(value, logdiv.WeylOperator):
        return format_operator(value)
    if isinstance(value, logdiv.Polynomial):
        return format_polynomial(value)
    return repr(value)


def _query(rng, div, kind):
    """One query of ``kind`` against ``div``: (run, check)."""
    n, f = div.n, div.f
    if kind == "parse_polynomial":
        text = format_polynomial(f * f) if rng.random() < 0.5 else div.text

        def run():
            return _render(logdiv.grammar.parse_polynomial(text, n))

        def check(out):
            return grammar.parse_polynomial(out, n) == \
                grammar.parse_polynomial(text, n)
        return run, check
    if kind == "parse_operator":
        text = format_operator(_field_word(rng, div))

        def run():
            return _render(logdiv.grammar.parse_operator(text, n))

        def check(out):
            return out == text
        return run, check
    if kind == "v_member":
        if rng.random() < 0.5:
            P = _field_word(rng, div)
            expected = True
        else:
            d, w = rng.choice(PIECES)
            P = grammar.parse_operator(_random_box_op(rng, n, d, w), n)
            expected = None
        piece = div.pieces.get((P.order(), P.weight())) if div.pieces else None

        def run():
            return _render(logdiv.vfilt.v_member(f, P, 0))

        def check(out):
            got = out == "True"
            if expected is not None and got != expected:
                return False
            return piece is None or piece.contains(P) == got
        return run, check
    if kind == "contains":
        key = rng.choice(sorted(div.pieces))
        piece = div.pieces[key]
        if piece.basis and rng.random() < 0.5:
            P = _piece_member(rng, piece)
        else:
            P = grammar.parse_operator(_random_box_op(rng, n, *key), n)

        def run():
            return _render(piece.contains(P))

        def check(out):
            return (out == "True") == vfilt.v_member(f, P, 0)
        return run, check
    if kind == "log_derivations":
        def run():
            dm = logdiv.logder.log_derivations(f)
            return "\n".join(_render(op) for op in dm.operators())

        def check(out):
            ops = _parse_ops(out.split("\n"), n)
            return len(ops) >= n and all(
                logdiv.divide_exact(weyl.apply_op(op, f), f) is not None
                for op in ops)
        return run, check
    if kind == "euler_field":
        def run():
            return _render(logdiv.logder.euler_field(f))

        def check(out):
            if out == "None":
                return not div.homogeneous
            return weyl.apply_op(grammar.parse_operator(out, n), f) == f
        return run, check
    dm = div.dm

    def run():
        verdict = logdiv.logder.saito_freeness_test(dm)
        det = verdict.determinant
        return f"{verdict.status} {_render(det) if det is not None else ''}"

    def check(out):
        status, _, det = out.partition(" ")
        if status != "free":
            # reduced plane curves are always free (Saito)
            return n == 3 or logder.quasi_weights(f) is None
        q = logdiv.divide_exact(grammar.parse_polynomial(det, n), f)
        return q is not None and q.is_constant() and not q.is_zero()
    return run, check


# Queries per divisor and kind.  A fixed schedule, with only the operands
# drawn from the seed, keeps the mix of cheap and dear calls the same
# across seeds; "contains" needs graded pieces, so homogeneous divisors only.
SCHEDULE = {"parse_polynomial": 10, "parse_operator": 10, "v_member": 24,
            "contains": 24, "log_derivations": 6, "euler_field": 6,
            "saito_freeness_test": 6}


def queries_jobs(rng):
    pool = _pool(rng)
    slots = [(j, kind) for j, div in enumerate(pool)
             for kind, count in SCHEDULE.items()
             if div.pieces or kind != "contains" for _ in range(count)]
    rng.shuffle(slots)
    jobs = []
    for i, (j, kind) in enumerate(slots):
        run, check = _query(rng, pool[j], kind)
        jobs.append(Job(f"q{i:03d}-f{j}-{kind}", run, check))
    return jobs


WORKLOADS = {
    "certify": certify_jobs,
    "vpieces": vpieces_jobs,
    "queries": queries_jobs,
}

# Jobs run by the smoke test: the cheapest few of each workload.
SMOKE = {
    "certify": {"d3-ann", "surface:x^2+y^2+z^2", "dn3-lemma19", "planes3-m4-0"},
    "vpieces": {"quintic-d2-w-2", "quintic-d2-w0", "lines0-d3-w1",
                "lines0-d2-w2-compare", "lines0-vk1-d3-w3"},
    "queries": None,
}
