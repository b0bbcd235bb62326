"""The operator parser against the compose-everything parser it replaced,
and the work it does on normally ordered text."""

import json
import random
import time
from fractions import Fraction
from math import comb, perm

import pytest

from logdiv import grammar, weyl
from logdiv.grammar import ParseError, parse_operator, parse_polynomial
from logdiv.poly import Polynomial, format_int, format_polynomial, parse_int
from logdiv.weyl import WeylOperator, format_operator

from oracles import ComposeEverythingParser, rand_op
from oracles import tokenize as frozen_tokenize
from test_cli import invoke

FIXED = [
    "dx*x", "dx*x*dy*y^2", "(dx + y)*(x*dy)", "dy*x*dx*y", "dx^2*x^3",
    "(-2/3*dx)^3", "(x*dx)^4", "(dx + x)^3", "(x*dy + dx - y)^4",
    "(2*dx*dy)^5", "0^0", "dx^0", "x^0*dx", "0*dx", "dx - dx + 1",
    "-(-(x - dx))*-dy", "((x))*((dx))^2", "-dx^2*-x^2", "3/4*dx*2/3",
    "(1 + x)^2*dx - dx*(1 + x)^2", "dz*z*dz", "x1*dx1*x1", "dx2^3*x2^2",
]


def _atom(rng, n, derivatives):
    r = rng.random()
    if r < 0.25:
        return str(rng.randint(0, 5))
    if r < 0.35:
        return f"{rng.randint(0, 5)}/{rng.randint(1, 4)}"
    i = rng.randrange(n)
    name = rng.choice(["xyzw"[i], f"x{i + 1}"]) if n <= 4 else f"x{i + 1}"
    if derivatives and r < 0.65:
        name = "d" + name
    return name


def rand_expr(rng, n, depth, derivatives=True):
    """Random text of the grammar: sums, products in any order, powers,
    unary minus and nested parentheses."""
    if depth == 0 or rng.random() < 0.2:
        return _atom(rng, n, derivatives)

    def sub():
        return rand_expr(rng, n, depth - 1, derivatives)
    kind = rng.choice("+-*^(n")
    if kind in "+-":
        return f"{sub()} {kind} {sub()}"
    if kind == "*":
        return "*".join(sub() for _ in range(rng.randint(2, 3)))
    if kind == "^":
        return f"({sub()})^{rng.randint(0, 3)}"
    if kind == "(":
        return f"({sub()})"
    return f"-{sub()}"


def rand_product(rng, n):
    """Factors in any order: variables, derivatives, their powers and
    parenthesized sums, e.g. ``dx*x*(dy + y)^2*y``."""
    def factor():
        r = rng.random()
        if r < 0.6:
            return _atom(rng, n, True) + (f"^{rng.randint(0, 3)}"
                                          if r < 0.2 else "")
        body = f"{_atom(rng, n, True)} {rng.choice('+-')} {_atom(rng, n, True)}"
        return f"({body})^{rng.randint(0, 2)}" if r < 0.8 else f"({body})"
    return "*".join(factor() for _ in range(rng.randint(2, 5)))


def texts(seed):
    rng = random.Random(seed)
    out = [(t, 3) for t in FIXED]
    for _ in range(120):
        n = rng.randint(1, 5)
        out.append((format_operator(rand_op(rng, n, 3)), n))
    for _ in range(120):
        n = rng.randint(1, 3)
        out.append((rand_product(rng, n), n))
    for _ in range(120):
        n = rng.randint(1, 3)
        out.append((rand_expr(rng, n, 3), n))
    return out


def outcome(parse, text, n):
    try:
        return "ok", parse(text, n)
    except ParseError as err:
        return "error", str(err), err.line, err.col


def oracle(operator_mode):
    return lambda text, n: ComposeEverythingParser(
        text, n, operator_mode).parse()


def test_parser_matches_compose_everything_oracle():
    cases = texts(83)
    assert len(cases) >= 300
    for text, n in cases:
        got = parse_operator(text, n)
        assert type(got) is WeylOperator
        assert got == oracle(True)(text, n), text
    rng = random.Random(89)
    for _ in range(100):
        n = rng.randint(1, 3)
        text = rand_expr(rng, n, 3, derivatives=False)
        assert parse_polynomial(text, n) == oracle(False)(text, n), text


def _corrupt(rng, text):
    i = rng.randrange(len(text) + 1)
    r = rng.random()
    if r < 0.3:
        return text[:i]
    if r < 0.6:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice("+-*^/()#0dx\n ") + text[i:]


def test_parse_errors_match_oracle():
    rng = random.Random(97)
    malformed = ["", "x^", "x +", ")", "x/2", "1/0", "3/x", "x^-1", "x^y",
                 "(x", "x)", "#", "x\n+ *y", "x5", "dx", "dd", "2 3",
                 "(" * 3000 + "x" + ")" * 3000]
    malformed += [_corrupt(rng, text) for text, _ in texts(101)[:300]]
    errors = 0
    for text in malformed:
        try:
            n = min(grammar.infer_nvars(text), 3)
        except ParseError:  # an unexpected character
            n = 2
        for mode, parse in ((True, parse_operator),
                            (False, parse_polynomial)):
            new, old = outcome(parse, text, n), outcome(oracle(mode), text, n)
            assert new == old, (text, mode)
            errors += new[0] == "error"
    assert errors >= 300


# beside ASCII: whitespace other than a space ("\x1c" and NBSP too),
# characters that are alphanumeric but not letters (a \w run that the
# tokenizer refuses at its first character), a titlecase letter, and
# characters outside the grammar
TOKEN_ALPHABET = ["x", "y", "dx", "d", "x12", "0", "7", "+", "-", "*", "^",
                  "/", "(", ")", " ", "\n", "\t", "\r", "\x0b", "\x1c",
                  "\xa0", "\u00b2", "\u0663", "\u00bd", "\u01c5",
                  "\u216b", "_", "@"]


def tokens_or_error(tokenize, text):
    try:
        return "ok", tokenize(text)
    except ParseError as err:
        return "error", str(err), err.line, err.col


def test_tokenizer_matches_the_character_loop():
    rng = random.Random(211)
    cases = [text for text, _ in texts(83)]
    cases += ["".join(rng.choices(TOKEN_ALPHABET, k=rng.randint(0, 14)))
              for _ in range(4000)]
    errors = 0
    for text in cases:
        new = tokens_or_error(grammar._tokenize, text)
        assert new == tokens_or_error(frozen_tokenize, text), repr(text)
        errors += new[0] == "error"
    assert 1000 <= errors <= len(cases) - 1000


def test_leading_minus_matches_the_oracle():
    """A leading minus negates the first factor: -a*b parses as (-a)*b,
    which equals -(a*b) in value and in the position of an error."""
    rng = random.Random(223)
    cases = []
    for text, n in texts(227)[:200]:
        cases += [("-" + text, n), ("--" + text, n), (f"x*(-{text})", n),
                  ("-" + _corrupt(rng, text), n)]
    for _ in range(100):
        n = rng.randint(1, 3)
        cases.append(("-" + rand_expr(rng, n, 3, derivatives=False), n))
    errors = 0
    for text, n in cases:
        for mode, parse in ((True, parse_operator),
                            (False, parse_polynomial)):
            new, old = outcome(parse, text, n), outcome(oracle(mode), text, n)
            assert new == old, (text, mode)
            errors += new[0] == "error"
    assert 300 <= errors <= 2 * len(cases) - 300


@pytest.mark.parametrize("text", [
    "dx^1000000000*x^1000000000", "3^600000*3^600000*3^600000",
    "dx^3000*x^3000"])
def test_leading_minus_keeps_the_product_refusal(text):
    for parse in (parse_operator, parse_polynomial):
        if parse is parse_polynomial and "d" in text:
            continue
        with pytest.raises(ParseError) as plain:
            parse(text, 1)
        with pytest.raises(ParseError) as negated:
            parse("-" + text, 1)
        assert negated.value.args == (str(plain.value).replace(
            f"column {plain.value.col})", f"column {plain.value.col + 1})"),)


@pytest.fixture
def compose_calls(monkeypatch):
    """Count Weyl compositions, made by the parser or by operator powers."""
    calls = []

    def spy(real):
        def counted(P, Q):
            calls.append((P, Q))
            return real(P, Q)
        return counted
    monkeypatch.setattr(grammar, "compose", spy(grammar.compose))
    monkeypatch.setattr(weyl, "compose", spy(weyl.compose))
    return calls


def test_normally_ordered_text_parses_without_composition(compose_calls):
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(1, 4)
        A = rand_op(rng, n, 3)
        assert parse_operator(format_operator(A), n) == A
    assert parse_operator("dx^1000000000", 1).order() == 1000000000
    assert compose_calls == []
    assert parse_operator("dx*x", 1) == parse_operator("x*dx + 1", 1)
    assert len(compose_calls) == 1


# superscripts and non-ASCII decimal digits pass str.isdigit; int() rejects
# the first and reads the second as ASCII digits
NON_ASCII_DIGITS = [("x^²", 1, 1, 3), ("x²", 3, 1, 1),
                    ("x^٣", 1, 1, 3), ("x٣", 3, 1, 1),
                    ("1 +\n dx²", 3, 2, 2), ("x1٣", 3, 1, 1),
                    ("٣*x", 1, 1, 1)]


@pytest.mark.parametrize("text, n, line, col", NON_ASCII_DIGITS)
def test_non_ascii_digits_are_parse_errors(text, n, line, col):
    for parse in (parse_polynomial, parse_operator):
        with pytest.raises(ParseError) as err:
            parse(text, n)
        assert (err.value.line, err.value.col) == (line, col)


def test_infer_nvars_reads_ascii_indices_only():
    for text in ("x^²", "x^٣", "٣*x"):
        with pytest.raises(ParseError):
            grammar.infer_nvars(text)
    # a name such as x٣ is no variable, so it needs no larger ring
    assert grammar.infer_nvars("x²", "x٣", "dx1٣") == 1
    assert grammar.infer_nvars("x3", "dx12") == 12


def test_non_ascii_digits_are_cli_parse_errors():
    for text, _, line, col in NON_ASCII_DIGITS:
        code, out, err = invoke(["euler", text])
        assert code == 2 and out == "", text
        assert err.startswith("parse error:"), err
        assert f"(line {line}, column {col})" in err


# each estimate is far past a limit: bits per coefficient for the constant
# powers, work for the sums and the Weyl power
OVERSIZED_POWERS = [
    ("3^4000000", 1, "bits"), ("3^1000000000", 1, "bits"),
    ("(3*dx)^1000000000", 1, "bits"), ("(x + 1)^800", 1, "work"),
    ("((x + 1)^200)^4", 1, "work"), ("(x + y + z + 1)^1000", 3, "work"),
    ("(x*dx)^1000", 1, "work"), ("1 +\n (dx + x)^1000", 1, "work"),
    ("(x + 1)^" + "9" * 400, 1, "bits"), ("(x*dx)^" + "9" * 400, 1, "bits"),
]


@pytest.mark.parametrize("text, n, limit", OVERSIZED_POWERS)
def test_oversized_powers_are_refused_at_once(text, n, limit):
    for parse in (parse_operator, parse_polynomial):
        if parse is parse_polynomial and "d" in text:
            continue
        start = time.perf_counter()
        with pytest.raises(ParseError, match="power too large") as err:
            parse(text, n)
        assert time.perf_counter() - start < 1
        assert (f"bits per coefficient, the limit is {grammar.MAX_POWER_BITS}"
                if limit == "bits" else
                f"the limit is {grammar.MAX_POWER_WORK}") in str(err.value)
    argv = (["v0-member", "-f", "x", "-P", text, "-k", "0"] if "d" in text
            else ["euler", text])
    start = time.perf_counter()
    code, out, err = invoke(argv + ["-n", str(n)])
    assert code == 2 and out == "" and "power too large" in err
    assert time.perf_counter() - start < 1


def test_oversized_power_names_the_exponent():
    with pytest.raises(ParseError) as err:
        parse_operator("1 +\n (dx + x)^1000", 1)
    assert (err.value.line, err.value.col) == (2, 11)


@pytest.mark.parametrize("text, n", [
    ("x^1000000", 1), ("x*y^1000000", 2), ("-x^" + "9" * 400, 1),
    ("3^1000", 1), ("(x + 1)^100", 1),
    ("(x + y + z + 1)^12", 3), ("(x*dx)^20", 1), ("(x*dy + dx - y)^6", 2)])
def test_powers_within_the_limits_parse(text, n):
    start = time.perf_counter()
    op = parse_operator(text, n)
    assert time.perf_counter() - start < 1
    if "d" not in text:
        assert parse_polynomial(text, n) == op.terms[(0,) * n]
    base, k = text.rsplit("^", 1)
    if int(k) <= 100:
        assert op == oracle(True)(f"{base}^{k}", n)


# (text, n, (line, column) of the refused "*", the limit it passes, a
# factor parsed before the refusal).  Work: the coefficient pairs for the
# sums, the Leibniz terms for the Weyl products.  Bits: the coefficient
# lengths of the two operands add up, so a chain of powers within the bits
# limit is refused at its first "*" past it.  (x+y+z+1)^20 and (x+1)^400
# are powers within the limits that take 0.25-0.4 s each on a shared 2-CPU
# machine, so for those two texts the 1 s bound counts only the time past
# parsing the two factors of the refused product; every other text is held
# to 1 s in all.
WORK, BITS = grammar.MAX_POWER_WORK, grammar.MAX_POWER_BITS
OVERSIZED_PRODUCTS = [
    ("(x+y+z+1)^20*(x+y+z+1)^20", 3, (1, 13), WORK, "(x+y+z+1)^20"),
    ("(x+1)^400*(x+1)^400*(x+1)^400", 1, (1, 10), WORK, "(x+1)^400"),
    ("(x+y+z+w+1)^10*(x+y+z+w+1)^10", 4, (1, 15), WORK, None),
    ("dx^1000000000*x^1000000000", 1, (1, 14), BITS, None),
    ("1 +\n dx^3000*x^3000", 1, (2, 9), WORK, None),
    ("3^600000*3^600000*3^600000", 1, (1, 9), BITS, None),
    ("*".join(["3^600000"] * 6), 1, (1, 9), BITS, None),
    ("x*2^600000*(x+1)*2^600000", 1, (1, 17), BITS, None),
]


@pytest.mark.parametrize("text, n, where, limit, factor", OVERSIZED_PRODUCTS)
def test_oversized_products_are_refused_at_once(text, n, where, limit,
                                                factor):
    def factors_time(parse):
        if factor is None:
            return 0
        start = time.perf_counter()
        parse(factor, n)
        return 2 * (time.perf_counter() - start)

    for parse in (parse_operator, parse_polynomial):
        if parse is parse_polynomial and "d" in text:
            continue
        allowed = 1 + factors_time(parse)
        start = time.perf_counter()
        with pytest.raises(ParseError, match="product too large") as err:
            parse(text, n)
        assert time.perf_counter() - start < allowed
        assert f"the limit is {limit}" in str(err.value)
        assert (err.value.line, err.value.col) == where
    argv = (["v0-member", "-f", "x", "-P", text, "-k", "0"] if "d" in text
            else ["euler", text])
    allowed = 1 + factors_time(parse_polynomial)
    start = time.perf_counter()
    code, out, err = invoke(argv + ["-n", str(n)])
    assert code == 2 and out == "" and "product too large" in err
    assert time.perf_counter() - start < allowed


def test_long_weyl_product_parses_within_two_seconds():
    # d^n x^n = sum_j C(n, j) n!/(n - j)! x^(n - j) d^(n - j): 2,001 Leibniz
    # terms with coefficients of up to about 19,000 bits
    n = 2000
    start = time.perf_counter()
    op = parse_operator(f"dx^{n}*x^{n}", 1)
    assert time.perf_counter() - start < 2
    assert op.terms == {
        (n - j,): Polynomial.monomial(1, (n - j,)) * (comb(n, j) * perm(n, j))
        for j in range(n + 1)}


@pytest.mark.parametrize("text, n", [
    ("(x+1)^200*(x+1)^200", 1), ("dx^300*x^300", 1),
    ("(x+y+1)^6*(x*dx+y*dy+1)^3*(dx+dy)^4*(x-y)^5", 2)])
def test_products_within_the_limit_parse(text, n):
    start = time.perf_counter()
    op = parse_operator(text, n)
    assert time.perf_counter() - start < 1
    if "d" not in text:
        assert op == WeylOperator.from_polynomial(
            parse_polynomial("(x+1)^400", n))
        assert parse_polynomial(text, n) == op.terms[(0,) * n]
    else:
        assert op == oracle(True)(text, n)


# digits past the interpreter's default limit on int/str conversion (4300)
LONG = "7" * 5000


def test_integers_of_any_length_parse_and_print():
    big = parse_int(LONG)
    assert big == (10 ** 5000 - 1) // 9 * 7
    p = parse_polynomial(f"{LONG}*x - 1/{LONG}", 1)
    assert p.terms == {(1,): big, (0,): Fraction(-1, big)}
    assert parse_operator(f"{LONG}*x - 1/{LONG}", 1) == \
        WeylOperator.from_polynomial(p)
    f = parse_polynomial(f"{LONG}*x^{LONG} + 1/3*2^15000*y", 2)
    assert f.terms == {(big, 0): big, (0, 1): Fraction(2 ** 15000, 3)}
    assert parse_polynomial(format_polynomial(f), 2) == f
    op = parse_operator(f"{LONG}*dx^{LONG}", 1)
    assert op.terms == {(big,): parse_polynomial(LONG, 1)}
    assert parse_operator(format_operator(op), 1) == op
    assert grammar.infer_nvars(f"x{LONG}") == big


def test_format_int_matches_an_independent_conversion():
    """Digits checked against chunks of 500 from repeated division, which
    never converts more than 500 digits at once."""
    def chunked(n):
        out = []
        while n >= 10 ** 500:
            n, r = divmod(n, 10 ** 500)
            out.append(str(r).zfill(500))
        return str(n) + "".join(reversed(out))

    rng = random.Random(7)
    for bits in (1, 64, 1993, 1994, 14000, 16000, 60000, 200000):
        n = rng.getrandbits(bits) | (1 << (bits - 1))
        assert format_int(n) == chunked(n)
        assert parse_int(chunked(n)) == n
        assert format_int(-n) == "-" + chunked(n)
    for n in (10 ** 5000, 10 ** 5000 - 1, 10 ** 600, 10 ** 600 - 1):
        assert format_int(n) == chunked(n) and parse_int(chunked(n)) == n
    assert parse_int("0" * 5000 + "12") == 12


def test_cli_integers_of_any_length():
    start = time.perf_counter()
    code, out, err = invoke(["euler", "2^15000*x", "--json"])
    assert code == 0, err
    text = json.loads(out)["input"]["f"]
    assert len(text) == 4516 + 2
    assert parse_polynomial(text, 1) == parse_polynomial("2^15000*x", 1)
    code, out, err = invoke(["euler", f"{LONG}*x^{LONG}"])
    assert code == 0 and LONG in out, err
    code, out, err = invoke(["logder", f"x{LONG}"])
    assert code == 2 and out == ""
    assert err == (f"error: the ring would have {LONG} variables; at most "
                   "32 are supported\n")
    code, out, err = invoke(["logder", f"x{LONG}", "-n", "3"])
    assert code == 2 and "unknown variable" in err
    # f(0) != 0 answers at once, so the order is printed as it is
    code, out, err = invoke(["v0-member", "-f", "x+1", "-P", f"dx^{LONG}",
                             "--json"])
    assert code == 0 and json.loads(out, parse_int=parse_int)["order"] == \
        parse_int(LONG)
    code, out, err = invoke(["v0-member", "-f", "x+1", "-P", f"dx^{LONG}"])
    assert code == 0 and f"order: {LONG}\n" in out
    assert time.perf_counter() - start < 1


# -- sums in one term map, single-term products -----------------------------

@pytest.mark.parametrize("text, n", [
    ("x + y*dx + 3 - x", 2), ("x - 1 + dx*x - x*dx", 1),
    ("2/3*x + y - dy*y + dx - 2/3*x + y*dy", 2),
    ("(x + 1)^2 - x^2 + dx*(x - 1) - (y + dy)*x", 2)])
def test_sum_switching_to_operator_terms_matches_the_oracle(text, n):
    got = parse_operator(text, n)
    assert type(got) is WeylOperator
    assert got == oracle(True)(text, n)


@pytest.mark.parametrize("text, n", [
    ("x - x", 1), ("x + y - x - y", 2), ("2*x - x - x + 0", 1),
    ("1/2*x*y - 1/1*x*y + 1/2*y*x", 2), ("(x - y) - (x - y)", 2)])
def test_sums_cancelling_to_zero(text, n):
    assert parse_polynomial(text, n) == Polynomial.zero(n)
    assert parse_polynomial(text, n) == oracle(False)(text, n)
    assert parse_operator(text, n) == WeylOperator.zero(n)
    mixed = f"dx + {text} - dx + x*dx - dx*x + 1"
    assert parse_operator(mixed, n) == WeylOperator.zero(n)
    assert parse_operator(mixed, n) == oracle(True)(mixed, n)


def test_sum_of_two_thousand_terms():
    rng = random.Random(61)
    bits = []
    for i in range(2000):
        c = f"{rng.randint(1, 9)}/{rng.randint(1, 3)}"
        mono = f"x^{rng.randint(0, 4)}*y^{rng.randint(0, 4)}"
        d = rng.choice(["", "*dx", "*dy", "*dx*dy"])
        bits.append(f"{rng.choice('+-')} {c}*{mono}{d}")
    text = " ".join(bits)
    assert parse_operator(text, 2) == oracle(True)(text, 2)
    poly = text.replace("*dx", "").replace("*dy", "")
    assert parse_polynomial(poly, 2) == oracle(False)(poly, 2)


# one coefficient product of 2^20 = MAX_POWER_BITS bits passes: 2^524288
# has 524,289 numerator and 1 denominator bits, 524,288 less the 2 of
# ``_product_refusal``'s estimate
@pytest.mark.parametrize("text, exponent, mono", [
    ("2^524288*2^524288", 1048576, (0, 0)), ("1/2^524288*2^524288", 0, (0, 0)),
    ("x*2^524288*y*2^524288", 1048576, (1, 1))])
def test_single_term_product_at_the_bit_limit_parses(text, exponent, mono):
    assert grammar.MAX_POWER_BITS == 1 << 20
    for parse in (parse_polynomial, parse_operator):
        got = parse(text, 2)
        op = got if parse is parse_operator else \
            WeylOperator.from_polynomial(got)
        (beta, p), = op.terms.items()
        (m, c), = p.terms.items()
        assert (beta, m) == ((0, 0), mono)
        assert c == 2 ** exponent


# the refusal of one bit more, with the message and column of the general
# path
@pytest.mark.parametrize("text, col", [
    ("2^524288*2^524289", 9), ("x*2^524288*2^524289", 11),
    ("2^524289*x*2^524288", 11), ("(2^524288*x)*(2^524289*y)", 13)])
def test_single_term_product_past_the_bit_limit_is_refused(text, col):
    for parse in (parse_polynomial, parse_operator):
        with pytest.raises(ParseError) as err:
            parse(text, 2)
        assert str(err.value) == (
            "product too large: about 1.05e+06 bits per coefficient, the "
            f"limit is 1048576 (line 1, column {col})")
        assert (err.value.line, err.value.col) == (1, col)
