"""ASCII grammar for polynomials and differential operators.

Variables are ``x1..xN`` (aliases ``x,y,z,w`` when N <= 4), derivatives are
``dx1..dxN`` (aliases ``dx,dy,dz,dw``); literals are integers or integer
fractions like ``3/4``; the operators are ``+ - * ^`` with parentheses.
In operator mode ``*`` is still composition in the Weyl algebra, so parsed
input comes out normally ordered, but values stay polynomials until a
derivative appears: a coefficient such as ``(x*y + 1)*dx`` is multiplied
out as a polynomial, and the Leibniz rule runs only where a derivative
stands left of a nonconstant coefficient (``dx*x``).  A sum adds its
terms into one term map, and a product of two single-term polynomials
(``3*x``, ``x*y``) is one coefficient product and one exponent add.  The
parser round-trips the printers in ``poly`` and ``weyl``.

A product ``a*b`` is refused with a ``ParseError`` when its estimated
coefficient length or work, taken from its two operands, exceeds
``MAX_POWER_BITS`` or ``MAX_POWER_WORK`` (``_product_refusal``).  A power
``p^k`` is the products it performs: a power of one term c*x^a or c*d^b,
c constant, such as ``x^1000000``, ``3^1000`` or ``dx^1000000000``, is
one step, refused when k*log2 of c's numerator and denominator exceeds
``MAX_POWER_BITS``; any other power squares and multiplies
(``poly.power``), and each of its products is judged as a ``*`` is, so
the first one past a limit refuses the power at its exponent.  Literals,
exponents and variable indices may have any number of digits.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import log2, prod

from .poly import Polynomial, mono_mul, parse_int, power
from .weyl import WeylOperator, compose


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_OPS = set("+-*^/()")

# one match per token, whitespace run or newline; a \w run that starts with
# a letter is a name (\w is isalnum() or '_', \s is isspace()), and any
# other first character is refused at its column
_TOKEN = re.compile(r"\n|[^\S\n]+|[-+*^/()]|[0-9]+|\w+|.", re.S)

MAX_POWER_BITS = 1 << 20
"""Largest estimated bit length of a coefficient of a product, or of a
power of one term."""

MAX_POWER_WORK = 1 << 18
"""Largest estimated work of one product, written or made by a power: its
coefficient products, weighted by coefficient length and, in the Weyl
algebra, by the Leibniz terms of a term product (``_product_refusal``).
At the limit a product, or a power whose last product is at it, takes
about a second."""


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    for tok in _TOKEN.findall(text):
        ch = tok[0]
        if ch in _OPS:
            tokens.append((ch, ch, line, col))
        elif ch.isalpha():
            tokens.append(("NAME", tok, line, col))
        elif "0" <= ch <= "9":
            tokens.append(("INT", tok, line, col))
        elif ch == "\n":
            line, col = line + 1, 1
            continue
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", line, col)
        col += len(tok)
    tokens.append(("EOF", "", line, col))
    return tokens


_ALIAS_INDEX = {"x": 0, "y": 1, "z": 2, "w": 3}


def _is_index(text):
    """ASCII digits only: str.isdigit also takes '²' and '٣'."""
    return text.isascii() and text.isdigit()


def _resolve_name(name, nvars, allow_d, line, col):
    """Return ('var'|'dvar', index)."""
    kind = "var"
    body = name
    if name.startswith("d") and len(name) > 1:
        if allow_d:
            kind, body = "dvar", name[1:]
        # fall through: in polynomial mode 'dx' is just an unknown name
    idx = None
    if body in _ALIAS_INDEX and nvars <= 4:
        idx = _ALIAS_INDEX[body]
    elif body.startswith("x") and _is_index(body[1:]):
        idx = parse_int(body[1:]) - 1
    if kind == "var" and idx is None and allow_d is False and name.startswith("d"):
        raise ParseError(f"unknown variable {name!r} (derivatives are not "
                         "allowed in a polynomial)", line, col)
    if idx is None or not 0 <= idx < nvars:
        raise ParseError(f"unknown variable {name!r} in a ring with "
                         f"{nvars} variable(s)", line, col)
    return kind, idx


def infer_nvars(*texts):
    """Smallest ring dimension accommodating every variable mentioned."""
    n = 1
    for text in texts:
        for kind, value, _, _ in _tokenize(text or ""):
            if kind != "NAME":
                continue
            body = value[1:] if value.startswith("d") and len(value) > 1 else value
            if body in _ALIAS_INDEX:
                n = max(n, _ALIAS_INDEX[body] + 1)
            elif body.startswith("x") and _is_index(body[1:]):
                n = max(n, parse_int(body[1:]))
    return n


def _lift(value):
    if isinstance(value, Polynomial):
        return WeylOperator.from_polynomial(value)
    return value


def _mul(a, b, tok):
    """Weyl product of two parsed values, each a polynomial or an operator;
    a ``ParseError`` at ``tok`` if ``_product_refusal`` refuses it, a
    "product" at a ``*`` token and a "power" at an exponent."""
    if (isinstance(a, Polynomial) and isinstance(b, Polynomial) and
            len(a.terms) == 1 == len(b.terms)):
        # one coefficient product: its work is within the limit, its bits
        # may not be
        (ma, ca), = a.terms.items()
        (mb, cb), = b.terms.items()
        if _bits(ca) + _bits(cb) <= MAX_POWER_BITS:
            return Polynomial(a.nvars, {mono_mul(ma, mb): ca * cb},
                              _clean=False)
    if isinstance(a, Polynomial):
        leibniz = False
    else:
        b = _lift(b)
        leibniz = not all(q.is_constant() for q in b.terms.values())
    refusal = _product_refusal(a, b, leibniz)
    if refusal:
        noun = "product" if tok[0] == "*" else "power"
        raise ParseError(f"{noun} too large: {refusal}", tok[2], tok[3])
    if isinstance(a, Polynomial):
        return a * b if isinstance(b, Polynomial) else b.left_mul(a)
    return compose(a, b) if leibniz else a.right_mul(b)


def _coefficients(value):
    """The coefficients of a polynomial or an operator."""
    if isinstance(value, Polynomial):
        return value.terms.values()
    return [c for p in value.terms.values() for c in p.terms.values()]


def _bits(c):
    """The bit lengths of a coefficient's numerator and denominator, less
    2: about log2 of both together."""
    return c.numerator.bit_length() + c.denominator.bit_length() - 2


def _product_refusal(a, b, leibniz):
    """Why a*b is refused, or None, judged from the operands before
    anything is multiplied.  A coefficient of a*b has about bits =
    log2|c_a| + log2|c_b| (numerators and denominators, each operand's
    largest) bits, and for a Weyl composition (``leibniz``) its c = sum(m_i)
    contractions, m_i = min(d_i-degree of a, x_i-degree of b), add
    c*log2(c).  The work is the ta*tb coefficient products of the operands'
    term counts, times 1 + bits/256, times the Leibniz terms of one term
    product, prod(1 + m_i)."""
    ca, cb = _coefficients(a), _coefficients(b)
    if not ca or not cb:
        return None
    bits = max(map(_bits, ca)) + max(map(_bits, cb))
    terms = 1
    if leibniz:
        dmax = [max(col) for col in zip(*a.terms)]
        xmax = [max(col) for col in zip(*(m for q in b.terms.values()
                                          for m in q.terms))]
        mins = [min(d, x) for d, x in zip(dmax, xmax)]
        c = sum(mins)
        bits += c * log2(c) if c > 1 else 0
        terms = prod(1 + m for m in mins)
    if bits > MAX_POWER_BITS:
        return _too_many_bits(bits)
    work = len(ca) * len(cb) * (1 + bits / 256) * terms
    if work > MAX_POWER_WORK:
        return f"estimated work {work:.3g}, the limit is {MAX_POWER_WORK}"
    return None


def _too_many_bits(bits):
    """The refusal of a coefficient of about ``bits`` bits."""
    return (f"about {bits:.3g} bits per coefficient, the limit is "
            f"{MAX_POWER_BITS}")


class _Parser:
    def __init__(self, text, nvars, operator_mode):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars
        self.operator_mode = operator_mode

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self):
        try:
            value = self.expr()
        except RecursionError:
            tok = self.tokens[min(self.pos, len(self.tokens) - 1)]
            raise ParseError("expression nested too deeply", tok[2],
                             tok[3]) from None
        tok = self.peek()
        if tok[0] != "EOF":
            self.error(f"unexpected {tok[1]!r}")
        return value

    def expr(self):
        """A sum of terms, added into one map d-exponent -> (monomial ->
        coefficient); a polynomial term adds at d^0.  The sum is an
        operator once any term is one."""
        value = self.term()
        if self.peek()[0] not in ("+", "-"):
            return value
        zero = (0,) * self.nvars
        sums, negate, operator = {}, False, False
        while True:
            if isinstance(value, Polynomial):
                blocks = ((zero, value),)
            else:
                blocks, operator = value.terms.items(), True
            for b, p in blocks:
                acc = sums.setdefault(b, {})
                for m, c in p.terms.items():
                    c = acc.get(m, 0) + (-c if negate else c)
                    if c:
                        acc[m] = c
                    else:
                        del acc[m]
            if self.peek()[0] not in ("+", "-"):
                break
            negate = self.next()[0] == "-"
            value = self.term()
        if not operator:
            return Polynomial(self.nvars, sums[zero], _clean=False)
        return WeylOperator(self.nvars, {
            b: Polynomial(self.nvars, acc, _clean=False)
            for b, acc in sums.items() if acc}, _clean=False)

    def term(self):
        value = self.unary()
        while self.peek()[0] == "*":
            tok = self.next()
            value = _mul(value, self.unary(), tok)
        return value

    def unary(self):
        if self.peek()[0] == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.next()
        tok = self.next()
        if tok[0] != "INT":
            self.error("exponent must be a nonnegative integer", tok)
        k = parse_int(tok[1])
        if k < 2:  # base^0 = 1 and base^1 = base perform no product
            return base ** k
        # one term c*x^a or c*d^b, c constant, is one step; past 2^64 only
        # c = +-1 passes, as at 2^64
        (c,) = base.terms.values() if len(base.terms) == 1 else (None,)
        if isinstance(c, Polynomial):  # an operator's: one step if constant
            c = c.terms.get((0,) * self.nvars) if len(c.terms) == 1 else None
        if c is None:
            return power(base, k, Polynomial.one(self.nvars),
                         lambda a, b: _mul(a, b, tok))
        if c not in (1, -1):
            bits = min(k, 1 << 64) * log2(abs(c.numerator) * c.denominator)
            if bits > MAX_POWER_BITS:
                self.error(f"power too large: {_too_many_bits(bits)}", tok)
        return base ** k

    def atom(self):
        tok = self.next()
        if tok[0] == "INT":
            num = parse_int(tok[1])
            if self.peek()[0] == "/":
                self.next()
                tok = self.next()
                den = parse_int(tok[1]) if tok[0] == "INT" else 0
                if not den:
                    self.error("expected a nonzero integer denominator", tok)
                return Polynomial.constant(self.nvars, Fraction(num, den))
            return Polynomial.constant(self.nvars, num)
        if tok[0] == "NAME":
            kind, idx = _resolve_name(tok[1], self.nvars,
                                      self.operator_mode, tok[2], tok[3])
            if kind == "dvar":
                return WeylOperator.partial(self.nvars, idx)
            return Polynomial.variable(self.nvars, idx)
        if tok[0] == "(":
            value = self.expr()
            closing = self.next()
            if closing[0] != ")":
                self.error("expected ')'", closing)
            return value
        self.error(f"unexpected {tok[1]!r}" if tok[0] != "EOF"
                   else "unexpected end of input", tok)


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    return _Parser(text, nvars, operator_mode=False).parse()


def parse_operator(text: str, nvars: int) -> WeylOperator:
    return _lift(_Parser(text, nvars, operator_mode=True).parse())
