"""Constructors and verifiers for central generic hyperplane arrangements:
the n+1-plane arrangements in C^n with their quadratic generators and
syzygies, and the five-plane quintic arrangement in C^3 with its order-two
operator witness."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .groebner import (FreeModuleVector, buchberger, gb_equal,
                       is_groebner_basis, syzygies)
from .logder import DerivationModule, _cofactor
from .poly import DEGREVLEX, Polynomial, PotOrder
from .weyl import WeylOperator


@dataclass
class Arrangement:
    nvars: int
    hyperplanes: list
    f: Polynomial

    def __post_init__(self):
        for h in self.hyperplanes:
            if h.is_zero() or not h.is_homogeneous() or h.degree() != 1:
                raise ValueError("hyperplanes must be nonzero linear forms")
        for i, a in enumerate(self.hyperplanes):
            for b in self.hyperplanes[i + 1:]:
                # proportional forms would make f non-squarefree
                if all(a.terms.get(m, 0) * b.lead_coeff()
                       == b.terms.get(m, 0) * a.lead_coeff()
                       for m in set(a.terms) | set(b.terms)):
                    raise ValueError("hyperplanes must be pairwise "
                                     "non-proportional")


@dataclass
class DnArrangement(Arrangement):
    chi: FreeModuleVector = None
    eta_index: list = None       # ordered (i, j) pairs, i < j
    etas: dict = None            # (i, j) -> FreeModuleVector, rank n
    sigmas: dict = None          # (i, j, k) -> FreeModuleVector over eta slots

    def eta_list(self):
        return [self.etas[ij] for ij in self.eta_index]

    def sigma_list(self):
        return [self.sigmas[ijk] for ijk in sorted(self.sigmas)]

    def a_module(self) -> DerivationModule:
        """The eta-generated submodule as a derivation module along f."""
        gens = self.eta_list()
        cofs = [_cofactor(v, self.f) for v in gens]
        return DerivationModule(self.f, gens, cofs)


MAX_N = 6


def generic_dn(n: int) -> DnArrangement:
    """The arrangement x_1*...*x_n*(x_1+...+x_n) with the Euler field, the
    fields eta_ij = x_i x_j (d_i - d_j) and the syzygies
    sigma_ijk = x_i eta_jk - x_j eta_ik + x_k eta_ij."""
    if n < 2:
        raise ValueError("generic_dn needs n >= 2")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the configured bound {MAX_N}")
    xs = [Polynomial.variable(n, i) for i in range(n)]
    zero = Polynomial.zero(n)
    s = Polynomial.zero(n)
    for x in xs:
        s = s + x
    f = s
    for x in xs:
        f = f * x
    chi = FreeModuleVector(xs)
    eta_index = list(combinations(range(n), 2))
    etas = {}
    for (i, j) in eta_index:
        comps = [zero] * n
        comps[i] = xs[i] * xs[j]
        comps[j] = -xs[i] * xs[j]
        etas[(i, j)] = FreeModuleVector(comps)
    slot = {ij: t for t, ij in enumerate(eta_index)}
    sigmas = {}
    for (i, j, k) in combinations(range(n), 3):
        comps = [zero] * len(eta_index)
        comps[slot[(j, k)]] = xs[i]
        comps[slot[(i, k)]] = -xs[j]
        comps[slot[(i, j)]] = xs[k]
        sigmas[(i, j, k)] = FreeModuleVector(comps)
    return DnArrangement(n, xs + [s], f, chi=chi, eta_index=eta_index,
                         etas=etas, sigmas=sigmas)


def lemma19_check(n: int) -> bool:
    """The eta fields are a Groebner basis of their module under an order
    refining d_1 < ... < d_n, and their syzygy module is generated by the
    sigma vectors."""
    arr = generic_dn(n)
    gens = arr.eta_list()
    order = PotOrder(DEGREVLEX, ascending=True)
    if not is_groebner_basis(gens, order):
        return False
    computed = syzygies(gens)
    sig = arr.sigma_list()
    if not computed:
        return not sig
    return gb_equal(buchberger(computed), buchberger(sig))


def prop17_check(n: int) -> bool:
    """No syzygy of (chi, eta_ij) involves chi, so the Euler line splits off
    the eta module as a direct summand."""
    arr = generic_dn(n)
    syz = syzygies([arr.chi] + arr.eta_list())
    return all(s.components[0].is_zero() for s in syz)


def example9_objects():
    """The five-plane quintic arrangement in C^3 and its order-two operator
    witness Q (weight 3, in V_0 but outside the vector-field subalgebra).

    The middle sign of Q differs from the usual display: with the signs
    (+, +, -) the operator fails the power-two divisibility condition
    exactly, so the member of the filtration has signs (+, -, -).
    """
    n = 3
    x, y, z = (Polynomial.variable(n, i) for i in range(n))
    planes = [x, y, z, x + y + z, x + 2 * y + 3 * z]
    f = Polynomial.one(n)
    for h in planes:
        f = f * h
    arr = Arrangement(n, planes, f)
    pref = (x + y + z) * (x + 2 * y + 3 * z)
    q_terms = {
        (0, 2, 0): pref * (3 * z * y * y),
        (0, 1, 1): pref * (-(x + 4 * y - 3 * z) * y * z),
        (0, 0, 2): pref * (-4 * y * z * z),
    }
    Q = WeylOperator(n, q_terms)
    return arr, Q
