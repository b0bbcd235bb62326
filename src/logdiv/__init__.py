"""Exact computer algebra for logarithmic derivations, symmetric algebras
and the V-filtration along a divisor."""

from .poly import (DEGREVLEX, LEX, BlockElim, Degrevlex, Lex, ModuleOrder,
                   Polynomial, PotOrder, SyzElimOrder, TermOrder, TopOrder,
                   divide_exact)
from .grammar import ParseError, parse_operator, parse_polynomial
from .weyl import WeylOperator, apply_op, compose, symbol
from .groebner import (FreeModuleVector, GroebnerBasis, buchberger, codim,
                       eliminate, ideal_gb, ideal_member, ideal_quotient,
                       in_submodule, is_groebner_basis,
                       local_membership_at_origin, normal_form, syzygies)
from .logder import (DerivationModule, InvalidDivisor, ann_theta, euler_field,
                     log_derivations, saito_freeness_test)
from .symalg import (GradeCertificate, SymPresentation, TorsionReport,
                     grade_criterion, pi_injectivity_test, rees_kernel,
                     sym_presentation, torsion_test_symk)
from .vfilt import (GradedOperatorSpace, NonHomogeneousError, compare_v0,
                    logder_generated_graded, v0_graded_basis, v_member,
                    v_membership, vk_graded_basis)
from .arrangements import (Arrangement, DnArrangement, example9_objects,
                           generic_dn, lemma19_check, prop17_check)
from .criterion import criterion_certificate

__version__ = "0.1.0"
