"""Exact arithmetic for combinatorial polytopes, their face-operator
algebra, and quasi-symmetric functions."""

from .posets import GradedPoset, PosetError, poset_product
from .polytopes import (Polytope, bipyramid, build_named, cell24, cone,
                        cross, cube, dual, empty, face_polytope, faces,
                        flag_number, flag_vector, from_incidence, from_word,
                        join, point, polygon, product, simplex)
from .polys import AlphaPoly, MultiPoly
from .qsym import QSym, is_quasisymmetric, quasi_shuffle
from .ring import (FormalSum, JOIN_RING, PRODUCT_RING, antipode_rp,
                   apply_operator, a_op, bipyramid_op, comodule_pairs,
                   cone_op, coaction, d_k, delta_derivation, dual_sum,
                   epsilon_alpha, l_alpha, mul_join, mul_product, phi_poly,
                   xi_alpha)
from .ncalg import (DualFunctional, NCPoly, antipode, basis_words, coproduct,
                    d_even_formula, normal_form, pairing, s_series)
from .lyndon import (cfl_factorize, count_lyndon, fibonacci, is_lyndon,
                     k_prime, k_via_moebius, lyndon_words, odd_partition_count,
                     series_exponents, shuffle)
from .transforms import (bb_basis, bb_det, bb_multiply, b_qsym, cone_qsym,
                         dehn_sommerville_check, ehrenborg_F, f_poly, f_rp,
                         phi_alpha, phi_zero, project_bb,
                         verify_image_equations)
from .exprs import ExprError, parse_expression

__version__ = "0.1.0"
