"""Exact-arithmetic engine for Z/2-graded curved complexes over polynomial
rings, with replayable certificates for K-theory identities."""

from .scalars import (FieldError, Scalar, ScalarField, cyclotomic_field,
                      rationals, roots_of_unity)
from .polynomials import (LAMBDA, ContextError, DivisionError, ParseError,
                          Poly, PolyRing, exact_divide)
from .supermod import (EVEN, ODD, ParityMap, ShapeError, SuperModule,
                       direct_sum_modules, parity_unit, tensor, tensor_module)
from .complexes import (ChainMap, Cone, CurvatureError, CurvedComplex,
                        Filtration, SampleError, SupportLocus, Verdict, cone,
                        curvature_check, filtration_verify, is_chain_map,
                        is_homotopy, strict_exactness_sample)
from .clifford import (OrthoSection, SpinorModule, SpinorSplit, clifford_action,
                       clifford_square, contraction_operator, spinor_module,
                       spinor_split, wedge_operator)
from .constructions import (ConeLiftResult, InvariantError, LambdaFamily,
                            RamondData, SLambdaResult, SXiReduceResult,
                            TauData, TotalResult, TwistFamily, cone_lift,
                            cone_lift_check, cyclotomic_coupling, lemma1_build,
                            lemma2_build, multinomial, product_differential,
                            remark_decompose, s_lambda_check, s_xi_reduce)
from .kcert import (Certificate, FiltrationMove, HomotopyMove, IsoMove,
                    IsoPair, compose_certs, verify)

__version__ = "0.1.0"
