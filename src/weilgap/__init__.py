"""weilgap: Rademacher presentations of Gamma0(p), character-pretending
multiplier systems, and numerical verification of twisted functional
equations for completed L-series."""

import os

# Computations are single-threaded by design (determinism contract);
# WEILGAP_THREADS, when set, caps library-level BLAS parallelism underneath.
# The libraries read these variables once, when numpy is first imported, so
# this must run before any import below.
if "WEILGAP_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["WEILGAP_THREADS"])

from .matrices import (
    IDENTITY,
    FrickeMat,
    Mat2,
    S,
    STWord,
    T,
    decompose_sl2,
    slash_evaluator,
)
from .presentation import (
    ExpVector,
    GammaWord,
    GenSet,
    abelianize,
    build_presentation,
    compute_Q,
    decompose_gamma0,
    rademacher_signature,
    v_matrix,
)
from .characters import DirichletChar, ResidueChar, all_characters, primitive_characters
from .multiplier import (
    Angle,
    ConstraintSystem,
    MultiplierSystem,
    char_multiplier,
    cusp_parameter,
    cusp_width,
    pretend_constraints,
    sixth_root_check,
    solve_pretend,
    trivial_multiplier,
)
from .series import (
    CoeffSeries,
    KloostermanSum,
    coeffs_via_fourier_extraction,
    delta_coeffs,
    delta_delta_p,
    eisenstein_level1,
    eisenstein_multiplier_coeffs,
    multiply,
    twisted_kloosterman,
)
from .analytic import (
    AdditiveTwist,
    FEStatement,
    LambdaValue,
    certify_modularity,
    cgamma,
    check_fe_additive,
    check_fe_multiplicative,
    check_modular_relation,
    fe_for_q,
    gauss_sum,
    lambda_additive,
    lambda_multiplicative,
    upper_incomplete_gamma,
)

__version__ = "0.1.0"
