"""Spectral laboratory for the stochastic MHD approximation problem."""

from .torus import (
    DyadicPartition,
    ModeLattice,
    ScalarField,
    VectorField,
    besov_norm,
    dft_forward,
    dft_inverse,
    field_from_json,
    field_to_json,
    holder_norm,
    lp_block,
    random_scalar_field,
    random_vector_field,
)
from .schemes import (
    SchemeSpec,
    apply_dj,
    apply_dj_eps,
    apply_h_eps,
    apply_laplacian_eps,
    eval_f,
    eval_g,
    eval_h,
    leray_project,
    scheme_from_config,
    semigroup,
    semigroup_eps,
)
from .bony import BonyTriple, bony_decompose, commutator, para_estimate_ratio
from .fields import (
    CoupledOUEnsemble,
    NoiseSpec,
    covariance_closed_form,
    mc_covariance,
)

__version__ = "0.1.0"
