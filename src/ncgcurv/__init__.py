"""Numerical curvature workbench for finite-dimensional spectral triples.

The package models spectral triples as plain complex matrices, builds their
represented one- and two-forms and junk-form spaces, assembles product
operators and curvature of connections on finitely generated projective
modules (computed along two routes and compared), and evaluates pointwise
Riemannian-submersion invariants from frame structure constants.
"""

__version__ = "0.1.0"

from .curvature import (
    CurvatureReport,
    VerticalOperator,
    correspondence_curvature,
    correspondence_decomposition_residual,
    curvature_direct,
    curvature_formula,
    curvature_report,
    external_product_defect,
    external_product_defect_ungraded,
    junk_coset_residual,
)
from .fgpmod import (
    ConnectionForm,
    ConnectionOperators,
    ProjectiveModule,
    build_projector,
    connection_operators,
    hermitian_residual,
    spectrum,
    symmetrize_connection,
    zero_connection,
)
from .forms import (
    FormSpace,
    UniversalOneForm,
    delta,
    junk_space,
    kernel_one_forms,
    left_mult,
    one_form_space,
    right_mult,
    two_form_space,
)
from .glinalg import (
    adjoint,
    membership_residual,
    solve_kernel,
    spectral_norm,
    subspace_basis,
)
from .submersion import (
    FramePoint,
    canned_frame,
    fibration_curvature,
    heisenberg_frame,
    hopf_frame,
    mean_curvature,
    second_fundamental_form,
    submersion_invariants,
    warped_torus_frame,
)
from .triple import SpectralTriple, c1_norm, c2_norm, validate

__all__ = [
    "ConnectionForm",
    "ConnectionOperators",
    "CurvatureReport",
    "FormSpace",
    "FramePoint",
    "ProjectiveModule",
    "SpectralTriple",
    "UniversalOneForm",
    "VerticalOperator",
    "__version__",
    "adjoint",
    "build_projector",
    "c1_norm",
    "c2_norm",
    "canned_frame",
    "connection_operators",
    "correspondence_curvature",
    "correspondence_decomposition_residual",
    "curvature_direct",
    "curvature_formula",
    "curvature_report",
    "delta",
    "external_product_defect",
    "external_product_defect_ungraded",
    "fibration_curvature",
    "heisenberg_frame",
    "hermitian_residual",
    "hopf_frame",
    "junk_coset_residual",
    "junk_space",
    "kernel_one_forms",
    "left_mult",
    "mean_curvature",
    "membership_residual",
    "one_form_space",
    "right_mult",
    "second_fundamental_form",
    "solve_kernel",
    "spectral_norm",
    "spectrum",
    "submersion_invariants",
    "subspace_basis",
    "symmetrize_connection",
    "two_form_space",
    "validate",
    "warped_torus_frame",
    "zero_connection",
]
