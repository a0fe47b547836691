"""Fusion quiver toolkit: finite-type classification, unfolding to ordinary
quivers, and enumeration of indecomposable dimension vectors."""

from .errors import (
    FQKError,
    InconsistentVerdict,
    InfiniteComponent,
    InfiniteType,
    InvalidDimension,
    MissingAction,
    NonConvergence,
    NotReflectable,
    OutOfRange,
    SignCoherenceViolation,
    SignIncoherentInput,
)
from .ring import (
    FPVector,
    FusionRing,
    INFINITY,
    RingElement,
    ValidationReport,
    angle_label,
    dual,
    fpdim,
    fpdim_of,
    multiply,
    validate,
)
from .module import (
    ActionLabel,
    ModuleCategory,
    ModuleElement,
    OrdinaryQuiver,
    act_on,
    action_matrix_of,
    mckay_quiver,
    module_fpdims,
    nonzero_action_check,
    regular_module,
    validate_module,
)
from .quiver import (
    Classification,
    Component,
    CoxeterGraph,
    Edge,
    FusionQuiver,
    admissible_sink_ordering,
    classify_coxeter,
    coxeter_graph,
    normalize,
    reflect_quiver,
)
from .unfold import (
    FiniteTypeVerdict,
    UnfoldedQuiver,
    components,
    enumerate_indecomposables,
    fold_root,
    is_finite_type,
    positive_roots_simply_laced,
    unfold,
    unfold_coords,
)
from .reflect import (
    BilinearFormQ,
    ExtendedRootReport,
    NCPolynomial,
    SignCoherenceReport,
    bilinear_form,
    enumerate_by_closure,
    extended_positive_roots,
    labeled_graph,
    matrix_power_identity_check,
    qnum_free,
    qnum_in_ring,
    rank_two_order,
    real_bilinear_form,
    reflect_dimvec,
    sign_coherence,
    x_ell_dimvec,
)
from . import catalog
from .catalog import builtin, catalog_keys, catalog_kind

__version__ = "0.1.0"
