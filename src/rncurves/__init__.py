"""Exact-arithmetic toolkit for rational normal curves through configurations
of linear subspaces: construction, certified (non-)existence rules, Hilbert
functions of fat arrangements, and a small defectivity checker."""

from types import ModuleType as _Module

from .arrangements import (
    Configuration,
    WeightVector,
    generic_hilbert,
    hilbert_function,
    ideal_dimension,
    sample_configuration,
    vanishing_conditions,
)
from .binforms import BinaryForm, ParamPoint
from .defectivity import DefectQuery, DefectReport, defect_check, defect_sweep
from .exactgeom import (
    LinearSubspace,
    Projectivity,
    ProjPoint,
    Rng,
    adapted_alignment,
    meet,
    project_from,
    projectivity_from_frames,
    sample_generic_subspace,
    span,
)
from .feasibility import (
    Certificate,
    RunConfig,
    Verdict,
    all_rule_verdicts,
    atlas,
    build_witness,
    check_bezout,
    check_codim2_table,
    check_counting_feasible,
    check_homogeneous,
    check_parameter_count,
    check_projection,
    check_segre_iff,
    classify,
    verify_witness,
)
from .rnc import (
    ParamCurve,
    RationalCurve,
    apply_projectivity,
    intersection_degree,
    is_rnc,
    project_curve,
    restrict_form,
    rnc_through_points,
    rnc_with_assigned_preimages,
    standard_rnc,
)
from .segre import (
    MultiCurve,
    SegreContext,
    canonical_contracted_spaces,
    phi,
    phi_inverse,
    product_curve,
    witness_curve,
)

__version__ = "0.1.0"

# the names imported above, not the submodules those imports bind
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _Module)]
