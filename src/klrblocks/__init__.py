"""Exact-arithmetic toolkit for blocks of cyclotomic quiver Hecke algebras
in affine type A: dominant maximal weights, weight quivers, representation
type, graded dimensions and the Brauer graphs of the non-wild blocks."""

from .cartan import (
    RootVector,
    WeightCoeffs,
    cartan_matrix,
    delta_decompose,
    interval_delta,
    sigma_rotate,
)
from .classify import FieldParams, RepType, ScriptSets, TClass, TClassRankError, classify, script_sets
from .maxweights import (
    ClassTooLargeError,
    LevelKDominant,
    MaxWeightEntry,
    NoSolutionError,
    equiv_class,
    ev,
    max_plus,
    solve_x,
)
from .quiver import (
    TQuiver,
    WeightQuiver,
    build_quiver,
    has_arrow,
    move,
    successors,
    t_beta_sets,
    t_subquiver,
)
from .tableaux import (
    ChargedShape,
    LaurentPoly,
    Multipartition,
    enumerate_with_content,
    graded_dim,
    graded_dim_total,
)
from .weyl import OrbitResult, OrbitStatus, dominate, orbit_representative, simple_reflect
from .brauer import (
    BrauerGraph,
    DerivedInvariants,
    QuiverPresentation,
    decomp_search,
    derived_equivalent,
    derived_invariants,
    gamma_family,
    quiver_presentation,
)

__version__ = "0.1.0"
