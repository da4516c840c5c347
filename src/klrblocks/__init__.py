"""Exact-arithmetic toolkit for blocks of cyclotomic quiver Hecke algebras
in affine type A: dominant maximal weights, weight quivers, representation
type, graded dimensions and the Brauer graphs of the non-wild blocks."""

from .cartan import LimitError, RootVector, WeightCoeffs, interval_delta
from .classify import FieldParams, RepType, ScriptSets, TClass, TClassRankError, classify, script_sets
from .maxweights import (
    LevelKDominant,
    MaxWeightEntry,
    NoSolutionError,
    equiv_class,
    max_plus,
    solve_x,
)
from .quiver import TQuiver, WeightQuiver, build_quiver, t_subquiver
from .tableaux import (
    LaurentPoly,
    Multipartition,
    enumerate_with_content,
    graded_dim,
    graded_dim_total,
)
from .weyl import OrbitResult, OrbitStatus, orbit_representative
from .brauer import (
    BrauerGraph,
    DerivedInvariants,
    QuiverPresentation,
    decomp_search,
    derived_invariants,
    gamma_family,
    quiver_presentation,
)

__version__ = "0.1.0"
