"""Computable point-set topology of spectral spaces.

Finite spectral spaces are finite posets under specialization; one symbolic
infinite space (a generic point over an infinite antichain of closed
points), its dual, and finite disjoint sums extend the class far enough to
decide Thomason, constructible, weakly visible and (inverse-)Noetherian
questions exactly, and to classify radical ideals by their supports.
"""

from .poset import (
    CycleError,
    DuplicateLabelError,
    EnumerationCapError,
    FinitePoset,
    FiniteSubset,
    PosetError,
    build_poset,
    enumerate_down_sets,
    is_down_set,
    is_up_set,
    opposite_poset,
)
from .spaces import (
    GOA,
    Dual,
    Finite,
    GenericOverAntichain,
    PointClass,
    SpaceExpr,
    Sum,
    amalgamated_poset,
    describe_space,
    dual,
    is_finite_space,
    is_normalized,
    normalize,
    point_classes,
)
from .subsets import (
    CarrierMismatchError,
    GoaSet,
    SumSet,
    SymbolicSubset,
    class_singleton,
    closed_points,
    embed_at,
    empty,
    whole,
)
from .topology import (
    DescendingChain,
    InternalInconsistencyError,
    SpaceProps,
    cl_closure,
    closure,
    gen_closure,
    is_closed,
    is_constructible,
    is_generalization_closed,
    is_open,
    is_quasi_compact_open,
    is_thomason,
    is_weakly_visible,
    space_props,
    weakly_visible_inverse,
    weakly_visible_witness,
)
from .ideals import (
    CohenReport,
    IdealCount,
    NotThomasonError,
    PrimeIdeal,
    RadicalIdeal,
    WitnessFamily,
    all_radical_ideals_fg,
    cohen_report,
    count_radical_ideals,
    enumerate_radical_ideals,
    find_non_fg_prime,
    ideal_from_thomason,
    is_finitely_generated,
    prime_at_point,
)
from .catalog import BUILTIN_CATALOG, CatalogEntry, catalog_entry
from .verify import (
    STATEMENTS,
    CheckFailure,
    CheckResult,
    check_statement,
    exhaustive_posets,
    random_poset,
    run_all,
)
from .spacefile import SpaceDocument, SpaceFileError, parse_document, serialize_document

__version__ = "0.1.0"
