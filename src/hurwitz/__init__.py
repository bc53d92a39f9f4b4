"""Realizability engine for branched coverings of closed surfaces."""

from .core import (
    KLEIN,
    PROJECTIVE,
    SPHERE,
    TORUS,
    BranchDatum,
    CompatibilityReport,
    DatumParseError,
    Partition,
    Surface,
    check_compatibility,
    format_datum,
    infer_cover,
    parse_datum,
    partitions_of,
    refines_two_halves,
)
from .criteria import (
    EXCEPTIONAL,
    INCOMPATIBLE,
    REALIZABLE,
    UNKNOWN,
    ConsistencyError,
    Verdict,
    classify,
    run_predicates,
)
from .realizer import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EXHAUSTED,
    FOUND,
    Realization,
    SearchResult,
    WitnessCheckError,
    search,
    verify_witness,
)
from .dessin import (
    Dessin,
    DessinError,
    checkerboard_coloring,
    dessin_from_permutations,
    permutations_from_dessin,
    validate_against_datum,
)
from .blocks import (
    BlockDecomposition,
    cycle_type_block_groupings,
    factor_covering,
    find_block_decomposition,
    reduce_projective,
    verify_filtration,
)
from .catalog import CatalogRecord, enumerate_compatible, run_catalog

__version__ = "0.1.0"
