"""Exact thresholds and discrepancies of divisorial valuations over
smooth and du Val surface germs, modeled as clusters of infinitely near
points."""

from .errors import (
    GermvalError,
    InvalidStep,
    MldMinusInfinity,
    NotAntinef,
)
from .exact import format_rational, parse_rational
from .germ import (
    SMOOTH,
    BaseGerm,
    BlowupStep,
    Cluster,
    Free,
    Satellite,
    ancestor_curves,
    build,
    canonical_vector,
    cluster_from_file,
    cluster_from_json,
    cluster_to_json,
    du_val,
    extend,
    intersection_matrix,
    legal_steps,
    to_dot,
)
from .valuation import (
    asymptotic_multiplicities,
    fingen_degree,
    fingen_ideal,
    rees_valuations,
    unload,
    valuation_ideal,
)
from .thresholds import (
    MINUS_INFINITY,
    PLUS_INFINITY,
    Classification,
    LctReport,
    PairSpec,
    classify,
    complete_ideal,
    computes_mld,
    lct_ideal,
    log_discrepancy,
    mld_at_origin,
    pair_spec,
)
from .explorer import (
    AtlasRow,
    EnumBudget,
    VerificationReport,
    atlas_rows,
    enumerate_clusters,
    rank_by_gap,
    verify_theorems,
    write_atlas_csv,
)

__version__ = "0.1.0"
