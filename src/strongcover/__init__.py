"""Strong covers of multicolored complete graphs.

A t-multicoloring of K_n in which every k vertices span a monochromatic
clique is the combinatorial shadow of a k-wise intersecting family of
t-intervals (or t-subtrees).  This package implements cover algorithms for
such colorings: a greedy (k-1)/(k+1) fraction cover, full covers by two or
three cliques for (3,3)- and (t,t)-colorings with chordal classes, a
4n/5 cover for induced-C4-free two-colorings, exact branch-and-bound
oracles, and the extremal constructions showing the bounds are sharp.
"""

from ._kernels import BACKEND
from .chordal import (
    ChordalCertificate,
    CliqueCutsetDecomposition,
    EdgeBoundReport,
    chordal_edge_bound_check,
    clique_cutset,
    induced_c4_free,
    is_chordal,
    max_clique_chordal,
    maximal_cliques_chordal,
    mcs_order,
)
from .constructions import (
    BlowupSpec,
    blow_up,
    clique_substitute,
    construct_k4_two_paths,
    construct_k5star,
    construct_k8_c4free_3col,
    construct_onefourth,
    construct_partition_coloring,
    hamilton_decomposition_bipartite,
    hamilton_paths_for_construction,
    random_interval_family,
    random_subtree_family,
)
from .core import (
    CoverReport,
    MultiColoring,
    StrongCover,
    TIntervalFamily,
    TSubtreeFamily,
    coloring_from_intervals,
    coloring_from_subtrees,
    is_kwise_intersecting,
    is_tk_coloring,
    kfold_min_colors,
    piercing_points,
    verify_cover,
)
from .covers import (
    ChainCheck,
    GreedyStep,
    GreedyTrace,
    counting_chain_check,
    exact_cover_and_theta,
    exact_max_strong_cover,
    find_k5star,
    greedy_strong_cover,
    grow_blowup,
    strong_cover_33,
    strong_cover_c4free_22,
    strong_cover_tt,
    theta,
    two_clique_cover_exact,
)
from .errors import GuaranteeError, InputError, PreconditionError, SizeLimitError
from .graphs import Graph

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BlowupSpec",
    "ChainCheck",
    "ChordalCertificate",
    "CliqueCutsetDecomposition",
    "CoverReport",
    "EdgeBoundReport",
    "Graph",
    "GreedyStep",
    "GreedyTrace",
    "GuaranteeError",
    "InputError",
    "MultiColoring",
    "PreconditionError",
    "SizeLimitError",
    "StrongCover",
    "TIntervalFamily",
    "TSubtreeFamily",
    "blow_up",
    "chordal_edge_bound_check",
    "clique_cutset",
    "clique_substitute",
    "coloring_from_intervals",
    "coloring_from_subtrees",
    "construct_k4_two_paths",
    "construct_k5star",
    "construct_k8_c4free_3col",
    "construct_onefourth",
    "construct_partition_coloring",
    "counting_chain_check",
    "exact_cover_and_theta",
    "exact_max_strong_cover",
    "find_k5star",
    "greedy_strong_cover",
    "grow_blowup",
    "hamilton_decomposition_bipartite",
    "hamilton_paths_for_construction",
    "induced_c4_free",
    "is_chordal",
    "is_kwise_intersecting",
    "is_tk_coloring",
    "kfold_min_colors",
    "max_clique_chordal",
    "maximal_cliques_chordal",
    "mcs_order",
    "piercing_points",
    "random_interval_family",
    "random_subtree_family",
    "strong_cover_33",
    "strong_cover_c4free_22",
    "strong_cover_tt",
    "theta",
    "two_clique_cover_exact",
    "verify_cover",
]
