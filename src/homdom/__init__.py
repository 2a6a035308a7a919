"""Homomorphism density domination exponents.

Exact homomorphism counting, closed-form domination exponents C(G,H),
lower-bound constructions, exact rational LP machinery, cycle
tropicalization cones, and corpus-based inequality verification.
"""

from .graphs import (
    Biadjacency,
    CliqueUnion,
    GraphError,
    SimpleGraph,
    blowup,
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    cycle_with_chord,
    chorded_fan,
    decode_graph,
    disjoint_union,
    encode_graph,
    enumerate_graphs,
    from_shorthand,
    isomorphic,
    k4_minus_e,
    path_graph,
    star_graph,
    triangle_pendant,
)
from .homcount import (
    ResourceLimitError,
    WeightedPattern,
    WeightedTarget,
    cycle_hom_count,
    hom_count,
    hom_density,
    tropical_tree_exponent,
    weighted_hom_density,
)
from .constructions import (
    ProjectivePlaneSpec,
    ScalingFamily,
    ap3_free_set,
    behrend_graph,
    bipartite_power_target,
    estimate_ratio,
    instantiate_weighted,
    path_blowup_pattern,
    projective_plane,
    red_line_graph,
    simple_family,
)
from .formulas import (
    ExponentBound,
    crude_upper,
    dispatch_exponent,
    edge_exponent,
    even_cycle_exponent,
    exists_exponent,
    fractional_matching,
    kk_exponent,
    odd_cycle_bounds,
    p2_exponent,
    path_exponent,
    simple_lower,
    subgraph_equal_nu,
    union_exponent_lp,
)
from .ratlp import LPProblem, LPSolution, kr_lp, make_lp, solve_lp
from .cones import (
    Cone,
    all_cycle_cone,
    cone_equals_hull,
    even_cycle_cone,
    verify_rays,
)
from .verifier import (
    Corpus,
    CorpusSpec,
    VerificationReport,
    build_corpus,
    check_eq_main,
    check_inequality,
    gnp_graph,
    search_problem6,
)

__version__ = "0.1.0"
