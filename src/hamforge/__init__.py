"""Desk-scale toolkit for Hamiltonian-cycle structure in planar triangulations."""

from .plane_graph import (
    Cycle,
    NearTriangulation,
    PlaneGraph,
    block_chain,
    bridges,
    build,
    canonical_code,
    contract_edge,
    contract_interior,
    is_isomorphic,
    is_k_connected,
    plane_graph_from_faces,
)
from .corpus import (
    CorpusFilter,
    double_wheel,
    enumerate_triangulations,
    icosahedron,
    k4,
    octahedron,
    random_triangulation,
    read_planar_code,
    telescope_tower,
    two_pocket_worm,
    write_planar_code,
)

__version__ = "0.1.0"

from .ham_enum import (  # noqa: E402
    HamFamily,
    count_ham_cycles,
    count_ham_paths,
    first_ham_cycle,
)
from .structures import (  # noqa: E402
    DiamondCert,
    PairCert,
    find_diamonds,
    max_common_neighborhood_pair,
    separating_cycles,
)
from .indset import (  # noqa: E402
    EdgeFamily,
    IndSetCert,
    edge_families,
    filter_saturation,
    ham_family_from_edge_families,
    low_degree_independent_set,
    special_set,
    special_set_mindeg5,
)
from .tutte import (  # noqa: E402
    PathPair,
    TuttePathCert,
    diamond_region_paths,
    ham_cycle_through_triangle_edges,
    tutte_path,
    two_ham_paths_uv,
    two_ham_paths_uw,
    verify_tutte,
)
from .replay import (  # noqa: E402
    CycleTree,
    NestedChain,
    disjoint_diamond_family,
    lemma_2edge_family,
    nested_chain,
    theorem1_family,
    theorem2_tree,
)
