"""Graph algorithms written once against the GraphBLAS frontend.

Every algorithm here runs unchanged on any registered backend — the central
claim of GBTL reproduced.  Switch with::

    with repro.use_backend("cuda_sim"):
        levels = bfs_levels(g, 0)
"""

from .apsp import apsp, apsp_from_sources
from .bc import betweenness_centrality
from .bfs import bfs_levels, bfs_parents
from .closure import reachable_from, transitive_closure
from .coloring import greedy_color, verify_coloring
from .components import component_count, connected_components
from .delta_stepping import split_light_heavy, sssp_delta_stepping
from .kcore import core_numbers, kcore
from .lpa import label_propagation, modularity
from .ktruss import ktruss
from .metrics import (
    average_degree,
    edge_count,
    graph_density,
    graph_diameter,
    in_degrees,
    is_symmetric,
    out_degrees,
    vertex_count,
    vertex_eccentricity,
)
from .mis import mis, verify_mis
from .msbfs import bfs_levels_multi
from .mst import mst_prim
from .pagerank import pagerank
from .ppr import ppr, ppr_batch, ppr_transition
from .sssp import sssp, sssp_bellman_ford
from .triangles import lower_triangle, triangle_count, triangles_per_vertex

__all__ = [
    "apsp",
    "apsp_from_sources",
    "betweenness_centrality",
    "bfs_levels",
    "bfs_parents",
    "reachable_from",
    "transitive_closure",
    "greedy_color",
    "verify_coloring",
    "component_count",
    "connected_components",
    "kcore",
    "core_numbers",
    "label_propagation",
    "modularity",
    "ktruss",
    "average_degree",
    "edge_count",
    "graph_density",
    "graph_diameter",
    "in_degrees",
    "is_symmetric",
    "out_degrees",
    "vertex_count",
    "vertex_eccentricity",
    "mis",
    "verify_mis",
    "bfs_levels_multi",
    "mst_prim",
    "pagerank",
    "ppr",
    "ppr_batch",
    "ppr_transition",
    "sssp",
    "sssp_delta_stepping",
    "split_light_heavy",
    "sssp_bellman_ford",
    "lower_triangle",
    "triangle_count",
    "triangles_per_vertex",
]
