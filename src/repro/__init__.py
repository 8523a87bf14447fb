"""repro — Total Order Labeling reachability indices for dynamic graphs.

A faithful, from-scratch Python reproduction of

    Zhu, Lin, Wang, Xiao.  *Reachability Queries on Large Dynamic Graphs:
    A Total Order Approach.*  SIGMOD 2014.

Quick start
-----------
>>> from repro import DiGraph, ReachabilityIndex
>>> g = DiGraph(edges=[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
>>> index = ReachabilityIndex(g)            # cycles handled automatically
>>> index.query("a", "d")
True
>>> index.insert_vertex("e", in_neighbors=["d"])
>>> index.query("b", "e")
True

Package map
-----------
* :mod:`repro.graph` — graph substrate (storage, SCCs, traversals,
  generators, I/O).
* :mod:`repro.core` — the paper's contribution: the TOL framework,
  Butterfly construction, dynamic updates, label reduction.
* :mod:`repro.baselines` — competitors: BFS/DFS, transitive closure,
  GRAIL, Dagger, and the TF/DL/PLL/HL orders under TOL.
* :mod:`repro.datasets` — scaled-down stand-ins for the paper's Table 3.
* :mod:`repro.bench` — workloads and experiment drivers for every table
  and figure of the paper's Section 8.
* :mod:`repro.service` — concurrent serving layer: reader-writer locked
  index, epoch-invalidated query cache, one validated and WAL-logged
  batch write path, metrics.
"""

from .core.frozen import FrozenTOLIndex, freeze
from .core.index import ReachabilityIndex, TOLIndex
from .core.labeling import TOLLabeling
from .core.serialize import load_index, save_index
from .core.stats import LabelStats, labeling_stats, top_label_holders
from .core.order import LevelOrder
from .core.orders import ORDER_STRATEGIES
from .core.reduction import ReductionReport
from .datasets import DATASET_NAMES, load as load_dataset
from .errors import (
    DatasetError,
    GraphError,
    IndexStateError,
    NotADagError,
    OrderError,
    ReproError,
    UnknownVertexError,
    WorkloadError,
)
from .graph.digraph import DiGraph
from .service.server import ReachabilityService

__version__ = "1.0.0"

__all__ = [
    "DiGraph",
    "TOLIndex",
    "ReachabilityIndex",
    "ReachabilityService",
    "FrozenTOLIndex",
    "freeze",
    "TOLLabeling",
    "LevelOrder",
    "save_index",
    "load_index",
    "LabelStats",
    "labeling_stats",
    "top_label_holders",
    "ORDER_STRATEGIES",
    "ReductionReport",
    "load_dataset",
    "DATASET_NAMES",
    "ReproError",
    "GraphError",
    "NotADagError",
    "IndexStateError",
    "UnknownVertexError",
    "OrderError",
    "DatasetError",
    "WorkloadError",
    "__version__",
]
