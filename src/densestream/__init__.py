"""densestream: exact dense-subgraph maintenance over edge-weight streams."""

from .density import EPS, ConfigError, DensityConfig, DensityFamily, delta_it_upper
from .engine import GAIN, LOSE, DenseSubgraphEngine, DensityEvent
from .graph import EdgeUpdate, GraphError, WeightedGraph
from .index import SubgraphIndex
from .ingest import AssociationMeasure, DecayedCounts, DocumentIngestor, EntityDictionary
from .oracle import OracleResult, brute_force_dense, diff
from .rerank import rerank_diverse
from .workload import GenerationReport, SyntheticSpec, generate

__all__ = [
    "EPS", "ConfigError", "DensityConfig", "DensityFamily", "delta_it_upper",
    "GAIN", "LOSE", "DenseSubgraphEngine", "DensityEvent", "EdgeUpdate",
    "GraphError", "WeightedGraph", "SubgraphIndex", "AssociationMeasure",
    "DecayedCounts", "DocumentIngestor", "EntityDictionary", "OracleResult",
    "brute_force_dense", "diff", "rerank_diverse", "GenerationReport",
    "SyntheticSpec", "generate",
]
