"""Core of the reproduction: heterogeneous graphs, the characteristic-
sequence encoding, the rooted subgraph census, and feature extraction."""

from repro.core.census import CensusConfig, census_total, subgraph_census
from repro.core.collisions import CollisionReport, find_collisions
from repro.core.connectivity import LabelConnectivity, label_connectivity
from repro.core.encoding import (
    CanonicalCode,
    canonical_code,
    code_num_edges,
    code_num_nodes,
    code_to_string,
    encode_subgraph,
    string_to_code,
)
from repro.core.features import (
    FeatureSpace,
    SubgraphFeatureExtractor,
    SubgraphFeatures,
)
from repro.core.graph import (
    FlatAdjacency,
    FlatGraph,
    HeteroGraph,
    MutableHeteroGraph,
)
from repro.core.mmap_graph import MmapGraph
from repro.core.sparse import CSRMatrix
from repro.core.hashing import RollingSubgraphHash
from repro.core.interpret import RankedFeature, describe_code, rank_features, realize_code
from repro.core.isomorphism import (
    SmallGraph,
    are_isomorphic,
    enumerate_connected_labelled_graphs,
)
from repro.core.labels import MASK_LABEL, LabelSet
from repro.core.sampled import (
    SampledCensus,
    SampledCensusConfig,
    SampledCensusReport,
    run_sampled_census,
    sampled_config_key,
)

__all__ = [
    "CanonicalCode",
    "CensusConfig",
    "CollisionReport",
    "CSRMatrix",
    "FeatureSpace",
    "FlatAdjacency",
    "FlatGraph",
    "HeteroGraph",
    "MmapGraph",
    "LabelConnectivity",
    "LabelSet",
    "MASK_LABEL",
    "MutableHeteroGraph",
    "RankedFeature",
    "RollingSubgraphHash",
    "SampledCensus",
    "SampledCensusConfig",
    "SampledCensusReport",
    "SmallGraph",
    "SubgraphFeatureExtractor",
    "SubgraphFeatures",
    "are_isomorphic",
    "canonical_code",
    "census_total",
    "code_num_edges",
    "code_num_nodes",
    "code_to_string",
    "describe_code",
    "encode_subgraph",
    "enumerate_connected_labelled_graphs",
    "find_collisions",
    "label_connectivity",
    "rank_features",
    "realize_code",
    "run_sampled_census",
    "sampled_config_key",
    "string_to_code",
    "subgraph_census",
]
