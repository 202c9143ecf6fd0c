"""Exact weighted-median opinion dynamics on influence networks.

The update rule, the strict-majority (cohesion) structure that freezes
opinion blocks, equilibrium recognition and enumeration, consensus
reachability search, and the NAE3SAT gadget showing the reachability
question is NP-hard.  All threshold arithmetic is exact rational.
"""

from .median import (
    HALF,
    closest_weighted_median,
    l1_best_responses,
    to_fraction,
    validate_weights,
    weighted_median_set,
)
from .network import (
    DecisiveSubgraph,
    InfluenceNetwork,
    NetworkFormatError,
    decisive_subgraph,
    has_globally_reachable_node,
    has_half_ties,
    is_decisive,
    load_network,
    network_from_csv_text,
    network_from_json_dict,
    network_to_csv_text,
    network_to_dot,
    network_to_json_dict,
    save_network,
)
from .cohesion import (
    ExpansionTrace,
    cohesive_expansion,
    enumerate_maximal_cohesive_sets,
    has_nontrivial_maximal_cohesive_set,
    is_cohesive,
    is_maximal_cohesive,
)
from .dynamics import (
    EnsembleReport,
    GridUniform,
    LabelUniform,
    RandomSchedule,
    Trajectory,
    default_budget,
    ensemble,
    is_equilibrium,
    run,
    step,
)
from .equilibria import (
    ClassificationReport,
    ConsensusCertificate,
    build_update_sequence,
    classify,
    decide_consensus_reachable,
    enumerate_equilibria,
    is_equilibrium_structural,
    verify_certificate,
)
from .hardness import (
    Nae3SatInstance,
    SvcGraph,
    brute_force_nae3sat,
    build_svc_graph,
    certificate_from_assignment,
    parse_instance,
    parse_instance_text,
    reduction_roundtrip,
    svc_to_json_dict,
)
from . import fixtures

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HALF",
    "to_fraction",
    "validate_weights",
    "weighted_median_set",
    "closest_weighted_median",
    "l1_best_responses",
    "InfluenceNetwork",
    "DecisiveSubgraph",
    "NetworkFormatError",
    "load_network",
    "save_network",
    "network_from_csv_text",
    "network_from_json_dict",
    "network_to_csv_text",
    "network_to_json_dict",
    "network_to_dot",
    "is_decisive",
    "decisive_subgraph",
    "has_globally_reachable_node",
    "has_half_ties",
    "ExpansionTrace",
    "is_cohesive",
    "is_maximal_cohesive",
    "cohesive_expansion",
    "enumerate_maximal_cohesive_sets",
    "has_nontrivial_maximal_cohesive_set",
    "RandomSchedule",
    "LabelUniform",
    "GridUniform",
    "Trajectory",
    "EnsembleReport",
    "default_budget",
    "step",
    "is_equilibrium",
    "run",
    "ensemble",
    "ClassificationReport",
    "ConsensusCertificate",
    "is_equilibrium_structural",
    "enumerate_equilibria",
    "classify",
    "build_update_sequence",
    "decide_consensus_reachable",
    "verify_certificate",
    "Nae3SatInstance",
    "SvcGraph",
    "parse_instance",
    "parse_instance_text",
    "brute_force_nae3sat",
    "build_svc_graph",
    "certificate_from_assignment",
    "reduction_roundtrip",
    "svc_to_json_dict",
    "fixtures",
]
