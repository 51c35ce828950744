"""Exact maximum weight independent set solving via kernelization.

The package provides a dynamic graph type, a transformation log with
solution lifting, weight-aware reduction rules including four struction
variants, a cyclic blow-up preprocessor, and a branch-and-reduce solver.
"""

from .graph import (DuplicateEdge, DynGraph, GraphError, InactiveVertex,
                    InvalidWeight, SelfLoop, new_graph)
from .translog import (CorruptLog, LiftError, NotIndependent, TransformLog,
                       lift, verify_lift)
from .struction import (Aborted, NotMinimal, VARIANT_OPS,
                        enumerate_exceeding_sets, extended_reduced_struction,
                        extended_struction, modified_struction,
                        original_struction)
from .reductions import (RULE_ORDER, clique_neighborhood_removal,
                         decreasing_struction, degree_two_fold, domination,
                         plateau_struction, twin_merge)
from .blowup import (BlowupConfig, KernelResult, PRESETS, PRESET_CYCLIC_FAST,
                     PRESET_CYCLIC_STRONG, PRESET_NONINCREASING, blow_up,
                     cyclic_blow_up, make_blowup_config, preprocess)
from .solver import (OPTIMAL, SizeLimit, SolveResult, TIME_LIMIT,
                     brute_force_mwis, components, local_search, solve,
                     upper_bound)
from .metisio import (ParseError, parse_graph, read_solution, write_graph,
                      write_kernel, write_solution, write_stats)
from .rng import (SplitMix64, assign_random_weights, random_gnp_graph,
                  random_path_graph)

__version__ = "0.1.0"

__all__ = [
    "DynGraph", "new_graph", "GraphError", "InvalidWeight", "InactiveVertex",
    "SelfLoop", "DuplicateEdge",
    "TransformLog", "lift", "verify_lift", "LiftError", "NotIndependent",
    "CorruptLog",
    "original_struction", "modified_struction", "extended_struction",
    "extended_reduced_struction", "enumerate_exceeding_sets", "VARIANT_OPS",
    "Aborted", "NotMinimal",
    "RULE_ORDER", "clique_neighborhood_removal", "degree_two_fold",
    "domination", "twin_merge", "decreasing_struction", "plateau_struction",
    "blow_up", "cyclic_blow_up", "preprocess", "BlowupConfig", "KernelResult",
    "make_blowup_config", "PRESETS", "PRESET_NONINCREASING",
    "PRESET_CYCLIC_FAST", "PRESET_CYCLIC_STRONG",
    "solve", "SolveResult", "components",
    "upper_bound", "local_search", "brute_force_mwis", "SizeLimit",
    "OPTIMAL", "TIME_LIMIT",
    "parse_graph", "write_graph", "write_kernel", "write_solution",
    "read_solution", "write_stats", "ParseError",
    "SplitMix64", "random_gnp_graph", "random_path_graph",
    "assign_random_weights",
]
