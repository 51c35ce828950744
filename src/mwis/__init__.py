"""Exact maximum weight independent set solving via kernelization.

The package provides a dynamic graph type, a transformation log with
solution lifting, weight-aware reduction rules including four struction
variants, a cyclic blow-up preprocessor, and a branch-and-reduce solver.
"""

from .graph import (DuplicateEdge, DynGraph, GraphError, InactiveVertex,
                    InvalidWeight, MissingEdge, SelfLoop, new_graph)
from .translog import (CorruptLog, LiftError, NotIndependent, TransformLog,
                       lift, verify_lift)
from .struction import (Aborted, NotMinimal, VARIANT_OPS,
                        enumerate_exceeding_sets, extended_reduced_struction,
                        extended_struction, modified_struction,
                        original_struction)
from .reductions import (KernelResult, RULE_ORDER, ReduceConfig,
                         clique_neighborhood_removal, clique_reduction,
                         decreasing_struction, degree_two_fold, domination,
                         neighborhood_fingerprint, neighborhood_removal,
                         plateau_struction, reduce, twin_merge)
from .blowup import (BlowupConfig, BlowupState, PRESETS, PRESET_CYCLIC_FAST,
                     PRESET_CYCLIC_STRONG, PRESET_NONINCREASING, blow_up,
                     cyclic_blow_up, make_blowup_config, preprocess)
from .solver import (OPTIMAL, SizeLimit, SolveResult, SolverConfig,
                     TIME_LIMIT, brute_force_mwis, components,
                     local_search, solve, upper_bound)
from .metisio import (ParseError, parse_graph, read_solution, write_graph,
                      write_kernel, write_solution, write_stats)
from .rng import (SplitMix64, assign_random_weights, random_gnp_graph,
                  random_path_graph)

__version__ = "0.1.0"

__all__ = [
    "DynGraph", "new_graph", "GraphError", "InvalidWeight", "InactiveVertex",
    "SelfLoop", "DuplicateEdge", "MissingEdge",
    "TransformLog", "lift", "verify_lift", "LiftError", "NotIndependent",
    "CorruptLog",
    "original_struction", "modified_struction", "extended_struction",
    "extended_reduced_struction", "enumerate_exceeding_sets", "VARIANT_OPS",
    "Aborted", "NotMinimal",
    "reduce", "ReduceConfig", "KernelResult", "RULE_ORDER",
    "neighborhood_removal", "degree_two_fold", "clique_reduction",
    "domination", "twin_merge", "clique_neighborhood_removal",
    "decreasing_struction", "plateau_struction", "neighborhood_fingerprint",
    "blow_up", "cyclic_blow_up", "preprocess", "BlowupConfig", "BlowupState",
    "make_blowup_config", "PRESETS", "PRESET_NONINCREASING",
    "PRESET_CYCLIC_FAST", "PRESET_CYCLIC_STRONG",
    "solve", "SolverConfig", "SolveResult", "components",
    "upper_bound", "local_search", "brute_force_mwis", "SizeLimit",
    "OPTIMAL", "TIME_LIMIT",
    "parse_graph", "write_graph", "write_kernel", "write_solution",
    "read_solution", "write_stats", "ParseError",
    "SplitMix64", "random_gnp_graph", "random_path_graph",
    "assign_random_weights",
]
