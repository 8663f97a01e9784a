"""Jump spectra of Jacobians from combinatorial reduction data.

Given the multiplicity/genus-labelled dual graph of an sncd model of a
curve, this package computes the jumps of Edixhoven's filtration on the
Néron model of the Jacobian (with multiplicities), the tame base-change
conductor, the unipotent rank, and the stabilization index, together with
model surgery (blow-ups, blow-downs, minimization, chain contraction) and
verifier sub-libraries for the supporting lattice and monoid facts.
"""

from . import errors
from .catalog import (GeneratedGraph, catalog_graph, catalog_tags,
                      expected_jump, genus2_example, kodaira_graph,
                      random_instance, seed_graphs)
from .graph import (ReductionGraph, ValidationReport, Vertex, Violation,
                    blow_down, blow_up_edge, blow_up_free_point, build,
                    contract_chains, is_isomorphic, minimize,
                    principal_dominating)
from .io import dump_graph, graph_document, parse_document, report_document
from .jumps import (AnalysisReport, IntegralDivisor, JumpSpectrum, analyze,
                    candidate_values, compute_jumps, floor_divisor, index_set,
                    intersect, jump_multiplicity, jump_multiplicity_via_euler,
                    lower_bound, run_checks, sigma, tame_base_change_conductor,
                    unipotent_rank)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "GeneratedGraph", "IntegralDivisor", "JumpSpectrum",
    "ReductionGraph", "ValidationReport", "Vertex",
    "Violation", "analyze", "blow_down", "blow_up_edge",
    "blow_up_free_point", "build", "candidate_values", "catalog_graph",
    "catalog_tags", "compute_jumps", "contract_chains", "dump_graph",
    "errors", "expected_jump", "floor_divisor", "genus2_example",
    "graph_document", "index_set", "intersect", "is_isomorphic",
    "jump_multiplicity", "jump_multiplicity_via_euler", "kodaira_graph",
    "lower_bound", "minimize", "parse_document",
    "principal_dominating", "random_instance",
    "report_document", "run_checks", "seed_graphs", "sigma",
    "tame_base_change_conductor", "unipotent_rank",
]
