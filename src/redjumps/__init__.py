"""Jump spectra of Jacobians from combinatorial reduction data.

Given the multiplicity/genus-labelled dual graph of an sncd model of a
curve, this package computes the jumps of Edixhoven's filtration on the
Néron model of the Jacobian (with multiplicities), the tame base-change
conductor, the unipotent rank, and the stabilization index, together with
model surgery (blow-ups, blow-downs, minimization, chain contraction) and
verifier sub-libraries for the supporting lattice and monoid facts.

The names in ``__all__`` are loaded on first use (PEP 562): importing the
package, or one submodule such as ``redjumps.cli``, imports no other
submodule, so a command pays only for the modules it runs. Each name maps
to the one module that defines it: the blow-ups and blow_down to
``redjumps.surgery``, minimize and contract_chains to ``redjumps.graph``.
"""

# each exported name, and the submodule that defines it
_EXPORTS = {
    "errors": "errors",
    **dict.fromkeys(["GeneratedGraph", "catalog_graph", "catalog_tags", "expected_jump",
                     "kodaira_graph", "random_instance", "seed_graphs"], "catalog"),
    **dict.fromkeys(["ReductionGraph", "Vertex", "Violation", "contract_chains",
                     "minimize"], "graph"),
    **dict.fromkeys(["dump_graph", "graph_document", "parse_document",
                     "report_document"], "io"),
    **dict.fromkeys(["AnalysisReport", "JumpSpectrum", "analyze", "candidate_values",
                     "compute_jumps", "run_checks", "tame_base_change_conductor",
                     "unipotent_rank"], "jumps"),
    **dict.fromkeys(["blow_down", "blow_up_edge", "blow_up_free_point"], "surgery"),
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
