"""Degree-weighted lower bounds on the independence number of connected
graphs with bounded maximum degree, with certifying witnesses, exact
solvers, and the extremal families that make the bounds tight.

Submodules and public names are imported on first access (PEP 562), so
``python -m alphabound.cli`` compiles only the modules its command runs.
"""

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "bounds": ("BoundReport", "bound_report", "brooks_bound", "c_bound",
               "caro_wei_bound", "d_bound", "truncated_c_bound"),
    "coeffs": ("CoeffSequence", "EulerLinear", "c_explicit", "c_sequence",
               "clipped_sequence", "d_closed_form", "d_sequence",
               "e_enclosure", "render_decimal"),
    "exact": ("ExactResult", "exact_alpha"),
    "families": ("attach_cliques", "chain_blocks", "circulant_graph",
                 "complete_graph", "cycle_graph", "cycle_with_pendants",
                 "path_graph", "petersen_graph", "random_connected",
                 "regular_blocks", "regular_template", "star_graph"),
    "graphcore": ("BudgetExceeded", "CertificationError", "DEFAULT_BUDGET",
                  "DegreeProfile", "Graph", "ParseError", "components_within",
                  "degree_profile", "is_in_class", "is_independent",
                  "load_graph", "parse_dimacs", "parse_edge_list",
                  "parse_graph", "require_in_class", "write_dimacs",
                  "write_edge_list"),
    "witness": ("BaseStep", "PeelStep", "WeightCheck", "WitnessResult",
                "brooks_coloring", "c_weights", "check_clique_weighting",
                "clipped_weights", "enumerate_maximal_cliques",
                "peel_witness"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "trace")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")        # which binds it here
        return globals()[name]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=(name,))
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
