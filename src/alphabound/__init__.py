"""Degree-weighted lower bounds on the independence number of connected
graphs with bounded maximum degree, with certifying witnesses, exact
solvers, and the extremal families that make the bounds tight."""

from .bounds import (BoundReport, bound_report, brooks_bound, c_bound,
                     caro_wei_bound, d_bound, truncated_c_bound)
from .coeffs import (CoeffSequence, EulerLinear, c_explicit, c_sequence,
                     clipped_sequence, d_closed_form, d_sequence, e_enclosure,
                     render_decimal)
from .exact import (DEFAULT_BUDGET, BudgetExceeded, ExactResult, exact_alpha,
                    is_independent, naive_alpha)
from .families import (attach_cliques, chain_blocks, circulant_graph,
                       complete_graph, cycle_graph, cycle_with_pendants,
                       path_graph, petersen_graph, random_connected,
                       regular_blocks, regular_template, star_graph)
from .graphcore import (DegreeProfile, Graph, ParseError, components_within,
                        degree_profile, is_in_class, load_graph, parse_dimacs,
                        parse_edge_list, parse_graph, require_in_class,
                        write_dimacs, write_edge_list)
from .witness import (BaseStep, CertificationError, PeelStep, WeightCheck,
                      WitnessResult, brooks_coloring, brooks_independent_set,
                      c_weights, check_clique_weighting, clipped_weights,
                      enumerate_maximal_cliques, peel_witness,
                      select_peel_vertex)

__version__ = "0.1.0"

__all__ = [
    "BaseStep", "BoundReport", "BudgetExceeded", "CertificationError",
    "CoeffSequence", "DEFAULT_BUDGET", "DegreeProfile", "EulerLinear",
    "ExactResult", "Graph", "ParseError", "PeelStep", "WeightCheck",
    "WitnessResult", "attach_cliques", "bound_report", "brooks_bound",
    "brooks_coloring", "brooks_independent_set", "c_bound", "c_explicit",
    "c_sequence", "c_weights", "caro_wei_bound", "chain_blocks",
    "check_clique_weighting", "circulant_graph", "clipped_sequence",
    "clipped_weights", "complete_graph", "components_within",
    "cycle_graph", "cycle_with_pendants", "d_bound", "d_closed_form",
    "d_sequence", "degree_profile", "e_enclosure",
    "enumerate_maximal_cliques", "exact_alpha", "is_in_class",
    "is_independent", "load_graph", "naive_alpha", "parse_dimacs",
    "parse_edge_list", "parse_graph", "path_graph", "peel_witness",
    "petersen_graph", "random_connected", "regular_blocks",
    "regular_template", "render_decimal", "require_in_class",
    "select_peel_vertex", "star_graph", "truncated_c_bound", "write_dimacs",
    "write_edge_list",
]
