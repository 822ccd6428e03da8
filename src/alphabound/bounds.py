"""Lower bounds on the independence number from the degree profile.

All values are exact: rationals for the coefficient bounds, a + b/e for the
limiting-sequence bound.  Every bound requires the graph to be connected
with maximum degree >= 3 and different from the complete graph on
delta+1 vertices, except the Caro-Wei baseline which applies universally.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .coeffs import EulerLinear, c_sequence, d_sequence
from .graphcore import DegreeProfile, Graph, degree_profile, require_in_class


def brooks_bound(g: Graph) -> Fraction:
    """|V|/delta, the coloring pigeonhole bound."""
    delta = require_in_class(g)
    return Fraction(g.n, delta)


def _weighted_sum(seq, prof: DegreeProfile, upto: int):
    """sum seq[i] * |V_i| over 1 <= i <= upto: a Fraction for a c-sequence,
    an EulerLinear for the d-sequence (Fraction + EulerLinear is one)."""
    return sum((seq[i] * prof.count(i) for i in range(1, upto + 1)), Fraction(0))


def _truncated_sum(delta: int, prof: DegreeProfile, dprime: int) -> Fraction:
    if delta <= dprime:
        raise ValueError(
            f"truncation needs a coefficient degree above the graph's maximum"
            f" degree ({delta} <= {dprime})")
    return _weighted_sum(c_sequence(delta), prof, dprime)


def c_bound(g: Graph) -> Fraction:
    """sum c_i * |V_i| with coefficients for the graph's own maximum degree."""
    delta = require_in_class(g)
    return _weighted_sum(c_sequence(delta), degree_profile(g), delta)


def truncated_c_bound(g: Graph, delta: int) -> Fraction:
    """sum c_i * |V_i| using the first entries of a larger-degree sequence.

    Not comparable with :func:`c_bound` in general: entries alternate
    between larger and smaller as the target degree grows.
    """
    dprime = require_in_class(g)
    return _truncated_sum(delta, degree_profile(g), dprime)


def d_bound(g: Graph) -> EulerLinear:
    """sum d_i * |V_i| with the limiting coefficients, exact a + b/e."""
    dprime = require_in_class(g)
    return _weighted_sum(d_sequence(dprime), degree_profile(g), dprime)


def caro_wei_bound(g: Graph) -> Fraction:
    """sum 1/(d(v)+1); classical baseline, no class restriction."""
    return sum((Fraction(1, g.degree(v) + 1) for v in range(g.n)), Fraction(0))


class BoundReport(NamedTuple):
    brooks: Fraction
    weighted: Fraction                      # c_bound at the graph's own degree
    truncated: dict                         # target degree -> value
    euler: EulerLinear
    caro_wei: Fraction
    best: str
    profile: DegreeProfile                  # the degree classes behind every bound


def bound_report(g: Graph, truncation_deltas: Iterable[int] = ()) -> BoundReport:
    """Evaluate every applicable bound and name the largest.  The class
    check and the degree profile run once and feed every bound."""
    delta = require_in_class(g)
    prof = degree_profile(g)
    brooks = Fraction(g.n, delta)
    weighted = _weighted_sum(c_sequence(delta), prof, delta)
    truncated = {d: _truncated_sum(d, prof, delta)
                 for d in sorted(set(truncation_deltas))}
    euler = _weighted_sum(d_sequence(delta), prof, delta)
    cw = sum((Fraction(prof.count(i), i + 1) for i in range(delta + 1)), Fraction(0))
    candidates = [("brooks", brooks), ("weighted", weighted)]
    candidates += [(f"truncated[{d}]", v) for d, v in sorted(truncated.items())]
    candidates += [("euler", euler), ("caro_wei", cw)]
    # the first of equal values wins; EulerLinear compares exactly
    best = max(candidates, key=lambda c: c[1])[0]
    return BoundReport(brooks, weighted, truncated, euler, cw, best, prof)
