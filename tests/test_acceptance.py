"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line so the
suite output doubles as a checklist.  Tolerances are pinned here and not
loosened elsewhere: rational checks are exact equalities, the limit
comparison uses 1e-10 via certified enclosures, and the soundness sweep
must finish in under 300 seconds.
"""

import decimal
import random
import time
from fractions import Fraction as F
from functools import lru_cache

from test_exact import naive_alpha

from alphabound.bounds import (brooks_bound, c_bound, caro_wei_bound, d_bound,
                               truncated_c_bound)
from alphabound.coeffs import (c_explicit, c_sequence, d_closed_form,
                               d_sequence, e_enclosure)
from alphabound.exact import exact_alpha
from alphabound.families import (attach_cliques, chain_blocks,
                                 cycle_with_pendants, petersen_graph,
                                 random_connected, regular_blocks,
                                 regular_template, circulant_graph)
from alphabound.graphcore import Graph, is_independent
from alphabound.witness import (PeelStep, c_weights, check_clique_weighting,
                                clipped_weights, peel_witness)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"criterion {num} failed: {detail}"


@lru_cache(maxsize=None)
def _corpus():
    """1000 seeded random class members per max degree 3..6, n <= 14."""
    out = []
    for delta in (3, 4, 5, 6):
        for idx in range(1000):
            seed = 1000 * delta + idx
            n = random.Random(seed).randint(delta + 1, 14)
            out.append((delta, random_connected(n, delta, seed)))
    return out


@lru_cache(maxsize=None)
def _alphas():
    return [exact_alpha(g).alpha for _, g in _corpus()]


def test_criterion_01_coefficient_exactness():
    ok = (list(c_sequence(3)) == [F(2, 3), F(1, 3), F(1, 3)]
          and list(c_sequence(4)) == [F(5, 8), F(3, 8), F(1, 4), F(1, 4)]
          and list(c_sequence(6))[:4] == [F(91, 144), F(53, 144), F(19, 72), F(5, 24)])
    # timing: best of five uncached recursions, all three deltas per run
    uncached = c_sequence.__wrapped__
    uncached(6)  # warm-up
    best = min(
        (lambda t0: (uncached(3), uncached(4), uncached(6),
                     time.perf_counter() - t0)[-1])(time.perf_counter())
        for _ in range(5))
    ok = ok and best < 1e-3
    _report(1, "exact coefficient values, under a millisecond", ok,
            f"best recursion time {best * 1e6:.1f} us")


def test_criterion_02_recursion_identities():
    bad = []
    for delta in range(3, 51):
        c = c_sequence(delta)
        for i in range(1, delta - 1):
            if not (F(1, i + 1) < c[i] == F(1, i + 1) + c[i + 2] / (i * (i + 1))):
                bad.append((delta, i, "two-step identity"))
        for i in range(1, delta - 1):
            if not c[i] > c[i + 1]:
                bad.append((delta, i, "not strictly decreasing"))
        if not c[delta - 1] == c[delta] == F(1, delta):
            bad.append((delta, delta, "tail"))
    for delta in range(3, 31):
        c = c_sequence(delta)
        for i in range(1, delta + 1):
            if c_explicit(i, delta) != c[i]:
                bad.append((delta, i, "closed form"))
    _report(2, "recursion identities and closed forms", not bad,
            f"{len(bad)} violations, first {bad[:3]}" if bad else "all exact")


def test_criterion_03_limit_sequence_algebra():
    d = d_sequence(20)
    ok = (d[1].a, d[1].b) == (1, -1) and (d[3].a, d[3].b) == (1, -2)
    for i in range(1, 21):
        cf = d_closed_form(i)
        ok = ok and (cf.a, cf.b) == (d[i].a, d[i].b)
    ok = ok and d[1].decimal(4) == "0.6321" and d[3].decimal(4) == "0.2642"
    _report(3, "exact a + b/e limit coefficients", ok)


def test_criterion_04_convergence_to_limit():
    tol = F(1, 10 ** 10)
    c40 = c_sequence(40)
    d = d_sequence(6)
    worst = F(0)
    ok = True
    for i in range(1, 7):
        lo, hi = (c40[i] - d[i]).interval(50)
        width = max(abs(lo), abs(hi))
        worst = max(worst, width)
        ok = ok and width < tol
    # independent cross-check of the enclosure machinery itself
    lo, hi = e_enclosure(50)
    decimal.getcontext().prec = 80
    e_ref = decimal.Decimal(1).exp()
    ok = ok and (decimal.Decimal(lo.numerator) / lo.denominator < e_ref
                 < decimal.Decimal(hi.numerator) / hi.denominator)
    _report(4, "coefficients within 1e-10 of the limit at delta 40", ok,
            f"worst certified gap {float(worst):.2e}")


def test_criterion_05_soundness_sweep():
    t0 = time.perf_counter()
    violations = []
    for (delta, g), alpha in zip(_corpus(), _alphas()):
        if not (brooks_bound(g) <= alpha and c_bound(g) <= alpha
                and caro_wei_bound(g) <= alpha and d_bound(g) <= alpha):
            violations.append((delta, g))
        for d2 in range(delta + 1, delta + 4):
            if not truncated_c_bound(g, d2) <= alpha:
                violations.append((delta, g, d2))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 300
    _report(5, "every bound below alpha on 4000 random members", ok,
            f"{len(violations)} violations, {elapsed:.1f}s")


def test_criterion_06_witness_certification():
    t0 = time.perf_counter()
    violations = 0
    for delta, g in _corpus():
        r = peel_witness(g)
        if not is_independent(g, r.independent_set):
            violations += 1
        if F(len(r.independent_set)) < c_bound(g):
            violations += 1
        for step in r.trace:
            if isinstance(step, PeelStep) and step.share > 1:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 300
    _report(6, "witness covers the bound with unit peel shares", ok,
            f"{violations} violations, {elapsed:.1f}s")


def test_criterion_07_tight_families():
    bad = []
    for delta in (3, 4, 5):
        for k in range(2, 7):
            g = chain_blocks(delta, k)
            if not exact_alpha(g).alpha == c_bound(g) == k:
                bad.append(("chain", delta, k))
    for delta in (4, 5):
        for j in range(1, delta - 1):
            for k in range(2, 5):
                g = attach_cliques(delta, k, j)
                t = k * delta - (2 * k - 2)
                if not exact_alpha(g).alpha == c_bound(g) == k + t:
                    bad.append(("attach", delta, k, j))
    for delta, k in ((3, 4), (3, 6), (3, 8), (4, 5), (4, 6)):
        g = regular_blocks(delta, regular_template(delta, k))
        if not exact_alpha(g).alpha == c_bound(g) == k:
            bad.append(("blocks", delta, k))
    _report(7, "alpha equals the bound on every tight family", not bad,
            f"failing instances {bad}" if bad else "all exactly tight")


def test_criterion_08_pendant_cycle_strict_chain():
    g = cycle_with_pendants(100)
    alpha = exact_alpha(g).alpha
    trunc6 = truncated_c_bound(g, 6)
    weighted = c_bound(g)
    ok = (alpha == 101
          and trunc6 == F(91, 144) * 101 + F(19, 72) * 99 + F(5, 24)
          and weighted == F(5, 8) * 101 + F(1, 4) * 99 + F(1, 4)
          and F(101) > trunc6 > weighted
          and d_bound(g) > trunc6)
    _report(8, "strict bound chain on the 100-cycle with pendants", ok,
            f"101 > {trunc6} > {weighted}, limit bound in between")


def test_criterion_09_clique_weighting_verifier():
    violations = []
    passed = 0
    for idx in range(200):
        delta = 3 + idx % 4
        seed = 9000 + idx
        n = random.Random(seed).randint(delta + 1, 12)
        g = random_connected(n, delta, seed)
        res = check_clique_weighting(g, clipped_weights(g))
        if res.ok:
            passed += 1
            if exact_alpha(g).alpha < res.total:
                violations.append(("alpha below certified total", idx))
        if min(map(len, g.adj)) == g.max_degree():
            bad = check_clique_weighting(g, c_weights(g))
            if bad.ok or bad.violating_vertex is None:
                violations.append(("regular instance passed the cap", idx))
    # explicit regular instances, so the cap clause is never vacuous
    for g in (petersen_graph(), circulant_graph(9, (1, 2)),
              circulant_graph(12, (1, 2, 3)),
              regular_blocks(3, regular_template(3, 4))):
        bad = check_clique_weighting(g, c_weights(g))
        if bad.ok or bad.violating_vertex is None:
            violations.append(("explicit regular instance passed the cap",))
        if not check_clique_weighting(g, clipped_weights(g)).ok:
            violations.append(("clipped weights rejected on a member",))
    _report(9, "weighting verifier sound, plain weights fail when regular",
            not violations, f"{passed}/200 clipped checks passed"
            if not violations else str(violations[:3]))


def test_criterion_10_exact_solver_integrity():
    mismatches = 0
    for idx in range(100):
        rng = random.Random(5000 + idx)
        n = rng.randint(1, 12)
        p = rng.choice([0.15, 0.3, 0.5, 0.75])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = Graph(n, edges)
        if exact_alpha(g).alpha != naive_alpha(g):
            mismatches += 1
    _report(10, "branch and bound agrees with full enumeration", mismatches == 0,
            f"{mismatches} mismatches")
