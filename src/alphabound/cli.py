"""Command-line front end.

Subcommands::

    coeffs   print a coefficient sequence
    bound    lower bounds for a graph file
    witness  build and verify an independent-set witness
    exact    exact independence number (branch and bound)
    gen      generate a named family member as an edge list
    verify   cross-check bounds, witness and exact solver on one graph
    table    side-by-side c- and d-coefficients for one max degree

Every command accepts ``--json`` where a machine-readable mirror makes
sense.  Output is deterministic: same invocation, same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .graphcore import (DEFAULT_BUDGET, BudgetExceeded, CertificationError,
                        Graph, _number, load_graph, write_edge_list)

_cli = sys.modules[__name__]        # this module, also when run as __main__


def __getattr__(name: str):
    # a library name or submodule that only some commands use, resolved
    # through the package on first access, so a job compiles only the
    # modules its command runs.  It is then kept here, where the tests and
    # the per-layer benchmark replace it; the commands call through _cli,
    # so a replacement sees every call.  The package's private and dunder
    # names (its __path__, say) are not this module's
    package = sys.modules[__package__]
    if name.startswith("_") or name not in dir(package):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


MAX_RANGE = 1000        # values one --delta-range may name
MAX_DELTA = 1600        # largest degree an option may name
MAX_DIGITS = 1000       # most decimal places an option may ask for
MAX_GEN_SIZE = 4_000_000    # most vertices plus edges one gen may build


def _parse_fraction(text: str):
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}")


def _at_most(cap: int, what: str, value: int) -> int:
    """``value``, refused before any use if it is above ``cap``."""
    if value > cap:
        raise argparse.ArgumentTypeError(f"{what} too large: {value} (at most {cap})")
    return value


def _integer(text: str) -> int:
    """argparse type: an int spelled as graph files spell vertex numbers,
    ASCII digits after an optional ``-``."""
    try:
        return _number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _bounded_int(cap: int, what: str):
    """argparse type: an :func:`_integer` of at most ``cap``."""
    def parse(text: str) -> int:
        return _at_most(cap, what, _integer(text))
    return parse


def _parse_range(text: str) -> tuple[int, ...]:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        a, b = _number(lo), _number(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a range: {text!r} (expected A..B)")
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    if b - a >= MAX_RANGE:      # refuse before the tuple is built
        raise argparse.ArgumentTypeError(
            f"range too long: {text!r} (at most {MAX_RANGE} values)")
    return tuple(range(a, _at_most(MAX_DELTA, "degree", b) + 1))


# ---------------------------------------------------------------------------
# coeffs

def cmd_coeffs(args) -> int:
    if args.c_delta is not None and args.kind != "clipped":
        raise ValueError("--c-delta needs --kind clipped")
    if args.kind == "c":
        seq = _cli.c_sequence(args.delta)
    elif args.kind == "d":
        seq = _cli.d_sequence(args.delta)
    else:
        seq = _cli.clipped_sequence(args.delta, _parse_fraction(args.c_delta) if args.c_delta else None)
    fmt, digits = args.format
    if fmt == "rational":
        values = [str(v) for v in seq]
    else:
        values = [_cli.render_decimal(v, digits) for v in seq]
    if args.json:
        print(json.dumps({"kind": seq.kind, "delta": seq.delta, "values": values},
                         indent=2, sort_keys=True))
    else:
        letter = "d" if seq.kind == "d" else "c"     # clipped is a c-variant
        for i, v in enumerate(values, start=1):
            print(f"{letter}[{i}] = {v}")
    return 0


def _digit_count(digits: int) -> int:
    """``digits`` as decimal places: positive, and at most MAX_DIGITS."""
    if digits < 1:
        raise argparse.ArgumentTypeError("digit count must be positive")
    return _at_most(MAX_DIGITS, "digit count", digits)


def _parse_digits(text: str) -> int:
    """argparse type: an :func:`_integer` that is a :func:`_digit_count`."""
    return _digit_count(_integer(text))


def _parse_format(text: str):
    if text == "rational":
        return "rational", None
    if text == "decimal" or text.startswith("decimal:"):
        digits = 12
        if ":" in text:
            try:
                digits = _number(text.partition(":")[2])
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad digit count in {text!r}")
        return "decimal", _digit_count(digits)
    raise argparse.ArgumentTypeError(f"unknown format {text!r}; use rational or decimal[:N]")


# ---------------------------------------------------------------------------
# bound

def _bound_rows(g: Graph, deltas: tuple[int, ...]):
    report = _cli.bound_report(g, truncation_deltas=deltas)
    rows = [("brooks", report.brooks), ("weighted", report.weighted)]
    rows += [(f"truncated[{d}]", report.truncated[d]) for d in sorted(report.truncated)]
    rows += [("euler", report.euler), ("caro-wei", report.caro_wei)]
    return report, rows


def cmd_bound(args) -> int:
    g = load_graph(args.graph)
    report, rows = _bound_rows(g, args.delta_range)
    delta = report.profile.delta_max
    classes = [(i, k) for i, k in enumerate(report.profile.counts) if i and k]
    if args.json:
        data = {
            "graph": args.graph,
            "n": g.n,
            "m": g.m,
            "delta": delta,
            "degree_classes": {str(i): k for i, k in classes},
            "bounds": {name: {"exact": str(v), "decimal": _cli.render_decimal(v)}
                       for name, v in rows},
            "best": report.best,
        }
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    print(f"graph: {args.graph} (n={g.n}, m={g.m}, max degree {delta})")
    print("degree classes: " + ", ".join(f"|V_{i}|={k}" for i, k in classes))
    width = max(len(name) for name, _ in rows)
    for name, v in rows:
        print(f"{name.ljust(width)}  {str(v):>18}  {_cli.render_decimal(v)}")
    print(f"best: {report.best}")
    return 0


# ---------------------------------------------------------------------------
# witness

def _step_dict(step) -> dict:
    """A trace record as written: its fields, with ``kind`` written as
    ``type`` and a peel step typed ``"peel"``."""
    fields = step._asdict()
    fields["type"] = fields.pop("kind", "peel")
    return fields


def _json_default(value):
    """Exact values are written as strings such as ``"7/8"``."""
    from fractions import Fraction
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def cmd_witness(args) -> int:
    g = load_graph(args.graph)
    result = _cli.peel_witness(g)
    size = len(result.independent_set)
    if args.trace:
        head = json.dumps({
            "graph": args.graph,
            "independent_set": list(result.independent_set),
            "certified_bound": str(result.certified_bound),
        }, sort_keys=True)
        with open(args.trace, "w", encoding="utf-8") as fh:
            # the top-level keys on the first line, then one step per line;
            # "steps" sorts after the other keys, so key order is unchanged
            fh.write(head[:-1] + ', "steps": [\n')
            fh.write(",\n".join(json.dumps(_step_dict(s), sort_keys=True,
                                            default=_json_default)
                                 for s in result.trace))
            fh.write("\n]}\n")
    if args.json:
        print(json.dumps({
            "size": size,
            "bound": str(result.certified_bound),
            "bound_decimal": _cli.render_decimal(result.certified_bound),
            "independent_set": list(result.independent_set),
            "steps": len(result.trace),
        }, indent=2, sort_keys=True))
        return 0
    print(f"independent set of size {size}: "
          + " ".join(str(v) for v in result.independent_set))
    print(f"certified bound: {result.certified_bound} "
          f"(= {_cli.render_decimal(result.certified_bound)})")
    print(f"check: {size} >= {result.certified_bound}: ok")
    print(f"trace: {len(result.trace)} steps"
          + (f" written to {args.trace}" if args.trace else ""))
    return 0


# ---------------------------------------------------------------------------
# exact

def cmd_exact(args) -> int:
    g = load_graph(args.graph)
    result = _cli.exact_alpha(g, budget=args.budget)
    if args.json:
        print(json.dumps({
            "alpha": result.alpha,
            "nodes": result.nodes_explored,
            "optimal_set": sorted(result.optimal_set),
        }, indent=2, sort_keys=True))
        return 0
    print(f"alpha = {result.alpha}")
    print("optimal set: " + " ".join(str(v) for v in sorted(result.optimal_set)))
    print(f"nodes explored: {result.nodes_explored}")
    return 0


# ---------------------------------------------------------------------------
# gen

def _family(name: str):
    """A call of ``families.<name>``, which imports ``families`` when first
    made."""
    return lambda *values: getattr(_cli.families, name)(*values)


# family -> (its options in header order, how many of them are required,
# the builder taking their values in that order, and the vertex and edge
# counts it builds from them, after the family's own argument checks; at
# most that many edges for random)
GENERATORS = {
    "regular-blocks": (("delta", "template-size"), 2,
                       lambda d, k: _cli.regular_blocks(d, _cli.regular_template(d, k)),
                       _family("_regular_size")),
    "chain": (("delta", "blocks"), 2, _family("chain_blocks"), _family("_chain_size")),
    "attach": (("delta", "blocks", "clique"), 3, _family("attach_cliques"),
               _family("_attach_size")),
    "pendant-cycle": (("cycle",), 1, _family("cycle_with_pendants"),
                      _family("_pendant_cycle_size")),
    "random": (("vertices", "delta", "seed"), 2, _family("random_connected"),
               lambda n, d, seed: _cli.families._random_size(n, d)),
}


def cmd_gen(args) -> int:
    names, required, build, size = GENERATORS[args.family]
    values = [getattr(args, name.replace("-", "_")) for name in names]
    if None in values[:required]:
        *rest, last = [f"--{name}" for name in names[:required]]
        listed = f"{', '.join(rest)} and {last}" if rest else last
        raise ValueError(f"{args.family} needs {listed}")
    n, m = size(*values)        # a family's refusal comes before the cap
    if n + m > MAX_GEN_SIZE:
        given = " ".join(f"--{name} {v}" for name, v in zip(names, values))
        raise ValueError(f"{args.family} {given} too large: {n} vertices and"
                         f" {m} edges (at most {MAX_GEN_SIZE} in all)")
    header = " ".join([f"gen {args.family}",
                       *(f"{name}={v}" for name, v in zip(names, values))])
    text = write_edge_list(build(*values), header=header)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    g = load_graph(args.graph)
    checks: list[tuple[str, bool, str]] = []
    report, rows = _bound_rows(g, args.delta_range)
    delta = report.profile.delta_max

    result = _cli.peel_witness(g)
    size = len(result.independent_set)
    checks.append(("witness covers weighted bound",
                   size >= report.weighted,
                   f"{size} >= {report.weighted}"))

    wcheck = _cli.check_clique_weighting(g, _cli.clipped_weights(g))
    checks.append(("clipped weighting satisfies clique conditions", wcheck.ok,
                   f"total {wcheck.total}" if wcheck.ok else
                   (f"vertex {wcheck.violating_vertex} over cap"
                    if wcheck.violating_vertex is not None
                    else f"clique {wcheck.violating_clique} over 1")))

    alpha: Optional[int] = None
    if g.n <= args.exact_threshold:
        alpha = _cli.exact_alpha(g, budget=args.budget).alpha
        for name, value in rows:
            checks.append((f"{name} bound <= alpha", value <= alpha,
                           f"{value} <= {alpha}"))
        checks.append(("witness size <= alpha", size <= alpha, f"{size} <= {alpha}"))
        if wcheck.ok:
            checks.append(("weighting total <= alpha", wcheck.total <= alpha,
                           f"{wcheck.total} <= {alpha}"))

    ok_all = all(ok for _, ok, _ in checks)
    if args.json:
        print(json.dumps({
            "graph": args.graph,
            "delta": delta,
            "alpha": alpha,
            "witness_size": size,
            "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in checks],
            "ok": ok_all,
        }, indent=2, sort_keys=True))
    else:
        print(f"graph: {args.graph} (n={g.n}, m={g.m}, max degree {delta})")
        if alpha is not None:
            print(f"alpha = {alpha}")
        for name, ok, detail in checks:
            print(f"check {name}: {'ok' if ok else 'FAIL'} ({detail})")
        print("all checks passed" if ok_all else "VERIFICATION FAILED")
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# table

def cmd_table(args) -> int:
    cs = _cli.c_sequence(args.delta)
    ds = _cli.d_sequence(args.delta)
    digits = args.digits
    rows = []
    for i in range(1, args.delta + 1):
        # |c - d|: rounding is odd-symmetric, and a 0 prints unsigned
        gap = _cli.render_decimal(cs[i] - ds[i], digits).lstrip("-")
        rows.append((i, str(cs[i]), _cli.render_decimal(cs[i], digits),
                     _cli.render_decimal(ds[i], digits), gap))
    if args.json:
        print(json.dumps([{"i": i, "c": ce, "c_decimal": cd,
                           "d_decimal": dd, "gap": gp}
                          for i, ce, cd, dd, gp in rows],
                         indent=2, sort_keys=True))
        return 0
    head = ("i", "c exact", "c decimal", "d decimal", "|c - d|")
    widths = [max(len(str(r[k])) for r in rows + [head]) for k in range(5)]
    print("  ".join(h.ljust(w) for h, w in zip(head, widths)))
    for r in rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="alphabound",
        description="Degree-weighted lower bounds on the independence number "
                    "of connected bounded-degree graphs, with witnesses.")
    sub = p.add_subparsers(dest="command", required=True)
    delta_type = _bounded_int(MAX_DELTA, "degree")

    pc = sub.add_parser("coeffs", help="print a coefficient sequence")
    pc.add_argument("--delta", type=delta_type, required=True)
    pc.add_argument("--kind", choices=("c", "d", "clipped"), default="c")
    pc.add_argument("--c-delta", help="tail value for --kind clipped, e.g. 2/9")
    pc.add_argument("--format", type=_parse_format, default=("rational", None),
                    help="rational (default) or decimal[:digits]")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_coeffs)

    pb = sub.add_parser("bound", help="lower bounds for a graph file")
    pb.add_argument("graph")
    pb.add_argument("--delta-range", type=_parse_range, default=(),
                    help="also evaluate truncated bounds for A..B")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=cmd_bound)

    pw = sub.add_parser("witness", help="independent-set witness for the bound")
    pw.add_argument("graph")
    pw.add_argument("--trace", help="write the step trace to this JSON file")
    pw.add_argument("--json", action="store_true")
    pw.set_defaults(func=cmd_witness)

    pe = sub.add_parser("exact", help="exact independence number")
    pe.add_argument("graph")
    pe.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET,
                    help=f"search node budget (default {DEFAULT_BUDGET})")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_exact)

    pg = sub.add_parser("gen", help="generate a family member as an edge list")
    pg.add_argument("family", choices=tuple(GENERATORS))
    for name in dict.fromkeys(n for names, *_ in GENERATORS.values() for n in names):
        pg.add_argument(f"--{name}", type=_integer, default=0 if name == "seed" else None)
    pg.add_argument("-o", "--output")
    pg.set_defaults(func=cmd_gen)

    pv = sub.add_parser("verify", help="cross-check bounds, witness, exact")
    pv.add_argument("graph")
    pv.add_argument("--delta-range", type=_parse_range, default=())
    pv.add_argument("--exact-threshold", type=_integer, default=30,
                    help="run the exact solver when n is at most this")
    pv.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("table", help="c- and d-coefficients side by side")
    pt.add_argument("--delta", type=delta_type, required=True)
    pt.add_argument("--digits", type=_parse_digits, default=12)
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(func=cmd_table)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact values at large degree (from about 1560 on) have more digits
    # than str(int) prints by default; lift that limit, where the running
    # Python has one, for this call only
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()          # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: exit quietly, and let the flush at interpreter
        # exit write what is left to the null device, not the closed pipe
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CertificationError as exc:
        print(f"error: certification failed: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"error: {exc}; best found so far has size {exc.best_size}",
              file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:     # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if lift:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
