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
import contextlib
import json
import os
import stat
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
    """``A`` or ``A/B`` with B at least 1, each part a number token as
    graph files spell them."""
    from fractions import Fraction
    a, sep, b = text.partition("/")
    try:
        a, b = _number(a), _number(b) if sep else 1
        if b < 1:
            raise ValueError(b)
    except ValueError:
        raise ValueError(f"not a rational number: {text!r}")
    return Fraction(a, b)


def _limit(value: int, what: str, cap: Optional[int] = None,
           positive: bool = False) -> int:
    """``value``, refused before any use if ``positive`` and it is below 1,
    or if it is above ``cap``."""
    if positive and value < 1:
        raise argparse.ArgumentTypeError(f"{what} must be positive")
    if cap is not None and value > cap:
        raise argparse.ArgumentTypeError(f"{what} too large: {value} (at most {cap})")
    return value


def _int_type(what: str = "", cap: Optional[int] = None, positive: bool = False):
    """argparse type: an int spelled as graph files spell vertex numbers,
    ASCII digits after an optional ``-``, then :func:`_limit`-ed."""
    def parse(text: str) -> int:
        try:
            value = _number(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        return _limit(value, what, cap, positive)
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
    return tuple(range(a, _limit(b, "degree", MAX_DELTA) + 1))


@contextlib.contextmanager
def _output(path: str):
    """``path`` open as a text file for a command's output, entered before
    any work.  Not truncated when opened: a run that fails leaves a file
    already at the path as it was and removes one it created, and one that
    succeeds cuts a regular file, never a device, to what it wrote."""
    created = not os.path.lexists(path)
    file = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8")
    try:
        with file:
            yield file
            if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
                file.truncate()     # what an older file held past the output
    except BaseException:
        if created:
            os.remove(path)
        raise


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
        seq = _cli.clipped_sequence(
            args.delta, None if args.c_delta is None else _parse_fraction(args.c_delta))
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
        return "decimal", _limit(digits, "digit count", MAX_DIGITS, positive=True)
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

def cmd_witness(args) -> int:
    with (_output(args.trace) if args.trace is not None
          else contextlib.nullcontext()) as trace_file:
        result = _cli.peel_witness(load_graph(args.graph))
        if trace_file is not None:
            _cli.trace.write(trace_file, args.graph, result)
    size = len(result.independent_set)
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
          + (f" written to {args.trace}" if args.trace is not None else ""))
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
GEN_OPTIONS = tuple(dict.fromkeys(n for names, *_ in GENERATORS.values() for n in names))


def _listed(options, conjunction: str) -> str:
    """``--a, --b and --c`` for the option names given."""
    *rest, last = [f"--{name}" for name in options]
    return f"{', '.join(rest)} {conjunction} {last}" if rest else last


def cmd_gen(args) -> int:
    names, required, build, size = GENERATORS[args.family]
    given = {name: getattr(args, name.replace("-", "_")) for name in GEN_OPTIONS}
    foreign = [name for name in GEN_OPTIONS if name not in names and given[name] is not None]
    if foreign:
        raise ValueError(f"{args.family} does not take {_listed(foreign, 'or')}")
    values = [given[name] for name in names]
    if None in values[:required]:
        raise ValueError(f"{args.family} needs {_listed(names[:required], 'and')}")
    # the one optional value, random's seed, is 0 when omitted
    values = [0 if v is None else v for v in values]
    n, m = size(*values)        # a family's refusal comes before the cap
    if n + m > MAX_GEN_SIZE:
        spelled = " ".join(f"--{name} {v}" for name, v in zip(names, values))
        raise ValueError(f"{args.family} {spelled} too large: {n} vertices and"
                         f" {m} edges (at most {MAX_GEN_SIZE} in all)")
    header = " ".join([f"gen {args.family}",
                       *(f"{name}={v}" for name, v in zip(names, values))])
    with (_output(args.output) if args.output is not None
          else contextlib.nullcontext(sys.stdout)) as out:
        out.write(write_edge_list(build(*values), header=header))
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

    pc = sub.add_parser("coeffs", help="print a coefficient sequence")
    pc.add_argument("--delta", type=_int_type("degree", MAX_DELTA), required=True)
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
    pe.add_argument("--budget", type=_int_type("budget", positive=True),
                    default=DEFAULT_BUDGET,
                    help=f"search node budget (default {DEFAULT_BUDGET})")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_exact)

    pg = sub.add_parser("gen", help="generate a family member as an edge list")
    pg.add_argument("family", choices=tuple(GENERATORS))
    for name in GEN_OPTIONS:
        pg.add_argument(f"--{name}", type=_int_type())
    pg.add_argument("-o", "--output")
    pg.set_defaults(func=cmd_gen)

    pv = sub.add_parser("verify", help="cross-check bounds, witness, exact")
    pv.add_argument("graph")
    pv.add_argument("--delta-range", type=_parse_range, default=())
    pv.add_argument("--exact-threshold", type=_int_type(), default=30,
                    help="run the exact solver when n is at most this")
    pv.add_argument("--budget", type=_int_type("budget", positive=True),
                    default=DEFAULT_BUDGET)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("table", help="c- and d-coefficients side by side")
    pt.add_argument("--delta", type=_int_type("degree", MAX_DELTA), required=True)
    pt.add_argument("--digits", type=_int_type("digit count", MAX_DIGITS, positive=True),
                    default=12)
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
