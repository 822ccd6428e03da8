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
sense.  Output is deterministic: same invocation, same bytes.  The commands
that read no graph file, ``coeffs``, ``gen`` and ``table``, are defined in
``cli_nograph``, which only their jobs import.
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
                        Graph, _number, load_graph)

_cli = sys.modules[__name__]        # this module, also when run as __main__
# run as __main__, it is entered under its own name too, so that
# cli_nograph's import of it finds this module instead of compiling another
sys.modules.setdefault(f"{__package__}.cli", _cli)


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
# bound

def _bound_rows(g: Graph, deltas: tuple[int, ...]):
    report = _cli.bound_report(g, truncation_deltas=deltas)
    rows = [("brooks", report.brooks), ("weighted", report.weighted)]
    rows += [(f"truncated[{d}]", report.truncated[d]) for d in sorted(report.truncated)]
    rows += [("euler", report.euler), ("caro-wei", report.caro_wei)]
    return report, rows


def _bound_arguments(p) -> None:
    p.add_argument("graph")
    p.add_argument("--delta-range", type=_parse_range, default=(),
                   help="also evaluate truncated bounds for A..B")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)


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

def _witness_arguments(p) -> None:
    p.add_argument("graph")
    p.add_argument("--trace", help="write the step trace to this JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_witness)


def _is_file(file, path: str) -> bool:
    """Whether the open ``file`` is the file at ``path``, also through a
    link; False if there is nothing at ``path``, which load_graph reports."""
    try:
        return os.path.samestat(os.fstat(file.fileno()), os.stat(path))
    except OSError:
        return False


def cmd_witness(args) -> int:
    with (_output(args.trace) if args.trace is not None
          else contextlib.nullcontext()) as trace_file:
        if trace_file is not None and _is_file(trace_file, args.graph):
            # the trace would overwrite its own input
            raise ValueError(f"--trace {args.trace!r} is the graph file")
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

def _exact_arguments(p) -> None:
    p.add_argument("graph")
    p.add_argument("--budget", type=_int_type("budget", positive=True),
                   default=DEFAULT_BUDGET,
                   help=f"search node budget (default {DEFAULT_BUDGET})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_exact)


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
# verify

def _verify_arguments(p) -> None:
    p.add_argument("graph")
    p.add_argument("--delta-range", type=_parse_range, default=())
    p.add_argument("--exact-threshold", type=_int_type(), default=30,
                   help="run the exact solver when n is at most this")
    p.add_argument("--budget", type=_int_type("budget", positive=True),
                   default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)


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
# parser

# command -> its help, and the module defining cmd_<command> and
# _<command>_arguments(parser), which adds its arguments
COMMANDS = {
    "coeffs": ("print a coefficient sequence", "cli_nograph"),
    "bound": ("lower bounds for a graph file", "cli"),
    "witness": ("independent-set witness for the bound", "cli"),
    "exact": ("exact independence number", "cli"),
    "gen": ("generate a family member as an edge list", "cli_nograph"),
    "verify": ("cross-check bounds, witness, exact", "cli"),
    "table": ("c- and d-coefficients side by side", "cli_nograph"),
}


class _Command(argparse.ArgumentParser):
    """One command's parser, which gets its arguments when it first parses.
    The main parser's help, usage and refusals need none, so a job builds,
    and imports the module of, only the command that argparse picks."""

    def __init__(self, command: str, **kwargs):
        super().__init__(**kwargs)
        self._pending = command

    def parse_known_args(self, args=None, namespace=None):
        if self._pending:
            module = f"{__package__}.{COMMANDS[self._pending][1]}"
            __import__(module)
            getattr(sys.modules[module], f"_{self._pending}_arguments")(self)
            self._pending = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="alphabound",
        description="Degree-weighted lower bounds on the independence number "
                    "of connected bounded-degree graphs, with witnesses.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, (summary, _) in COMMANDS.items():
        sub.add_parser(name, help=summary, command=name)
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
