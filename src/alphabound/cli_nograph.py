"""The commands that read no graph file: ``coeffs``, ``gen`` and ``table``.

``cli`` registers every command by name and hands a job's arguments to the
module that defines its command, so only these three commands' jobs import
this module, and a graph job never compiles it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .cli import MAX_DELTA, _int_type, _limit, _output
from .graphcore import _number, write_edge_list

MAX_DIGITS = 1000       # most decimal places an option may ask for
MAX_GEN_SIZE = 4_000_000    # most vertices plus edges one gen may build


# ---------------------------------------------------------------------------
# coeffs

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


def _coeffs_arguments(p) -> None:
    p.add_argument("--delta", type=_int_type("degree", MAX_DELTA), required=True)
    p.add_argument("--kind", choices=("c", "d", "clipped"), default="c")
    p.add_argument("--c-delta", help="tail value for --kind clipped, e.g. 2/9")
    p.add_argument("--format", type=_parse_format, default=("rational", None),
                   help="rational (default) or decimal[:digits]")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coeffs)


def cmd_coeffs(args) -> int:
    from .coeffs import c_sequence, clipped_sequence, d_sequence, render_decimal
    if args.c_delta is not None and args.kind != "clipped":
        raise ValueError("--c-delta needs --kind clipped")
    if args.kind == "c":
        seq = c_sequence(args.delta)
    elif args.kind == "d":
        seq = d_sequence(args.delta)
    else:
        seq = clipped_sequence(
            args.delta, None if args.c_delta is None else _parse_fraction(args.c_delta))
    fmt, digits = args.format
    if fmt == "rational":
        values = [str(v) for v in seq]
    else:
        values = [render_decimal(v, digits) for v in seq]
    if args.json:
        print(json.dumps({"kind": seq.kind, "delta": seq.delta, "values": values},
                         indent=2, sort_keys=True))
    else:
        letter = "d" if seq.kind == "d" else "c"     # clipped is a c-variant
        for i, v in enumerate(values, start=1):
            print(f"{letter}[{i}] = {v}")
    return 0


# ---------------------------------------------------------------------------
# gen

def _family(name: str):
    """A call of ``families.<name>``, which imports ``families`` when first
    made."""
    def call(*values):
        from . import families
        return getattr(families, name)(*values)
    return call


# family -> (its options in header order, how many of them are required,
# the builder taking their values in that order, and the vertex and edge
# counts it builds from them, after the family's own argument checks; at
# most that many edges for random)
GENERATORS = {
    "regular-blocks": (("delta", "template-size"), 2,
                       lambda d, k: _family("regular_blocks")(
                           d, _family("regular_template")(d, k)),
                       _family("_regular_size")),
    "chain": (("delta", "blocks"), 2, _family("chain_blocks"), _family("_chain_size")),
    "attach": (("delta", "blocks", "clique"), 3, _family("attach_cliques"),
               _family("_attach_size")),
    "pendant-cycle": (("cycle",), 1, _family("cycle_with_pendants"),
                      _family("_pendant_cycle_size")),
    "random": (("vertices", "delta", "seed"), 2, _family("random_connected"),
               lambda n, d, seed: _family("_random_size")(n, d)),
}
GEN_OPTIONS = tuple(dict.fromkeys(n for names, *_ in GENERATORS.values() for n in names))


def _listed(options, conjunction: str) -> str:
    """``--a, --b and --c`` for the option names given."""
    *rest, last = [f"--{name}" for name in options]
    return f"{', '.join(rest)} {conjunction} {last}" if rest else last


def _gen_arguments(p) -> None:
    p.add_argument("family", choices=tuple(GENERATORS))
    for name in GEN_OPTIONS:
        p.add_argument(f"--{name}", type=_int_type())
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)


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
# table

def _table_arguments(p) -> None:
    p.add_argument("--delta", type=_int_type("degree", MAX_DELTA), required=True)
    p.add_argument("--digits", type=_int_type("digit count", MAX_DIGITS, positive=True),
                   default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)


def cmd_table(args) -> int:
    from .coeffs import c_sequence, d_sequence, render_decimal
    cs = c_sequence(args.delta)
    ds = d_sequence(args.delta)
    digits = args.digits
    rows = []
    for i in range(1, args.delta + 1):
        # |c - d|: rounding is odd-symmetric, and a 0 prints unsigned
        gap = render_decimal(cs[i] - ds[i], digits).lstrip("-")
        rows.append((i, str(cs[i]), render_decimal(cs[i], digits),
                     render_decimal(ds[i], digits), gap))
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
