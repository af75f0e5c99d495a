"""Command-line front end.

Subcommands: hurwitz, one-part-hurwitz, two-point, op-matrix,
verify-a1n2, eigencheck, make-table, each with its handler, help and flags
in the one table COMMANDS; a call builds only the subparser it names.
Output is machine-readable (JSON by default; LaTeX and CSV emitters for
matrices). Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import PoleAtOriginError, ResourceBudgetError
from .algebra import char_poly_squarefree
from .hurwitz import hurwitz, one_part_double_hurwitz
from .invariants import ZeroDegreeTable, two_point_series
from .operators import (
    check_n,
    closed_form_matrix_a1n2,
    default_divisor_basis,
    divisor_operator,
    eigen_certify,
    op_matrix_dumps,
    op_matrix_to_csv,
    op_matrix_to_latex,
    verify_a1n2,
    zero_degree_table_a1n2,
)
from .partitions import wp_size
from .surface import tangent_weights
from .textforms import parse_partition, parse_wp, series_to_json


def _parse_s_orders(text: str, r: int) -> tuple[int, ...]:
    chunks = [c for c in text.replace(",", " ").split() if c]
    if len(chunks) == 1:
        return (int(chunks[0]),) * r
    if len(chunks) != r:
        need = "1 s-order" if r == 1 else f"1 or {r} s-orders"
        raise ValueError(f"need {need}, got {len(chunks)}")
    return tuple(int(c) for c in chunks)


def _load_table(source: str | None) -> ZeroDegreeTable | None:
    if source is None:
        return None
    if source == "a1n2":
        return zero_degree_table_a1n2()
    return ZeroDegreeTable.load(source)


def _cmd_hurwitz(args) -> int:
    profiles = [parse_partition(p) for p in args.profiles.split(";") if p.strip()]
    print(hurwitz(profiles, args.n))
    return 0


def _cmd_one_part_hurwitz(args) -> int:
    sigma = parse_partition(args.sigma)
    if sum(sigma) != args.k:
        raise ValueError(f"sigma is a partition of {sum(sigma)}, not {args.k}")
    print(one_part_double_hurwitz(sigma, args.b))
    return 0


def _cmd_two_point(args) -> int:
    tangent_weights(args.r)  # rejects r < 1 before the s-orders are read
    check_n(args.n)
    left = parse_wp(args.left)
    right = parse_wp(args.right)
    if wp_size(left) != args.n or wp_size(right) != args.n:
        raise ValueError(
            f"--left/--right must be weighted partitions of n = {args.n} "
            f"(got sizes {wp_size(left)} and {wp_size(right)})"
        )
    s_orders = _parse_s_orders(args.s_orders, args.r)
    series = two_point_series(left, right, args.u_order, s_orders)
    payload = {
        "n": args.n,
        "r": args.r,
        "left": args.left,
        "right": args.right,
        **series_to_json(series),
    }
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def _cmd_op_matrix(args) -> int:
    tangent_weights(args.r)  # rejects r < 1 before the s-orders are read
    s_orders = _parse_s_orders(args.s_orders, args.r)
    table = _load_table(args.table)
    basis = default_divisor_basis(args.n, args.r)
    op = divisor_operator(
        args.n, args.r, args.divisor, basis, args.u_order, s_orders, table=table
    )
    if args.format == "latex":
        text = op_matrix_to_latex(op)
    elif args.format == "csv":
        text = op_matrix_to_csv(op)
    else:
        text = op_matrix_dumps(op)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)
    if op.gaps:
        print(
            f"note: {len(op.gaps)} entries have degree-zero gaps",
            file=sys.stderr,
        )
    return 0


def _cmd_verify_a1n2(args) -> int:
    table = _load_table(args.table)
    report = verify_a1n2(args.u_order, args.s_order, table)
    print(report.summary())
    return 0 if report.full_ok else 1


def _cmd_eigencheck(args) -> int:
    if args.identity_self_test:
        # negative control: the identity matrix must come out derogatory
        ident = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
        p, squarefree = char_poly_squarefree(ident)
        print(f"characteristic polynomial {p}")
        if squarefree:
            print("self-test FAILED: identity certified squarefree")
            return 1
        print("derogatory verdict (as expected for the identity)")
        return 0
    try:
        values = {
            "t1": Fraction(args.t1),
            "t2": Fraction(args.t2),
            "s1": Fraction(args.s),
            "q": Fraction(args.q),
        }
        report = eigen_certify(closed_form_matrix_a1n2, values)
    except ZeroDivisionError as exc:  # a zero denominator in a value, or a pole
        raise ValueError(f"evaluation pole or zero denominator: {exc}") from None
    print(report.summary())
    return 0 if report.squarefree else 1


def _cmd_make_table(args) -> int:
    if args.case != "a1n2":
        raise ValueError(f"unknown table case {args.case!r}")
    zero_degree_table_a1n2().save(args.out)
    print(f"wrote {args.out}")
    return 0


# subcommand -> (handler, help, flags as (name, add_argument keywords)); every
# subcommand also takes _CONFIG
COMMANDS = {
    "hurwitz": (_cmd_hurwitz, "Hurwitz numbers by class-algebra convolution", (
        ("--n", dict(type=int, default=None, help="cover degree")),
        ("--profiles", dict(required=True, help='ramification profiles, e.g. "2;2" or "2+1;3"')),
    )),
    "one-part-hurwitz": (_cmd_one_part_hurwitz, "one-part double Hurwitz number "
                         "H(sigma, (2)^b, (k)) from the sinh closed form", (
        ("--sigma", dict(required=True, help='a partition of k, e.g. "1+1"')),
        ("--k", dict(type=int, required=True, help="size of sigma")),
        ("--b", dict(type=int, required=True, help="number of simple branch points")),
    )),
    "two-point": (_cmd_two_point, "two-point extended series (nonzero degrees)", (
        ("--n", dict(type=int, required=True)),
        ("--r", dict(type=int, required=True)),
        ("--left", dict(required=True, help='weighted partition, e.g. "2(E1)"')),
        ("--right", dict(required=True)),
        ("--u-order", dict(type=int, default=0)),
        ("--s-orders", dict(default="3", help='e.g. "3" or "3,2" (one per E-curve)')),
    )),
    "op-matrix": (_cmd_op_matrix, "divisor-operator matrix", (
        ("--n", dict(type=int, required=True)),
        ("--r", dict(type=int, required=True)),
        ("--divisor", dict(default="D1", help='"(2)" or "D1".."Dr"')),
        ("--u-order", dict(type=int, default=2)),
        ("--s-orders", dict(default="3")),
        ("--table", dict(help='degree-zero table: a path or "a1n2"')),
        ("--format", dict(choices=("json", "latex", "csv"), default="json")),
        ("--out", dict(help="write to file instead of stdout")),
    )),
    "verify-a1n2": (_cmd_verify_a1n2, "check the computed n=2, r=1 "
                    "operator against the closed forms", (
        ("--u-order", dict(type=int, default=6)),
        ("--s-order", dict(type=int, default=6)),
        ("--table", dict(help="degree-zero table path (default: built in)")),
    )),
    "eigencheck": (_cmd_eigencheck, "squarefree characteristic-polynomial "
                   "certificate at an exact rational point", (
        ("--t1", dict(default="1")),
        ("--t2", dict(default="2")),
        ("--s", dict(default="1/3")),
        ("--q", dict(default="1/5")),
        ("--identity-self-test", dict(action="store_true",
                                      help="negative control on the identity matrix")),
    )),
    "make-table": (_cmd_make_table, "write a degree-zero table JSON file", (
        ("--case", dict(default="a1n2")),
        ("--out", dict(required=True)),
    )),
}
_CONFIG = ("--config", dict(help="JSON file with defaults for the flags"))


def build_parser(command=None) -> tuple[argparse.ArgumentParser, argparse.ArgumentParser | None]:
    """The top-level parser and `command`'s subparser, the only one built; when
    `command` names no subcommand, all are built and the second value is None."""
    parser = argparse.ArgumentParser(
        prog="symprod",
        description="Divisor operators of the orbifold quantum cohomology "
        "of symmetric products of A_r resolutions (exact arithmetic).",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # the usage line lists every subcommand either way; with all built, argparse's
    # own list keeps the name `command` in its invalid-choice error
    listed = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for name in names:
        func, help_text, flags = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in flags + (_CONFIG,):
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser, p if len(names) == 1 else None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sp = build_parser(argv[0] if argv else None)
    # the config is read before the full parse, so it can give required flags;
    # a bare --config is left for the full parse to report
    config_flag = argparse.ArgumentParser(add_help=False)
    config_flag.add_argument("--config", nargs="?")
    source = config_flag.parse_known_args(argv)[0].config if sp else None
    if source:
        try:
            with open(source, encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"expected a JSON object, got {type(config).__name__}")
        except (OSError, ValueError) as exc:  # ValueError includes JSONDecodeError
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        actions = {a.dest: a for a in sp._actions if a.dest != "help"}
        unknown = [k for k in config if k.replace("-", "_") not in actions]
        if unknown:
            parser.error(f"unknown config keys: {unknown}")
        config = {k.replace("-", "_"): v for k, v in config.items() if v is not None}
        # null leaves a flag unset; a switch takes only true/false, a valued flag no boolean
        for key, value in config.items():
            switch = actions[key].nargs == 0
            if isinstance(value, bool) != switch:
                rule = ("a switch takes true or false" if switch
                        else "a valued flag takes no boolean")
                parser.error(f"config key {key!r} has the value {value!r}: {rule}")
            actions[key].required = False
        # string defaults pass each flag's type check
        sp.set_defaults(**{k: v if isinstance(v, bool) else str(v) for k, v in config.items()})
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except PoleAtOriginError as exc:
        print(f"pole at origin: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
