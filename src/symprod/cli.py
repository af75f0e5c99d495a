"""Command-line front end.

Subcommands: hurwitz, one-part-hurwitz, two-point, op-matrix,
verify-a1n2, eigencheck, make-table. Output is machine-readable (JSON by
default; LaTeX and CSV emitters for matrices). Exit codes: 0 success,
1 verification mismatch, 2 usage error, 3 enumeration budget exceeded.
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
from .surface import tangent_weights
from .textforms import parse_partition, parse_wp, series_to_json


def _parse_s_orders(text: str, r: int) -> tuple[int, ...]:
    chunks = [c for c in text.replace(",", " ").split() if c]
    if len(chunks) == 1:
        return (int(chunks[0]),) * r
    if len(chunks) != r:
        raise ValueError(f"need 1 or {r} s-orders, got {len(chunks)}")
    return tuple(int(c) for c in chunks)


def _load_table(source: str | None) -> ZeroDegreeTable | None:
    if source is None:
        return None
    if source == "a1n2":
        return zero_degree_table_a1n2()
    return ZeroDegreeTable.load(source)


def _cmd_hurwitz(args) -> int:
    if args.profiles is None:
        raise ValueError("--profiles is required")
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
    from symprod.partitions import wp_size

    w = tangent_weights(args.r)
    left = parse_wp(args.left)
    right = parse_wp(args.right)
    if wp_size(left) != args.n or wp_size(right) != args.n:
        raise ValueError(
            f"--left/--right must be weighted partitions of n = {args.n} "
            f"(got sizes {wp_size(left)} and {wp_size(right)})"
        )
    s_orders = _parse_s_orders(args.s_orders, args.r)
    series = two_point_series(left, right, args.u_order, s_orders, w)
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
    w = tangent_weights(args.r)
    s_orders = _parse_s_orders(args.s_orders, args.r)
    table = _load_table(args.table)
    basis = default_divisor_basis(args.n, args.r)
    op = divisor_operator(
        args.n, args.r, args.divisor, basis, args.u_order, s_orders, w, table
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
    table = _load_table(args.table) if args.table else None
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


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="symprod",
        description="Divisor operators of the orbifold quantum cohomology "
        "of symmetric products of A_r resolutions (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = sub.add_parser("hurwitz", help="Hurwitz numbers by class-algebra convolution")
    p.add_argument("--n", type=int, default=None, help="cover degree")
    p.add_argument("--profiles", help='ramification profiles, e.g. "2;2" or "2+1;3"')
    p.set_defaults(func=_cmd_hurwitz)
    subparsers["hurwitz"] = p

    p = sub.add_parser("one-part-hurwitz", help="one-part double Hurwitz number "
                       "H(sigma, (2)^b, (k)) from the sinh closed form")
    p.add_argument("--sigma", required=True, help='a partition of k, e.g. "1+1"')
    p.add_argument("--k", type=int, required=True, help="size of sigma")
    p.add_argument("--b", type=int, required=True, help="number of simple branch points")
    p.set_defaults(func=_cmd_one_part_hurwitz)
    subparsers["one-part-hurwitz"] = p

    p = sub.add_parser("two-point", help="two-point extended series (nonzero degrees)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--left", required=True, help='weighted partition, e.g. "2(E1)"')
    p.add_argument("--right", required=True)
    p.add_argument("--u-order", type=int, default=0)
    p.add_argument("--s-orders", default="3", help='e.g. "3" or "3,2" (one per E-curve)')
    p.set_defaults(func=_cmd_two_point)
    subparsers["two-point"] = p

    p = sub.add_parser("op-matrix", help="divisor-operator matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--divisor", default="D1", help='"(2)" or "D1".."Dr"')
    p.add_argument("--u-order", type=int, default=2)
    p.add_argument("--s-orders", default="3")
    p.add_argument("--table", help='degree-zero table: a path or "a1n2"')
    p.add_argument("--format", choices=["json", "latex", "csv"], default="json")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_op_matrix)
    subparsers["op-matrix"] = p

    p = sub.add_parser("verify-a1n2", help="check the computed n=2, r=1 "
                       "operator against the closed forms")
    p.add_argument("--u-order", type=int, default=6)
    p.add_argument("--s-order", type=int, default=6)
    p.add_argument("--table", help="degree-zero table path (default: built in)")
    p.set_defaults(func=_cmd_verify_a1n2)
    subparsers["verify-a1n2"] = p

    p = sub.add_parser("eigencheck", help="squarefree characteristic-polynomial "
                       "certificate at an exact rational point")
    p.add_argument("--t1", default="1")
    p.add_argument("--t2", default="2")
    p.add_argument("--s", default="1/3")
    p.add_argument("--q", default="1/5")
    p.add_argument("--identity-self-test", action="store_true",
                   help="negative control on the identity matrix")
    p.set_defaults(func=_cmd_eigencheck)
    subparsers["eigencheck"] = p

    p = sub.add_parser("make-table", help="write a degree-zero table JSON file")
    p.add_argument("--case", default="a1n2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_table)
    subparsers["make-table"] = p

    for p in subparsers.values():
        p.add_argument("--config", help="JSON file with defaults for the flags")

    return parser, subparsers


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"expected a JSON object, got {type(config).__name__}")
        except (OSError, ValueError) as exc:  # ValueError includes JSONDecodeError
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        sp = subparsers[args.command]
        flags = set(vars(args)) - {"command", "func"}
        unknown = [k for k in config if k.replace("-", "_") not in flags]
        if unknown:
            parser.error(f"unknown config keys: {unknown}")
        config = {k.replace("-", "_"): v for k, v in config.items() if v is not None}
        # null leaves a flag unset; a switch takes only true/false, a valued flag no boolean
        switches = {a.dest for a in sp._actions if a.nargs == 0}
        for key, value in config.items():
            if isinstance(value, bool) != (key in switches):
                rule = ("a switch takes true or false" if key in switches
                        else "a valued flag takes no boolean")
                parser.error(f"config key {key!r} has the value {value!r}: {rule}")
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
