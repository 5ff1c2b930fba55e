"""Command-line front end: compute, inspect, verify, and export.

Exit codes: 0 success, 1 usage or parse problem, 2 unsupported shape.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .battery import run_battery
from .partitions import format_partition, parse_partition
from .stats import full_type, stat_pair, unimodal_profile, is_unimodal
from .tableaux import parse_tableau, charge
from .vertex import UnsupportedShapeError, hall_littlewood, kostka, macdonald


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for unsupported shapes
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _partition(text: str):
    lam = parse_partition(text)
    if not lam:
        raise ValueError(f"empty partition {text!r}")
    return lam


def _word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    # charge refuses a letter below 1
    if "," in text:
        return tuple(int(piece) for piece in text.split(","))
    return tuple(int(ch) for ch in text)


def _emit(fmt, mu, terms, payload, header, rows) -> int:
    """Print one result in format fmt: payload() as JSON, header and rows as
    CSV, or one LaTeX line K_{lam,mu} = coeff per (lam, coeff) in terms."""
    if fmt == "json":
        print(json.dumps(payload(), indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for lam, coeff in terms:
            print(f"K_{{({format_partition(lam)}),({format_partition(mu)})}} &= {coeff.latex()} \\\\")
    return 0


def _cmd_expansion(args) -> int:
    mu = _partition(args.mu)
    expansion = args.expand(mu)
    terms = expansion.terms()
    return _emit(
        args.format,
        mu,
        terms,
        lambda: {"mu": list(mu), "expansion": expansion.to_json()},
        ["shape", "coefficient"],
        ([format_partition(lam), str(coeff)] for lam, coeff in terms),
    )


def _cmd_kostka(args) -> int:
    lam, mu = _partition(args.lam), _partition(args.mu)
    coeff = kostka(lam, mu)
    return _emit(
        args.format,
        mu,
        [(lam, coeff)],
        lambda: {"lambda": list(lam), "mu": list(mu), "coefficient": coeff.to_terms()},
        ["q_power", "t_power", "coefficient"],
        ([dq, dt, c] for (dq, dt), c in coeff.terms()),
    )


def _cmd_charge(args) -> int:
    print(charge(_word(args.word)))
    return 0


def _cmd_stats(args) -> int:
    a, b = stat_pair(_partition(args.mu), parse_tableau(args.tableau))
    print(f"a={a} b={b}")
    return 0


def _cmd_type(args) -> int:
    print(full_type(_partition(args.mu), parse_tableau(args.tableau)).text())
    return 0


def _cmd_unimodal(args) -> int:
    profile = unimodal_profile(_partition(args.mu))
    for kind, seq in profile.items():
        verdict = "unimodal" if is_unimodal(seq) else "not-unimodal"
        print(f"{kind.text()} {','.join(map(str, seq))} {verdict}")
    return 0


def _cmd_verify(args) -> int:
    # a flag left out takes run_battery's default, which also checks every value;
    # its parameters are the first names of its code, or of the function it wraps
    code = getattr(run_battery, "__wrapped__", run_battery).__code__
    names = code.co_varnames[: code.co_argcount]
    report = run_battery(**{n: getattr(args, n) for n in names if getattr(args, n) is not None})
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0 if all(entry["status"] == "pass" for entry in report) else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="qtkostka", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_format(p):
        p.add_argument("--format", choices=("json", "csv", "latex"), default="json")

    def expansion(name, expand, text):
        p = sub.add_parser(name, help=text)
        p.add_argument("--mu", required=True)
        with_format(p)
        p.set_defaults(handler=_cmd_expansion, expand=expand)

    expansion("macdonald", macdonald, "Schur expansion of H_mu[X;q,t]")

    p = sub.add_parser("kostka", help="one coefficient K_{lambda,mu}(q,t)")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)
    with_format(p)
    p.set_defaults(handler=_cmd_kostka)

    expansion("hl", hall_littlewood, "Schur expansion of H_mu[X;t]")

    p = sub.add_parser("charge", help="charge of a word")
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_charge)

    p = sub.add_parser("stats", help="the statistics a, b of a standard tableau")
    p.add_argument("--mu", required=True)
    p.add_argument("--tableau", required=True)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("type", help="full type (head and block types) of a standard tableau")
    p.add_argument("--mu", required=True)
    p.add_argument("--tableau", required=True)
    p.set_defaults(handler=_cmd_type)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--max-n", type=int)
    p.add_argument("--oracle-degree", type=int)
    p.add_argument("--points", type=int, dest="n_points")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("unimodal", help="coefficient profile per tableau type class")
    p.add_argument("--mu", required=True)
    p.set_defaults(handler=_cmd_unimodal)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UnsupportedShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
