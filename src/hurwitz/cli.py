"""Command-line surface.

Exit codes: 0 verdict obtained, 2 incompatible or unsuitable input,
3 budget exceeded, 4 parse error.
"""

from __future__ import annotations

import argparse
import sys

from .core import (
    SPHERE,
    DatumParseError,
    format_datum,
    parse_datum,
    surface_from_token,
    check_compatibility,
)
from .criteria import (
    DEFAULT_BUDGET,
    INCOMPATIBLE,
    UNKNOWN,
    Verdict,
    classify,
    search_verdict,
)
from .catalog import enumerate_compatible, format_witness, run_catalog, summary_lines
from .dessin import dessin_from_permutations, export_lines
from .blocks import factor_covering, find_block_decomposition
from .perms import format_cycles


def _verdict_line(datum, verdict: Verdict) -> str:
    line = f"{format_datum(datum)} {verdict.kind.upper()} tag={verdict.provenance}"
    if verdict.witness is not None:
        line += f" witness={format_witness(verdict.witness.taus)}"
    return line


def _print_taus(taus) -> None:
    for i, tau in enumerate(taus, start=1):
        print(f"tau[{i}]={format_cycles(tau)}")


def _exit_code(verdict: Verdict) -> int:
    if verdict.kind == INCOMPATIBLE:
        return 2
    if verdict.kind == UNKNOWN:
        return 3
    return 0


def _cmd_check(args) -> int:
    datum = parse_datum(args.datum)
    report = check_compatibility(datum)
    if report.compatible:
        print("compatible")
    else:
        print("violated: " + ",".join(str(i) for i in sorted(report.violated)))
    verdict = classify(datum, args.budget)
    print(_verdict_line(datum, verdict))
    return _exit_code(verdict)


def _cmd_realize(args) -> int:
    datum = parse_datum(args.datum)
    verdict = classify(datum, args.budget, attach_witness=args.witness)
    print(_verdict_line(datum, verdict))
    if args.witness and verdict.witness is not None:
        _print_taus(verdict.witness.taus)
    return _exit_code(verdict)


def _cmd_enumerate(args) -> int:
    base = surface_from_token(args.base)
    cover = surface_from_token(args.cover) if args.cover else None
    for datum in enumerate_compatible(
        args.d, range(args.n_min, args.n_max + 1), base, cover
    ):
        print(format_datum(datum))
    return 0


def _cmd_catalog(args) -> int:
    records = run_catalog(
        d_max=args.d_max,
        n_max=args.n_max,
        budget=args.budget,
        out_path=args.out,
        resume=args.resume,
        workers=args.workers,
    )
    for line in summary_lines(records):
        print(line)
    if any(r.verdict == UNKNOWN for r in records):
        return 3
    return 0


def _search_witness(args, refusal: str, min_n: int = 0, block_size: int | None = None):
    """Parse the datum of a dessin or decompose command, search a witness
    over the sphere and print it as tau[i] lines.  A compatible datum is
    refused before the search when ``block_size`` is given and does not
    properly divide its degree.  Returns (datum, realization, exit code);
    with no realization to work on, the reason is printed and the
    realization is None."""
    datum = parse_datum(args.datum)
    if datum.base != SPHERE or datum.n < min_n:
        print(refusal)
        return datum, None, 2
    if not check_compatibility(datum).compatible:
        print(_verdict_line(datum, classify(datum, args.budget)))
        return datum, None, 2
    d = datum.degree
    if block_size is not None and (not 1 < block_size < d or d % block_size):
        print(f"--k {block_size} is not a proper divisor of d={d}")
        return datum, None, 2
    verdict = search_verdict(datum, args.budget)
    if verdict.witness is None:
        print(_verdict_line(datum, verdict))
        return datum, None, _exit_code(verdict)
    _print_taus(verdict.witness.taus)
    return datum, verdict.witness, 0


def _cmd_dessin(args) -> int:
    _, realization, code = _search_witness(
        args, "dessins are produced for sphere-base data with n >= 3", min_n=3
    )
    if realization is None:
        return code
    dsn = dessin_from_permutations(realization.taus[:-1])
    for line in export_lines(dsn):
        print(line)
    return 0


def _cmd_decompose(args) -> int:
    datum, realization, code = _search_witness(
        args, "decomposition runs on sphere-base data", block_size=args.k
    )
    if realization is None:
        return code
    bd = find_block_decomposition(list(realization.taus), args.k)
    if bd is None:
        print(f"no block system of order {args.k}")
        return 0
    print(bd)
    inner, outer = factor_covering(datum, realization, bd)
    print(f"inner {format_datum(inner)}")
    print(f"outer {format_datum(outer)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Decide realizability of branch data for branched "
        "coverings of closed surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="search node budget (default 10^9)")

    p = sub.add_parser("check", help="compatibility report plus verdict")
    p.add_argument("datum")
    add_budget(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("realize", help="verdict with optional witness")
    p.add_argument("datum")
    p.add_argument("--witness", action="store_true")
    add_budget(p)
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("enumerate", help="list compatible data")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--base", default="O0")
    p.add_argument("--cover", default=None)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("catalog", help="classify a whole degree range into a file")
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    add_budget(p)
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("dessin", help="search a witness and export its dessin")
    p.add_argument("datum")
    add_budget(p)
    p.set_defaults(fn=_cmd_dessin)

    p = sub.add_parser("decompose", help="witness, block system, factored data")
    p.add_argument("datum")
    p.add_argument("--k", type=int, required=True)
    add_budget(p)
    p.set_defaults(fn=_cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", 0) < 0:
        print(f"unsuitable input: --budget must be at least 0, got {args.budget}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except DatumParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # e.g. d < 2, d > 256, or an unwritable --out
        print(f"unsuitable input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
