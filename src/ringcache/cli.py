"""Command-line front end.

Commands: tradeoff, simulate, lp, verify, gap. Instance parameters come
from flags, falling back to a JSON config document (--config) and then to
defaults. Numeric output is exact rational ("p/q") unless --decimal asks
for fixed-point rendering. Every output path (--out, --dump, --export,
--json) is probed, opened for appending and closed, before the command's
work starts, so an unwritable path fails fast; a command that fails later
leaves a missing output path behind as an empty file. Exit codes: 0 ok,
1 verification failure, 2 usage error, 3 budget exceeded (demand
enumeration, genie rows, LP variables, library size or tradeoff grid
points).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from ringcache import converse as cv
from ringcache import verify as acceptance
from ringcache.bounds import closed_form_points, gap_check, grid_points, rstar_u
from ringcache.model import (
    BudgetExceededError,
    InvalidInstanceError,
    ProblemInstance,
    build_demand_structure,
)
from ringcache.schemes import (
    DecodeError,
    accessible_nodes,
    check_demands,
    check_dump_masks,
    check_library_budget,
    decode,
    deliver,
    deliver_bits,
    fill_caches,
    make_scheme,
    min_file_size,
    random_library,
    subfile_layout,
    worst_case_load,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
GRID_BUDGET = 10**5  # tradeoff points; every point costs a worst-case load, or an LP solve
DECIMAL_LIMIT = 1000  # --decimal digits, refused when the arguments are parsed


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _grid(text: str) -> list:
    return [_fraction(part) for part in text.split(",")]


def _int_at_least(low: int, name: str, high: int | None = None):
    """An argparse type: an integer from low (a `name` integer) to high, if given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"not a {name} integer: {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"more than {high}: {text!r}")
        return value

    return parse


def _demand(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated demand: {text!r}") from exc


def _add_instance_flags(p: argparse.ArgumentParser, last: str = "M") -> None:
    """--config, --K, --a and --b, then --L and --M up to the one named ``last``."""
    p.add_argument("--config", help="JSON document with K/a/b/L/M defaults")
    p.add_argument("--K", type=int, help="number of regions / cache nodes")
    p.add_argument("--a", type=int, help="files shared per neighbour pair")
    p.add_argument("--b", type=int, help="files unique per region")
    if last in ("L", "M"):
        p.add_argument("--L", type=int, help="caches reachable per user (default 1)")
    if last == "M":
        p.add_argument("--M", type=_fraction, help='cache size, rational like "5/2"')


def _load_instance(args) -> ProblemInstance:
    """The instance from the flags given, then the --config document, then L=1
    and M=0. A document's L or M is an error, once the fields pass their
    checks, when the subcommand defines no flag for it."""
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise InvalidInstanceError(f"config {args.config!r} is not a JSON object")
    merged = {"L": 1, "M": "0", **doc}
    for key in ("K", "a", "b", "L", "M"):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    missing = [key for key in ("K", "a", "b") if merged.get(key) is None]
    if missing:
        raise InvalidInstanceError(f"missing instance parameters: {', '.join(missing)}")
    inst = ProblemInstance.from_json_dict(merged)
    for key in ("L", "M"):
        if key in doc and not hasattr(args, key):
            raise InvalidInstanceError(f"--config field {key} is not used by {args.command}")
    return inst


def _render(value, d: int | None) -> str:
    """Exact "p/q" text, or with ``d`` decimal digits fixed-point rounded half up."""
    if not isinstance(value, Fraction) or d is None:
        return str(value)
    den = value.denominator
    units = (2 * value.numerator * 10**d + den) // (2 * den)  # floor(value * 10^d + 1/2)
    digits = str(abs(units)).rjust(d + 1, "0")
    return ("-" if units < 0 else "") + (f"{digits[:-d]}.{digits[-d:]}" if d else digits)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_single_access(inst: ProblemInstance) -> None:
    if inst.L >= 2:
        raise InvalidInstanceError(f"the LP converse models L = 1 only; got L={inst.L}")


def cmd_tradeoff(args) -> int:
    inst = _load_instance(args)
    n_points = len(args.m_grid) if args.m_grid else args.m_steps
    if not args.m_grid and n_points < 2:
        raise InvalidInstanceError("grid needs at least 2 steps")
    if n_points > GRID_BUDGET:
        raise BudgetExceededError(f"{n_points} grid points exceed the grid budget {GRID_BUDGET}")
    if args.m_grid:
        grid = args.m_grid
    else:
        lo = args.m_min if args.m_min is not None else Fraction(0)
        hi = args.m_max if args.m_max is not None else Fraction(inst.m_max)
        grid = grid_points(lo, hi, n_points)
    if any(m < 0 or m > inst.m_max for m in grid):
        raise InvalidInstanceError(f"grid endpoints must lie in [0, {inst.m_max}]")
    if args.lp:  # the L check and the variable budget, then the family's refusals
        _require_single_access(inst)
        cv.check_variables(inst)
    else:
        check_demands(inst)
    ds = build_demand_structure(inst)
    if args.lp:
        lp = cv.build_lp(inst, cv.full_family(ds), args.memory_mode)

    header = ["M", "R_ach", "R_star_u", "R_cutset"]
    if inst.L >= 2:
        header.append("R_multi")
    if args.lp:
        header.append("R_lp")

    rows = []
    for m, closed in zip(grid, closed_form_points(inst, grid)):
        sub = inst.with_m(m)
        rows.append([m, worst_case_load(sub, ds, make_scheme(sub)), *closed])
    if args.lp:
        for row, outcome in zip(rows, cv.solve_lp_grid(lp, grid)):
            row.append(outcome.value)

    cells = [[_render(v, args.decimal) for v in row] for row in rows]
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in cells]
        text = json.dumps({"instance": inst.to_json_dict(), "points": payload}, indent=2) + "\n"
    else:
        lines = [",".join(header)] + [",".join(row) for row in cells]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    inst = _load_instance(args)
    scheme = make_scheme(inst)
    size_b = args.file_size or min_file_size(inst, scheme)
    check_library_budget(inst.N, size_b)  # exit 3 before the demand structure and the split check
    ds = build_demand_structure(inst)
    rng = random.Random(args.seed)
    demand = ds.validate_demand(args.demand or tuple(rng.choice(s) for s in ds.demands))
    files = sorted(set(demand))  # the files a run reads
    if args.dump:
        check_dump_masks(inst.K, scheme)  # before the split check and any byte drawn
    subfile_layout(inst, ds, scheme, size_b, files)  # the split check, before any byte is drawn
    library = random_library(rng, files, size_b)

    transcript = deliver_bits(inst, ds, scheme, demand, library)
    symbolic = deliver(inst, ds, scheme, demand)
    caches = fill_caches(inst, ds, scheme, library)
    decodes = {}
    for k in range(1, inst.K + 1):
        reachable = {n: caches[n] for n in accessible_nodes(inst, k)}
        got = decode(inst, ds, scheme, demand, k, reachable, transcript)
        decodes[k] = got == library[demand[k - 1]]

    load = Fraction(transcript.total_bits, 8 * size_b)
    report = {
        "instance": inst.to_json_dict(),
        "demand": list(demand),
        "file_size_bytes": size_b,
        "segments": [[str(s.fraction), s.kind.value] for s in scheme.segments],
        "messages": len(transcript.messages),
        "total_bits": transcript.total_bits,
        "load": str(load),
        "symbolic_load": str(symbolic.total_size),
        "loads_agree": load == symbolic.total_size,
        "decode_ok": {str(k): v for k, v in decodes.items()},
    }
    if args.dump:
        with open(args.dump, "wb") as fh:
            fh.write(transcript.to_bytes())
        report["dump"] = args.dump
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    ok = report["loads_agree"] and all(decodes.values())
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_lp(args) -> int:
    inst = _load_instance(args)
    _require_single_access(inst)
    cv.check_variables(inst)  # before the demand structure and any family
    ds = build_demand_structure(inst)
    # with --sum-all, the full family is refused before any selected family is built
    full = cv.full_family(ds) if args.sum_all or args.family == "full" else None
    loose = cv.sum_all_bound(inst, full) if args.sum_all else None
    family = full if args.family == "full" else cv.selected_family(ds, cv.Regime(args.family))
    lp = cv.build_lp(inst, family, args.memory_mode)
    outcome = cv.solve_lp(lp)
    closed = rstar_u(inst)
    report = {
        "instance": inst.to_json_dict(),
        "family": args.family,
        "rows": len(family),
        "memory_mode": args.memory_mode,
        "lp_optimum": str(outcome.value),
        "rstar_u": str(closed),
        "matches_rstar_u": outcome.value == closed,
    }
    if args.certificates:
        report["certificates"] = {
            reg.value: cert.to_json_dict()
            if isinstance(cert, cv.CertificateReport)
            else {"ok": False, "error": str(cert)}
            for reg, cert in cv.certificate_reports(ds).items()
        }
    if args.sum_all:
        report["sum_all_bound"] = str(loose)
        if inst == acceptance.LOOSE_REFERENCE:  # L is 1 here, as in the reference
            report["reference_value"] = str(acceptance.LOOSE_REFERENCE_VALUE)
            report["matches_reference"] = loose == acceptance.LOOSE_REFERENCE_VALUE
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(cv.lp_to_text(lp))
        report["export"] = args.export
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_gap(args) -> int:
    inst = _load_instance(args)
    report = gap_check(inst)
    payload = {
        "instance": inst.to_json_dict(),
        "ratio": str(report.ratio),
        "ratio_at_zero": str(report.ratio_at_zero),
        "bound": report.bound,
        "pass": report.passed,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_FAILURE


def cmd_verify(args) -> int:
    if args.config or args.K is not None or args.a is not None or args.b is not None:
        inst = _load_instance(args)
        if inst.b == 0:  # criterion 4's high_m certificate divides by b
            raise InvalidInstanceError("verify needs b >= 1; got b=0")
        instances = [(inst.K, inst.a, inst.b)]
    else:
        instances = None
    results = acceptance.run_acceptance(instances, trials=args.trials)
    for res in results:
        print(res.line())
    if args.json:
        summary = [
            {"criterion": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    ``parse_args`` keeps no state on the parser between calls, so every
    ``main`` call in a process reuses this one tree. Callers must not add
    to it; ``build_parser.__wrapped__()`` builds a fresh one.
    """
    parser = argparse.ArgumentParser(
        prog="ringcache",
        description="Coded-caching workbench for location-based content on a cache ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tradeoff", help="emit the memory-load tradeoff curves as data")
    _add_instance_flags(p, last="L")
    p.add_argument("--m-grid", type=_grid, help='explicit grid, e.g. "0,6,10"')
    p.add_argument("--m-min", type=_fraction)
    p.add_argument("--m-max", type=_fraction)
    p.add_argument("--m-steps", type=int, default=11)
    p.add_argument("--lp", action="store_true", help="add the full-family LP column")
    p.add_argument("--memory-mode", choices=(cv.AGGREGATE, cv.PER_NODE), default=cv.AGGREGATE)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--decimal", type=_int_at_least(0, "non-negative", DECIMAL_LIMIT),
                   help=f"render decimals at this precision (at most {DECIMAL_LIMIT} digits)")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_tradeoff)

    p = sub.add_parser("simulate", help="bit-exact placement/delivery/decode run")
    _add_instance_flags(p)
    p.add_argument("--demand", type=_demand, help='demand vector like "1,6,7"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--file-size", type=_int_at_least(1, "positive"), help="file size in bytes")
    p.add_argument("--dump", help="write the transcript's binary dump here")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("lp", help="exact LP converse and certificate verdicts")
    _add_instance_flags(p)
    p.add_argument("--family", choices=("full", *(r.value for r in cv.Regime)), default="full")
    p.add_argument("--memory-mode", choices=(cv.AGGREGATE, cv.PER_NODE), default=cv.AGGREGATE)
    p.add_argument("--certificates", action="store_true")
    p.add_argument("--sum-all", action="store_true", help="also compute the loose averaged bound")
    p.add_argument("--export", help="write the LP's plain-text dump here")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_lp)

    p = sub.add_parser("gap", help="order-optimality gap check (factor 2 for even K, 3 for odd)")
    _add_instance_flags(p, last="b")  # the check is of the L = 1 curves
    p.add_argument("--out")
    p.set_defaults(handler=cmd_gap)

    p = sub.add_parser("verify", help="run the acceptance battery")
    _add_instance_flags(p, last="b")  # the battery sets L and M itself
    p.add_argument(
        "--trials",
        type=_int_at_least(0, "non-negative"),
        default=100,
        help="random round-trip trials per instance",
    )
    p.add_argument("--json", help="write a machine-readable summary here")
    p.set_defaults(handler=cmd_verify)

    return parser


_OUTPUT_FLAGS = ("out", "dump", "export", "json")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in _OUTPUT_FLAGS:
            path = getattr(args, flag, None)
            if path:
                with open(path, "ab"):  # probe: fail now, not after the work
                    pass
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DecodeError as exc:
        print(f"decode failure (scheme bug): {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
