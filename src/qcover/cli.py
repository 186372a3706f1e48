"""Batch command-line interface.

Subcommands: ``construct`` (recursive covering-code builder, emits code and
trace JSON), ``verify`` (exhaustive or sampled covering check), ``solve``
(exact minimum covering code), and ``bounds`` with ``eval``, ``table`` (CSV
sweep of optimized and closed-form bounds), and ``check-corollary`` (chain
audit of the closed form).

Exit status: 0 success (verify: covered or no counterexample found);
1 verify found an uncovered word, or a chain check failed;
2 file, parse, or usage error; 3 infeasible parameters or guard violation
(the message names the violated constraint); 4 construction failure after
exhausting domination trials.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

from . import bounds
from .codes import (
    Code,
    read_code,
    render_words,
    verify_covering,
    verify_covering_sampled,
    write_code,
)
from .construct import BASE_POLICIES, dumps_trace, recursive_construct
from .errors import (
    DominationFailure,
    InfeasibleParamsError,
    SpaceTooLargeError,
)
from .hamming import DEFAULT_ENUMERATION_GUARD, HammingSpace, word_index
from .solver import EXACT_SOLVER_GUARD, minimal_covering_code

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_FILE = 2
EXIT_INFEASIBLE = 3
EXIT_CONSTRUCTION = 4


def _fmt(v: float) -> str:
    """Reals print with 17 significant digits, '.' decimal separator."""
    return f"{v:.17g}"


def _read_code_file(path: str) -> Code:
    try:
        return read_code(path)
    except SpaceTooLargeError:
        raise  # a well-formed file over a space too large to index: exit 3
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _FileProblem(f"cannot read code file {path}: {exc}") from exc


class _FileProblem(Exception):
    pass


@contextlib.contextmanager
def _writing(path):
    """Report an OSError raised while writing ``path`` as a file problem (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise _FileProblem(f"cannot write {path}: {exc}") from exc


def _warn_guard_override(kind: str, value: int, default: int) -> None:
    if value > default:
        print(
            f"warning: {kind} guard raised to {value} (default {default}); "
            "this can take a very long time",
            file=sys.stderr,
        )


def cmd_construct(args: argparse.Namespace) -> int:
    space = HammingSpace(args.q, args.n)
    code, trace = recursive_construct(
        space,
        args.R,
        args.x,
        args.y,
        base_policy=args.base_policy,
        seed=args.seed,
    )
    out = Path(args.out)
    trace_path = Path(args.trace) if args.trace else out.with_suffix(".trace.json")
    with _writing(out):
        write_code(out, code)
    with _writing(trace_path):
        trace_path.write_text(dumps_trace(trace))
    print(
        f"constructed {len(code)} codewords over [{args.q}]^{args.n} at radius {args.R}; "
        f"density {trace.density} ~ {_fmt(float(trace.density))}"
    )
    print(f"code:  {out}")
    print(f"trace: {trace_path}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    code = _read_code_file(args.code)
    if args.sampled is not None:
        verdict = verify_covering_sampled(code, args.R, args.sampled, seed=args.seed)
        if not verdict.found_uncovered:
            n = verdict.samples
            print(f"no-counterexample after {n} samples (not a covering proof)")
            # a fraction p of uncovered words goes unsampled with probability
            # (1-p)^N <= exp(-pN), at most 1/20 once p >= ln(20)/N; below N = 3 that is >= 1
            if math.log(20) < n:
                print(f"with 95% confidence the uncovered fraction is below ln(20)/{n} = "
                      f"{_fmt(math.log(20) / n)}")
            return EXIT_OK
    else:
        _warn_guard_override("verification", args.max_space, DEFAULT_ENUMERATION_GUARD)
        try:
            code.space.check_enumerable(args.max_space)
        except SpaceTooLargeError as exc:
            raise SpaceTooLargeError(
                f"{exc}; raise it with --max-space or spot-check with --sampled N"
            ) from None
        verdict = verify_covering(code, args.R, guard=args.max_space)
        if verdict.covered:
            print("covered")
            return EXIT_OK
    witness = render_words(code.space, [word_index(code.space, verdict.witness)])
    print(f"uncovered: witness {witness}")
    return EXIT_COUNTEREXAMPLE


def cmd_solve(args: argparse.Namespace) -> int:
    space = HammingSpace(args.q, args.n)
    _warn_guard_override("solver", args.max_space, EXACT_SOLVER_GUARD)
    result = minimal_covering_code(
        space,
        args.R,
        time_budget=args.time_budget,
        node_budget=args.node_budget,
        guard=args.max_space,
    )
    text = json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n"
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _bounds_eval_values(args: argparse.Namespace) -> dict:
    p = bounds.BoundParams(R=args.R, x=args.x, y=args.y, R1=args.R1, mu_star=args.mu)
    values = {
        "R": args.R,
        "x": args.x,
        "y": args.y,
        "t_feasibility": bounds.feasibility(p),
        "parametric_bound": bounds.parametric_bound(p),
    }
    if args.R1 is not None:
        mu = args.mu if args.mu is not None else bounds.default_mu_star(args.R1)
        values["R1"] = args.R1
        values["mu_star"] = mu
        values["nested_parametric_bound"] = bounds.nested_parametric_bound(
            dataclasses.replace(p, mu_star=mu)
        )
    if args.R >= 6:
        values["closed_form_bound"] = bounds.closed_form_bound(args.R)
    if args.R >= 3:
        values["classic_bound_q2"] = bounds.classic_bound(2, args.R)
        values["classic_bound_q3"] = bounds.classic_bound(3, args.R)
    return values


def cmd_bounds_eval(args: argparse.Namespace) -> int:
    values = _bounds_eval_values(args)
    if args.format == "json":
        print(json.dumps(values, sort_keys=True, indent=2, allow_nan=False))
    else:
        for key in sorted(values):
            v = values[key]
            print(f"{key} = {_fmt(v) if isinstance(v, float) else v}")
    return EXIT_OK


def cmd_bounds_table(args: argparse.Namespace) -> int:
    lines = [",".join(bounds.BOUND_TABLE_HEADER)]
    for row in bounds.bound_table_rows(args.R_min, args.R_max):
        cells = [str(row[0])] + [_fmt(v) for v in row[1:]]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bounds_check(args: argparse.Namespace) -> int:
    if not 2 <= args.R_min <= args.R_max:
        raise InfeasibleParamsError(
            f"requires 2 <= --R-min <= --R-max, got [{args.R_min}, {args.R_max}]"
        )
    all_hold = True
    for R in range(args.R_min, args.R_max + 1):
        failed = bounds.closed_form_chain_check(R)
        if failed is None:
            print(f"R={R}: holds")
        else:
            all_hold = False
            print(f"R={R}: FAILS at step ({failed})")
    note = "" if args.R_min >= 6 else " (the closed form is only claimed for R >= 6)"
    print(f"checked R in [{args.R_min}, {args.R_max}]{note}")
    return EXIT_OK if all_hold else EXIT_COUNTEREXAMPLE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qcover",
        description="Covering-code constructions, exact small optima, and density bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a covering code recursively")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base-policy", choices=BASE_POLICIES, default="auto")
    p.add_argument("--out", required=True, help="code JSON output path")
    p.add_argument("--trace", help="trace JSON output path (default: <out>.trace.json)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check that a code file covers its space")
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--sampled", type=int, help="spot-check this many random words instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-space", type=int, default=DEFAULT_ENUMERATION_GUARD)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="exact minimum covering code (tiny spaces)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--time-budget", type=float)
    p.add_argument("--node-budget", type=int)
    p.add_argument("--max-space", type=int, default=EXACT_SOLVER_GUARD)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    b = sub.add_parser("bounds", help="evaluate, tabulate, or audit the density bounds")
    bsub = b.add_subparsers(dest="bounds_command", required=True)

    p = bsub.add_parser("eval", help="all applicable bound formulas at (R, x, y)")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--R1", type=int)
    p.add_argument("--mu", type=float)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_bounds_eval)

    p = bsub.add_parser("table", help="CSV sweep of optimized and closed-form bounds")
    p.add_argument("--R-min", type=int, required=True)
    p.add_argument("--R-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds_table)

    p = bsub.add_parser("check-corollary", help="audit the closed-form inequality chain")
    p.add_argument("--R-min", type=int, default=6)
    p.add_argument("--R-max", type=int, required=True)
    p.set_defaults(func=cmd_bounds_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "max_space", 1) < 1:  # solve and verify
            raise InfeasibleParamsError(f"requires --max-space >= 1, got {args.max_space}")
        return args.func(args)
    except _FileProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except DominationFailure as exc:
        print(f"error: construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except ValueError as exc:  # InfeasibleParamsError and SpaceTooLargeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
