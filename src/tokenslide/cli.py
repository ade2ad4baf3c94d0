"""Command-line front end.

Subcommands::

    tokenslide solve      --class auto --in inst.txt [--out moves.txt]
    tokenslide verify     --in inst.txt --seq moves.txt
    tokenslide oracle     --in inst.txt [--budget N]
    tokenslide gen        --class caterpillar --n 12 --k 3 --seed 7
    tokenslide crosscheck --class proper --n 6 [--count N] [--jobs J]

Exit codes: 0 for YES or success, 1 for NO or any mismatch, 2 for usage,
parse, or input errors, or an ``--out`` path that cannot be opened for
writing (``ERROR OUTPUT: cannot write <path>: <reason>``).  Identical
invocations produce identical bytes; the only randomness is the seed.

``main`` holds the cyclic garbage collector off while a command runs and
restores the caller's setting afterwards.  Commands build no reference
cycles, so reference counting frees everything they allocate, and the
collector's passes over their bulk of small containers would find
nothing.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import nullcontext
from functools import cache

from .crosscheck import CLASSES, crosscheck
from .caterpillar import solve_caterpillar
from .generate import GenerationError, gen_instance
from .graphs import validate_sequence
from .instances import (
    Instance,
    InstanceFormatError,
    parse_instance,
    parse_sequence,
    serialize_instance,
    serialize_sequence,
)
from .oracle import DEFAULT_STATE_CAP, bfs
from .proper import prepare_proper, solve_proper
from .results import SolveResult, SolverInputError
from .trivially_perfect import prepare_tp, solve_tp


def _read(path: str | None) -> str:
    """The text of ``path``, or of stdin for None or "-"; a file that
    cannot be read or is not UTF-8 is a parse error, not a crash."""
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InstanceFormatError(f"cannot read {path or '-'}: {err}") from None


def _open_out(path: str | None):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def positive(text: str) -> int:
    """An option's integer of at least 1.  argparse reports anything else
    as a usage error, naming this function for a non-integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative(text: str) -> int:
    """An option's integer of at least 0, reported like ``positive``."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _run_class_solver(cls: str, inst: Instance) -> SolveResult:
    """Run the requested solver.  ``auto`` resolves the class by preparing:
    proper, then trivially perfect when the endpoints close out of order,
    then caterpillar when intervals also partially overlap.  The prepared
    value goes to the solver, so the endpoints are analysed once."""
    if cls == "auto" and inst.rep is not None:
        for prepare, solve, miss in (
            (prepare_proper, solve_proper, "NOT_PROPER"),
            (prepare_tp, solve_tp, "NOT_TRIVIALLY_PERFECT"),
        ):
            try:
                prepared = prepare(inst.rep)
            except SolverInputError as err:
                if err.kind != miss:
                    raise
                continue
            return solve(prepared, inst.blue, inst.red)
    elif cls in ("proper", "tp"):
        if inst.rep is None:
            raise SolverInputError(
                "UNSUPPORTED_CLASS",
                f"the {cls} solver needs an interval representation, "
                "not a bare edge list",
            )
        solve = solve_proper if cls == "proper" else solve_tp
        return solve(inst.rep, inst.blue, inst.red)
    try:
        return solve_caterpillar(inst.graph, inst.blue, inst.red)
    except SolverInputError as err:
        if cls == "auto" and err.kind in ("NOT_CATERPILLAR", "CYCLIC"):
            raise SolverInputError(
                "UNSUPPORTED_CLASS",
                "instance fits none of: proper interval, trivially "
                "perfect, caterpillar",
            ) from err
        raise


def cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.inp))
    res = _run_class_solver(args.cls, inst)
    with _open_out(args.out) as out:
        if res.yes:
            print("YES", file=out)
            out.write(serialize_sequence(res.moves))
            return 0
        print("NO", res.reason, *res.witness, file=out)
    return 1


def cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.inp))
    text = _read(args.seq)
    # tolerate sequences saved straight from `solve` output
    first, _, rest = text.partition("\n")
    if first.strip() == "YES":
        text = rest
    moves = parse_sequence(text)
    # a representation is checked by rank overlap, never building its edges
    structure = inst.rep if inst.rep is not None else inst.graph
    check = validate_sequence(structure, inst.blue, inst.red, moves)
    with _open_out(args.out) as out:
        if check.ok:
            print("OK", file=out)
            return 0
        print(f"INVALID step={check.step} reason={check.reason}", file=out)
    return 1


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.inp))
    try:
        res = bfs(inst.graph, inst.blue, inst.red, cap=args.budget)
    except ValueError as err:
        return _fail(f"ERROR INPUT: {err}")
    with _open_out(args.out) as out:
        if res.status == "REACHABLE":
            print("YES", file=out)
            out.write(serialize_sequence(res.moves))
        else:
            print("NO" if res.status == "UNREACHABLE" else "CAP_EXCEEDED", file=out)
        print(f"STATES {res.states_explored}", file=out)
    return {"REACHABLE": 0, "UNREACHABLE": 1}.get(res.status, 2)


def cmd_gen(args: argparse.Namespace) -> int:
    inst = gen_instance(args.cls, args.n, args.k, seed=args.seed)
    with _open_out(args.out) as out:
        out.write(serialize_instance(inst))
    return 0


def cmd_crosscheck(args: argparse.Namespace) -> int:
    try:
        report = crosscheck(
            args.cls,
            args.n,
            count=args.count,
            seed=args.seed,
            k_max=args.k,
            jobs=args.jobs,
            cap=args.budget,
        )
    except ValueError as err:
        # a sweep that would check nothing; the sweep reports solver errors itself
        return _fail(f"ERROR INPUT: {err}")
    with _open_out(args.out) as out:
        out.write(report.render())
    return 0 if report.ok else 1


@cache  # one parser per process; main() finds the handler by name per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenslide",
        description="shortest sliding-token reconfiguration solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--in", dest="inp", metavar="PATH", default=None,
                       help="instance file (default stdin)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output file (default stdout)")

    p = sub.add_parser("solve", help="run the class solver")
    common(p)
    p.add_argument("--class", dest="cls", choices=("auto",) + CLASSES,
                   default="auto")

    p = sub.add_parser("verify", help="replay a move sequence")
    common(p)
    p.add_argument("--seq", metavar="PATH", required=True,
                   help="sequence file to check")

    p = sub.add_parser("oracle", help="breadth-first search baseline")
    common(p)
    p.add_argument("--budget", type=non_negative, default=DEFAULT_STATE_CAP,
                   metavar="N", help="state exploration cap, at least 0")

    p = sub.add_parser("gen", help="generate a random instance")
    common(p)
    p.add_argument("--class", dest="cls", choices=CLASSES, required=True)
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--k", type=int, required=True, metavar="K")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("crosscheck", help="sweep solver against the oracle")
    common(p)
    p.add_argument("--class", dest="cls", choices=CLASSES, required=True)
    p.add_argument("--n", type=positive, required=True, metavar="N",
                   help="largest vertex count, at least 1")
    p.add_argument("--k", type=positive, default=3, metavar="K",
                   help="largest token count, at least 1")
    p.add_argument("--count", type=positive, default=None, metavar="N",
                   help="random instances to draw, at least 1 "
                   "(default: exhaustive)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=positive, default=1, metavar="J",
                   help="worker processes, at least 1")
    p.add_argument("--budget", type=non_negative, default=DEFAULT_STATE_CAP,
                   metavar="N", help="oracle state cap per search, at least "
                   "0, in exhaustive and randomized sweeps alike")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code, with the cyclic garbage
    collector off until it returns or raises (see the module docstring)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _dispatch(argv)
    finally:
        if was_enabled:
            gc.enable()


def _dispatch(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InstanceFormatError as err:
        return _fail(f"ERROR PARSE: {err}")
    except SolverInputError as err:
        return _fail(f"ERROR {err.kind}: {err}")
    except GenerationError as err:
        return _fail(f"ERROR {err}")
    except OSError as err:
        # _read reports input failures itself, so this came from opening --out
        if args.out is None or err.filename != args.out:
            raise
        return _fail(f"ERROR OUTPUT: cannot write {args.out}: {err.strerror}")


if __name__ == "__main__":
    sys.exit(main())
