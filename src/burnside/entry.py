"""The ``burnside`` command line: its parser, ``sample``, and the entry
that ``python -m burnside`` and the ``burnside`` console script run.

``main`` parses and runs ``sample`` on the sampler stack alone
(``sampler``, ``actions``, ``permgroup``, ``combinat`` and numpy); it
imports ``burnside.cli``, and with it the exact stack (``kernels``,
``ratmat``, ``spectra``, ``dynamics``, ``closedforms``), for build, verify,
mix and closedform only.  When bytecode writing is off
(``PYTHONDONTWRITEBYTECODE``), every run compiles each module it imports
again, so a sample run that loaded the exact stack would pay for it on
every command.
"""

from __future__ import annotations

import argparse
import sys

from .actions import ActionSpec, group_degree, word_from_str
from .permgroup import parse_perm
from .sampler import ChainRun, dump_trajectory, run_chain, summary_json

__all__ = ["build_parser", "cmd_sample", "main", "run", "spec_from_args"]


def spec_from_args(args) -> ActionSpec:
    return ActionSpec(args.model, args.n, args.k)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=["value", "coord"])
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--n", required=True, type=int)


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand's arguments; ``args.command`` names the subcommand."""
    parser = argparse.ArgumentParser(
        prog="burnside",
        description="Exact kernels, spectra, mixing bounds and samplers for the "
        "classical and dual orbit-sampling chains on two symmetric-group actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write A, B, Q, K, M and both stationary laws")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="both", choices=["json", "csv", "both"])

    p = sub.add_parser("verify", help="run every exact identity check and bound")
    _add_common(p)
    p.add_argument("--tmax", type=int, default=60)
    p.add_argument("--expect-lump-failure", choices=["cycle-count"], default=None)

    p = sub.add_parser("mix", help="TV profiles, bound curves, mixing times")
    _add_common(p)
    p.add_argument("--tmax", type=int, default=60)
    p.add_argument("--eps", action="append", help="threshold like 1/4 (repeatable)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="csv", choices=["csv", "json"])

    p = sub.add_parser("sample", help="simulate the primal or dual chain")
    _add_common(p)
    p.add_argument("--chain", default="dual", choices=["primal", "dual"])
    p.add_argument("--start", default=None, help="word (primal) or permutation (dual)")
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--out", default=None, help="trajectory path (.gz compresses)")
    p.add_argument("--summary", default=None, help="summary JSON path")

    p = sub.add_parser("closedform", help="evaluate one dual-kernel entry all ways")
    _add_common(p)
    p.add_argument("--g", default="e")
    p.add_argument("--h", default="e")
    return parser


def cmd_sample(args) -> int:
    spec = spec_from_args(args)
    if args.chain == "primal":
        start = word_from_str(spec, args.start) if args.start else (1,) * spec.n
    else:
        start = parse_perm(args.start or "e", group_degree(spec))
    run = ChainRun(spec, args.chain, start, args.steps, args.seed, thin=args.thin)
    result = run_chain(run, keep_trajectory=args.out is not None)
    if args.out:
        dump_trajectory(args.out, result)
    text = summary_json(result)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def run(command, args) -> int:
    """Run one subcommand; a ValueError (CapExceeded among them) or an
    OSError is a usage error, exit 2."""
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run ``sample`` here, and every other command line (usage errors
    too) through ``burnside.cli.main``: a subcommand is the first argument,
    since the top-level parser takes no option but ``--help``.  Importing
    the exact stack before the parser is built keeps those commands' peak
    RSS down: parsing first raised it by about 0.1 MB on verify value 5,3."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] != ["sample"]:
        from .cli import main as cli_main

        return cli_main(argv)
    return run(cmd_sample, build_parser().parse_args(argv))
