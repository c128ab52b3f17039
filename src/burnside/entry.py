"""The ``burnside`` command line: its parser, ``build`` and ``sample``, and
``main``, the one dispatcher.  ``python -m burnside``, the ``burnside``
console script and ``burnside.cli.main`` (a re-export) all run it.

``main`` runs each subcommand from the module that ``COMMANDS`` names.
``build`` and ``sample`` run here, each on its own stack: ``build`` loads
``kernels``, ``ratmat``, ``actions``, ``permgroup`` and ``combinat``;
``sample`` loads ``sampler``, ``actions``, ``permgroup`` and ``combinat``;
both load numpy.  verify, mix and closedform, and every command line that
names no subcommand, import ``burnside.cli``, and with it the rest of the
exact stack (``spectra``, ``dynamics``, ``closedforms``).  When bytecode
writing is off (``PYTHONDONTWRITEBYTECODE``), every run compiles each module
it imports again, so a command that loaded modules it never runs would pay
for them every time.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from ._rat import rat_str
from .actions import ActionSpec, group_degree, word_from_str
from .permgroup import parse_perm

__all__ = ["COMMANDS", "build_parser", "cmd_build", "cmd_sample", "main", "run", "spec_from_args"]

# build writes M = [[0, A], [B, 0]] up to this many rows (|G*| + |X|): its
# JSON grows with the square of its side.
M_EXPORT_ROWS = 1024


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


def cmd_build(args) -> int:
    from .kernels import build_bundle
    from .ratmat import dump_json, matrix_to_csv, matrix_to_json

    spec = spec_from_args(args)
    bundle = build_bundle(spec)
    os.makedirs(args.out, exist_ok=True)
    dl, sl = bundle.dual_labels, bundle.state_labels
    matrices = {
        "A": (bundle.A, dl, sl),
        "B": (bundle.B, sl, dl),
        "Q": (bundle.Q, dl, dl),
        "K": (bundle.K, sl, sl),
    }
    if bundle.num_duals + bundle.num_states <= M_EXPORT_ROWS:
        matrices["M"] = (bundle.M, dl + sl, dl + sl)
    fmts = ["json", "csv"] if args.format == "both" else [args.format]
    for name, (mat, rows, cols) in matrices.items():
        for fmt in fmts:
            with open(os.path.join(args.out, f"{name}.{fmt}"), "w") as fh:
                if fmt == "json":
                    dump_json(matrix_to_json(mat, rows, cols), fh)
                    fh.write("\n")
                else:
                    fh.write(matrix_to_csv(mat, rows, cols))
    for name, vec, labels in (("piQ", bundle.piQ, dl), ("piK", bundle.piK, sl)):
        with open(os.path.join(args.out, f"{name}.json"), "w") as fh:
            dump_json({"labels": labels, "entries": [rat_str(v) for v in vec]}, fh)
            fh.write("\n")
    print(f"wrote {', '.join(sorted(matrices))}, piQ, piK to {args.out}")
    return 0


def cmd_sample(args) -> int:
    from .sampler import ChainRun, dump_trajectory, run_chain, summary_json

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


# Each subcommand's module, which defines it as cmd_<subcommand>.
COMMANDS = {
    "build": __name__,
    "sample": __name__,
    "verify": "burnside.cli",
    "mix": "burnside.cli",
    "closedform": "burnside.cli",
}


def main(argv=None) -> int:
    """Parse a command line and run its subcommand.  The subcommand is the
    first argument, since the top-level parser takes no option but
    ``--help``; its module is imported before the parser is built, and
    ``burnside.cli`` for a command line that names none (a usage error or
    ``--help``).  Importing the exact stack first keeps verify's peak RSS
    down: parsing first raised it by about 0.1 MB on verify value 5,3."""
    argv = sys.argv[1:] if argv is None else list(argv)
    module = import_module(COMMANDS.get(argv[0] if argv else None, "burnside.cli"))
    args = build_parser().parse_args(argv)
    return run(getattr(module, f"cmd_{args.command}"), args)
