"""The ``burnside`` command line: its parser, ``build`` and ``sample``,
``main``, the one dispatcher, and ``console_main``, the process entry, which
runs ``main`` and then ends the process at once; ``main`` and its re-export
``burnside.cli.main`` return the exit code, for tests and library callers.

``main`` runs each subcommand from the module that ``COMMANDS`` names.
``build`` and ``sample`` run here, each on its own stack (``build`` without
``spectra``, ``dynamics`` and ``closedforms``, ``sample`` without
``kernels`` and ``ratmat`` too); every other command line imports
``burnside.cli`` and the whole exact stack.  With bytecode writing off, each
run compiles every module it imports again.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import NoReturn

from ._rat import rat_str
from .actions import ActionSpec, group_degree, word_from_str
from .permgroup import parse_perm

__all__ = [
    "COMMANDS", "build_parser", "cmd_build", "cmd_sample", "console_main", "main", "run",
    "spec_from_args",
]

# Exit codes: 0 pass or output written, 1 a verification failed, 2 usage
# error, and this one, 128 + SIGPIPE (what a shell reports for `yes | head`),
# when the reader of stdout closed it early.
SIGPIPE_EXIT = 141

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
    from .ratmat import dump_json, matrix_to_csv, matrix_to_json, str_rows

    spec = spec_from_args(args)
    bundle = build_bundle(spec)
    os.makedirs(args.out, exist_ok=True)
    dl, sl = bundle.dual_labels, bundle.state_labels

    def texts():
        """Each matrix's p/q rows, formatted once for both of its files."""
        a, b = str_rows(bundle.A), str_rows(bundle.B)
        yield "A", a, dl, sl
        yield "B", b, sl, dl
        if len(dl) + len(sl) <= M_EXPORT_ROWS:  # M = [[0, A], [B, 0]], from A's and B's text
            upper = [["0"] * len(dl) + row for row in a]
            lower = {id(row): row + ["0"] * len(sl) for row in b}  # B's equal rows share a list
            yield "M", upper + [lower[id(row)] for row in b], dl + sl, dl + sl
        del a, b
        yield "Q", str_rows(bundle.Q), dl, dl
        yield "K", str_rows(bundle.K), sl, sl

    fmts = ["json", "csv"] if args.format == "both" else [args.format]
    written = []
    for name, text, rows, cols in texts():
        for fmt in fmts:
            with open(os.path.join(args.out, f"{name}.{fmt}"), "w") as fh:
                if fmt == "json":
                    dump_json(matrix_to_json(text, rows, cols), fh)
                    fh.write("\n")
                else:
                    fh.write(matrix_to_csv(text, rows, cols))
        written.append(name)
        del text  # before the next matrix is formatted
    for name, vec, labels in (("piQ", bundle.piQ, dl), ("piK", bundle.piK, sl)):
        with open(os.path.join(args.out, f"{name}.json"), "w") as fh:
            dump_json({"labels": labels, "entries": [rat_str(v) for v in vec]}, fh)
            fh.write("\n")
    print(f"wrote {', '.join(sorted(written))}, piQ, piK to {args.out}")
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


def _stdout_closed() -> int:
    """Point stdout at os.devnull, as the Python ``signal`` docs advise, so
    what is still buffered for it is dropped instead of raising again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return SIGPIPE_EXIT


def run(command, args) -> int:
    """Run one subcommand; a ValueError (CapExceeded among them) or an
    OSError is a usage error, exit 2, but a closed stdout exits SIGPIPE_EXIT."""
    try:
        return command(args)
    except BrokenPipeError:
        return _stdout_closed()
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
    """Parse a command line and run its subcommand, the first argument (the
    top-level parser takes no option but ``--help``).  Its module, or
    ``burnside.cli`` when none is named, is imported before the parser is
    built: parsing first raised verify value 5,3's peak RSS by 0.1 MB."""
    argv = sys.argv[1:] if argv is None else list(argv)
    module = import_module(COMMANDS.get(argv[0] if argv else None, "burnside.cli"))
    args = build_parser().parse_args(argv)
    return run(getattr(module, f"cmd_{args.command}"), args)


# The interpreter's teardown, a last garbage collection over the imports'
# objects, took 19-20 ms against 1.3-1.7 ms with the flush and os._exit.
def console_main() -> NoReturn:
    """Run ``main``, flush stdout and stderr, and end the process with
    ``os._exit``.  By then every file a command writes is closed, and no
    command has registered an ``atexit`` callback (those present at start
    come from ``.pth`` files).  A ``SystemExit`` or an uncaught exception
    from ``main`` leaves through the normal exit."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    os._exit(code)
