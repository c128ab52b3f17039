"""Child-process side of the benchmark; imports ``burnside`` from ``src``.

    python3 perfbench/probe.py setup MODEL K N
        Import burnside and run build_bundle once; print one JSON line with
        the import and build times and the exact backend.

    python3 perfbench/probe.py trace OUT.json CLI-ARGS...
        Wrap the layer functions in SPANS, run ``burnside.cli.main`` on
        CLI-ARGS inside a root span and write spans, per-name totals and
        counts to OUT.json.  The command's own output goes to stdout as usual.

``run.py`` starts both in fresh interpreters with PYTHONPATH pointing at the
checkout's ``src``; the library code is never modified, only rebound.
"""

from __future__ import annotations

import json
import sys
import time


def _bundle_stats(bundle) -> dict:
    nnz = 0
    bits = 0
    for mat in (bundle.Q, bundle.K):
        for row in mat.data:
            for v in row:
                if v:
                    nnz += 1
                    bits = max(bits, int(v.numerator).bit_length(), int(v.denominator).bit_length())
    return {"kernels.nnz": nnz, "kernels.max_entry_bits.max": bits}


# (module, attribute, span name, on_call(args) -> counts, on_result(result) -> counts)
SPANS = [
    ("burnside.kernels", "build_bundle", "kernels.build_bundle", None, _bundle_stats),
    ("burnside.kernels", "check_detailed_balance", "kernels.check_detailed_balance", None, None),
    ("burnside.kernels", "doeblin_floor", "kernels.doeblin_floor", None, None),
    ("burnside.kernels", "build_q_direct", "kernels.build_q_direct", None, None),
    (
        "burnside.ratmat", "RationalMatrix.__matmul__", "ratmat.matmul",
        lambda args: {"ratmat.matmul_dense_ops": args[0].rows * args[0].cols * args[1].cols},
        None,
    ),
    ("burnside.ratmat", "RationalMatrix.__eq__", "ratmat.eq", None, None),
    ("burnside.ratmat", "RationalMatrix.vec_mul", "ratmat.vec_mul", None, None),
    ("burnside.ratmat", "RationalMatrix.is_row_stochastic", "ratmat.is_row_stochastic", None, None),
    ("burnside.ratmat", "matrix_to_json", "ratmat.to_json", None, None),
    ("burnside.ratmat", "matrix_to_csv", "ratmat.to_csv", None, None),
    (
        "burnside.spectra", "char_poly", "spectra.char_poly",
        lambda args: {"spectra.char_poly_dims": args[0].rows}, None,
    ),
    (
        "burnside.spectra", "spectrum_equal_report", "spectra.spectrum_equal_report",
        None, lambda rep: {f"spectra.{rep.mode}_calls": 1},
    ),
    ("burnside.spectra", "intertwine_check", "spectra.intertwine_check", None, None),
    ("burnside.spectra", "bundle_gap_report", "spectra.bundle_gap_report", None, None),
    ("burnside.dynamics", "bound_suite", "dynamics.bound_suite", None, None),
    ("burnside.dynamics", "minorization_transfer", "dynamics.minorization_transfer", None, None),
    (
        "burnside.dynamics", "d_profile", "dynamics.d_profile",
        None, lambda prof: {"dynamics.profile_starts": len(prof.per_start) * prof.t_max},
    ),
    (
        "burnside.dynamics", "bundle_profiles", "dynamics.bundle_profiles", None,
        lambda prof: {"dynamics.profile_starts": (len(prof.k.reps) + len(prof.q.reps)) * prof.t_max},
    ),
    # the lumping layer: the generic check and the three named lumpings
    ("burnside.dynamics", "lump", "dynamics.lump", None, None),
    ("burnside.dynamics", "orbit_lump_K", "dynamics.lump", None, None),
    ("burnside.dynamics", "conjugacy_lump_Q", "dynamics.lump", None, None),
    ("burnside.dynamics", "fixedpoint_lump_value", "dynamics.lump", None, None),
    ("burnside.sampler", "run_chain", "sampler.run_chain", None, lambda res: {"sampler.steps": res.run.steps}),
    ("burnside.sampler", "summary_json", "sampler.summary_json", None, None),
]

# hot per-step calls: counted, never spanned
COUNTED = [
    ("burnside.actions", "sample_stabilizer_uniform", "actions.sample_stabilizer_uniform_calls"),
    ("burnside.actions", "sample_fixed_word_uniform", "actions.sample_fixed_word_uniform_calls"),
]


def _rebind(orig, replacement) -> None:
    """Replace ``orig`` under every name a burnside module binds it to."""
    for name, mod in list(sys.modules.items()):
        if name == "burnside" or name.startswith("burnside."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)


def install(tracer) -> None:
    import burnside.cli  # noqa: F401  (loads every module the CLI binds names from)
    import burnside.closedforms as closedforms

    spans = list(SPANS)
    # every q_* closed form and q_brute, counted as one layer
    for attr in sorted(vars(closedforms)):
        if attr.startswith("q_") and callable(getattr(closedforms, attr)):
            spans.append(("burnside.closedforms", attr, "closedforms", None, None))
    for module, attr, name, on_call, on_result in spans:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap_span(name, cls.__dict__[meth], on_call, on_result))
        else:
            orig = getattr(owner, attr)
            _rebind(orig, tracer.wrap_span(name, orig, on_call, on_result))
    for module, attr, name in COUNTED:
        orig = getattr(sys.modules[module], attr)
        _rebind(orig, tracer.wrap_count(name, orig))


def cmd_setup(model: str, k: str, n: str) -> int:
    t0 = time.perf_counter()
    import burnside
    from burnside.actions import ActionSpec
    from burnside.kernels import build_bundle

    t1 = time.perf_counter()
    build_bundle(ActionSpec(model, int(n), int(k)))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "backend": burnside.EXACT_BACKEND}))
    return 0


def cmd_trace(out_path: str, argv: list[str]) -> int:
    from tracer import Tracer

    t0 = time.perf_counter()
    import burnside
    import burnside.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.root("root", burnside.cli.main, argv)
    except SystemExit as exc:  # argparse and usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    tracer.finish()
    report = {
        "exit": code,
        "backend": burnside.EXACT_BACKEND,
        "import_s": import_s,
        "totals": tracer.totals(),
        "counts": tracer.counts,
        "spans": tracer.spans(),
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "setup":
        return cmd_setup(*argv[1:])
    if len(argv) >= 2 and argv[0] == "trace":
        return cmd_trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
