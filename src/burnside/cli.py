"""Command-line interface on the exact stack: verify, mix and closedform.
The parser, build, sample and the dispatcher ``main`` live in ``entry``;
``main`` is re-exported here and imports this module for these three
commands only.  Importing this module loads every module whose functions
``perfbench/probe.py`` spans, ``sampler`` included.

Exit codes are those of ``entry``; all reports are deterministic for a
fixed (config, seed).  A spec past a size cap is a usage error (exit 2),
except under verify, which prints `FAIL build: <reason>` and exits 1.
verify runs the table VERIFY_CHECKS in one loop.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from ._rat import parse_rat, rat_str
from .actions import group_degree
from .closedforms import (
    kernel_forms, overlaps, pi_coord, pi_value, q_brute, q_brute_row, qbar_value,
)
from .dynamics import (
    StrongLumpabilityFailure,
    bound_suite,
    bundle_profiles,
    conjugacy_lump_Q,
    cycle_count_partition,
    d_profile,
    fixedpoint_lump_value,
    lump,
    orbit_lump_K,
    stationarity_transfer_check,
)
# perfbench/probe.py spans sampler after importing this module.  Imported
# before the exact stack, it raised verify value 4,4's peak RSS by 0.15 MB.
from . import sampler  # noqa: F401
from .entry import console_main, main, spec_from_args
from .kernels import (
    CapExceeded,
    build_bundle,
    build_q_direct,
    check_detailed_balance,
    diagonal_equals_e_column,
    doeblin_floor,
)
from .permgroup import parse_perm
from .ratmat import RationalMatrix, differs, ratio_arrays, rows_are_products
from .spectra import bundle_gap_report, intertwine_check, spectrum_equal_report

# verify squares M (block_flip_square) up to this many rows.
BLOCK_FLIP_ROWS = 300
# verify runs intertwining and the gap reports up to this many rows of M:
# past it intertwining takes 11.6 s on value 4,4 (271 rows) and 31 s on coord
# 3,5 (363), against 1.3 s on coord 2,5 (152) (see README).
EIGEN_ROWS = 200
# verify rebuilds Q from the closed forms (|G*|^2 entries) up to this many duals.
DIRECT_Q_DUALS = 200
# verify compares the closed forms on a grid of every (nd // this)-th dual
# plus the identity, nd the number of duals: every pair below 80 duals (all
# 5776 on value 5,3, 7.5 ms of verify's 233 ms), 40 to 61 rows and columns above.
CLOSED_FORM_DUALS = 40


def _rows(bundle) -> int:
    return bundle.num_duals + bundle.num_states


def _spectrum_equal(bundle, args):
    rep = spectrum_equal_report(bundle.spectra["Q"], bundle.spectra["K"], (bundle.A, bundle.B))
    return rep.equal, f"mode = {rep.mode}"


def _gaps_agree(bundle, args):
    rep_q, _ = bundle_gap_report(bundle)  # raises when the gaps differ
    return True, f"gamma* = {rep_q.gamma_star:.6g}, t_rel = {rep_q.relaxation_time:.6g}"


def _closed_forms_match(bundle, args):
    """Q against every closed form and q_brute_row on the grid's pairs; the
    first pair that differs, in row-major order, is named."""
    # The value forms read (g, h) only through a = |Fix g| and
    # j = |Fix g & Fix h|: they run once per class a (k + 1) + j, on its
    # first pair (a coordinate-model pair is its own class).
    spec, nd = bundle.spec, bundle.num_duals
    forms = kernel_forms(spec)
    idx = sorted(set(range(0, nd, max(1, nd // CLOSED_FORM_DUALS))) | {bundle.e_index})
    hs, m = [bundle.duals[hi] for hi in idx], len(idx)
    if spec.model == "value":
        a, j = overlaps(hs)
        classes = a[:, None] * (spec.k + 1) + j
    else:
        classes = np.arange(m * m).reshape(m, m)
    firsts = {}
    for p, c in enumerate(classes.ravel().tolist()):
        firsts.setdefault(c, p)
    table = [[0] * len(forms)] * (max(firsts) + 1)
    for c, p in firsts.items():
        table[c] = [form(hs[p // m], hs[p % m]) for _, form in forms]
    tnum, tden = ratio_arrays([v for row in table for v in row], (len(table), len(forms)))
    oracle = [v for g in hs for v in q_brute_row(spec, g, hs)]
    num, den = bundle.Q.num[np.ix_(idx, idx)], bundle.Q.den[idx, None]
    wrong = differs(num, den, *ratio_arrays(oracle, (m, m)))
    for f in range(len(forms)):
        wrong |= differs(num, den, tnum[classes, f], tden[classes, f])
    if wrong.any():
        r, c = divmod(int(np.argmax(wrong)), m)
        return False, f"mismatch at ({hs[r]}, {hs[c]})"
    return True


def _block_flip_square(bundle, args):
    """M M == diag(Q, K), row by row through rows_are_products.  M is built
    here and freed with the check: holding it raised the peak RSS 0.45 MB."""
    m = RationalMatrix.block_flip(bundle.A, bundle.B)
    return rows_are_products(RationalMatrix.block_diag(bundle.Q, bundle.K), m, m)


def _direct_q(bundle, args):
    if bundle.num_duals > DIRECT_Q_DUALS:
        return None, f"{bundle.num_duals} dual states (> {DIRECT_Q_DUALS})"
    return build_q_direct(bundle.spec) == bundle.Q


def _fixedpoint_lump(bundle, args):
    lumped, spec = fixedpoint_lump_value(bundle), bundle.spec
    closed = RationalMatrix(
        [[qbar_value(spec.k, spec.n, r, s) for s in lumped.labels] for r in lumped.labels]
    )
    return lumped.kernel == closed


def _expected_lump_failure(bundle, args):
    if bundle.spec.model != "coord":
        return False, "cycle-count partition needs the coordinate model"
    try:
        lump(bundle.Q, bundle.piQ, cycle_count_partition(bundle))
    except StrongLumpabilityFailure as exc:
        gi, gj = bundle.dual_labels[exc.state_i], bundle.dual_labels[exc.state_j]
        pieces = "; ".join(f"sums over c={label}: {si} vs {sj}" for label, si, sj in exc.mismatches)
        return True, f"witnesses {gi} vs {gj}; {pieces}"
    return False, "cycle-count lumping unexpectedly succeeded"


def _bound_lines(bundle, args):
    return [
        (f"bound_{r.name}", bool(r.verified), r.reason) if r.applicable
        else (f"bound {r.name}", None, r.reason)
        for r in bound_suite(bundle, args.tmax)  # builds the profiles too
    ]


# The checks of `verify`, in print order: (name, runs here, check).  A row
# whose predicate is false prints nothing; a check returns ok, (ok, detail),
# (None, reason) for a SKIP line, or a list of (name, ok, detail) lines.
# Rows call library functions by name, so a rebound module global runs.
VERIFY_CHECKS = [
    ("legs_row_stochastic", None,
     lambda b, a: b.A.is_row_stochastic() and b.B.is_row_stochastic()),
    ("kernels_row_stochastic", None,
     lambda b, a: b.Q.is_row_stochastic() and b.K.is_row_stochastic()),
    # row by row from the legs, never through the product that built Q and K
    ("factorization_Q_eq_AB", None, lambda b, a: rows_are_products(b.Q, b.A, b.B)),
    ("factorization_K_eq_BA", None, lambda b, a: rows_are_products(b.K, b.B, b.A)),
    ("block_flip_square", lambda b, a: _rows(b) <= BLOCK_FLIP_ROWS, _block_flip_square),
    ("stationary_piQ", None, lambda b, a: b.Q.vec_mul(list(b.piQ)) == list(b.piQ)),
    ("stationary_piK", None, lambda b, a: b.K.vec_mul(list(b.piK)) == list(b.piK)),
    ("stationarity_transfer", None, lambda b, a: stationarity_transfer_check(b)),
    ("detailed_balance_Q", None, lambda b, a: check_detailed_balance(b.Q, b.piQ)),
    ("detailed_balance_K", None, lambda b, a: check_detailed_balance(b.K, b.piK)),
    ("diagonal_equals_e_column", None, lambda b, a: diagonal_equals_e_column(b)),
    ("doeblin_floor", None, lambda b, a: (True, f"delta = {doeblin_floor(b)}")),
    ("nonzero_spectrum_equal", None, _spectrum_equal),
    ("eigenvector_intertwining", lambda b, a: _rows(b) <= EIGEN_ROWS,
     lambda b, a: intertwine_check(b)["ok"]),
    ("absolute_gaps_agree", lambda b, a: _rows(b) <= EIGEN_ROWS, _gaps_agree),
    ("closed_forms_match_kernel", None, _closed_forms_match),
    ("direct_q_construction", None, _direct_q),
    ("conjugacy_lump_Q", None, lambda b, a: (True, f"{conjugacy_lump_Q(b).kernel.rows} classes")),
    ("orbit_lump_K", None, lambda b, a: (True, f"{orbit_lump_K(b).kernel.rows} orbits")),
    ("fixedpoint_lump_matches_closed_form", lambda b, a: b.spec.model == "value",
     _fixedpoint_lump),
    ("expected_lump_failure", lambda b, a: a.expect_lump_failure == "cycle-count",
     _expected_lump_failure),
    ("bound_suite", None, _bound_lines),
]


def _check_tmax(tmax: int) -> None:
    if tmax < 0:
        raise ValueError(f"tmax must be >= 0, got {tmax}")


def cmd_verify(args) -> int:
    spec = spec_from_args(args)
    _check_tmax(args.tmax)
    try:
        bundle = build_bundle(spec)
    except CapExceeded as exc:
        print(f"FAIL build: {exc}")
        return 1
    failures = 0
    for name, runs_here, check in VERIFY_CHECKS:
        if runs_here is not None and not runs_here(bundle, args):
            continue
        try:
            out = check(bundle, args)
        except (AssertionError, ValueError, StrongLumpabilityFailure) as exc:
            out = (False, str(exc))
        if not isinstance(out, list):
            out = [(name, *out) if isinstance(out, tuple) else (name, out, "")]
        for line, ok, detail in out:
            failures += ok is not None and not ok
            tag = "SKIP" if ok is None else "PASS" if ok else "FAIL"
            print(f"{tag} {line}" + (f": {detail}" if detail else ""))
    print(f"{'PASS' if failures == 0 else 'FAIL'} total: {failures} failure(s)")
    return 0 if failures == 0 else 1


def _parse_eps(values) -> list:
    out = [parse_rat(v) for v in (values or ["1/4", "1/10"])]
    for eps in out:
        if not 0 < eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {rat_str(eps)}")
    return out


def cmd_mix(args) -> int:
    spec = spec_from_args(args)
    eps_list = _parse_eps(args.eps)
    _check_tmax(args.tmax)
    bundle = build_bundle(spec)
    profiles = bundle_profiles(bundle, args.tmax)
    results = bound_suite(bundle, args.tmax, profiles, eps_list=eps_list)
    d_k = profiles.k.worst
    d_q = profiles.q.worst
    dbar_k = profiles.k_lumped.worst
    bar_q = conjugacy_lump_Q(bundle)
    dbar_q = d_profile(bar_q.kernel, bar_q.pi, args.tmax).worst

    rows = [("t", "d_fine", "d_lumped", "bound_name", "bound_value", "ok")]
    for t in range(args.tmax + 1):
        rows.append((t, rat_str(d_k[t]), rat_str(dbar_k[t]), "d_K", "", ""))
        rows.append((t, rat_str(d_q[t]), rat_str(dbar_q[t]), "d_Q", "", ""))
    for res in results:
        if res.curve is None or res.chain is None:
            continue
        fine, lumped = (d_k, dbar_k) if res.chain == "K" else (d_q, dbar_q)
        for t in range(args.tmax + 1):
            rows.append(
                (t, rat_str(fine[t]), rat_str(lumped[t]), res.name,
                 rat_str(res.curve[t]), str(bool(res.verified)).lower())
            )
    summary = {
        "model": spec.model,
        "n": spec.n,
        "k": spec.k,
        "t_max": args.tmax,
        "mixing_times": {
            str(eps): {
                "Q": profiles.q.mixing_time(eps),
                "K": profiles.k.mixing_time(eps),
            }
            for eps in eps_list
        },
        "bounds": [
            {
                "name": r.name,
                "applicable": r.applicable,
                "verified": r.verified,
                "reason": r.reason,
            }
            for r in results
        ],
    }
    if args.format == "csv":
        text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    else:
        text = json.dumps(
            {
                "summary": summary,
                "curves": {
                    "d_K": [rat_str(v) for v in d_k],
                    "d_Q": [rat_str(v) for v in d_q],
                    "d_K_orbit_lumped": [rat_str(v) for v in dbar_k],
                    "d_Q_class_lumped": [rat_str(v) for v in dbar_q],
                    **{
                        r.name: [rat_str(v) for v in r.curve]
                        for r in results
                        if r.curve is not None
                    },
                },
            },
            indent=1,
        ) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for eps, times in summary["mixing_times"].items():
        print(f"eps={eps}: t_mix(Q)={times['Q']} t_mix(K)={times['K']}", file=sys.stderr)
    bad = [r.name for r in results if r.applicable and not r.verified]
    return 1 if bad else 0


def cmd_closedform(args) -> int:
    spec = spec_from_args(args)
    deg = group_degree(spec)
    g = parse_perm(args.g, deg)
    h = parse_perm(args.h, deg)
    rows = [(name, form(g, h)) for name, form in kernel_forms(spec)]
    pi_g = pi_value(spec.k, spec.n, g) if spec.model == "value" else pi_coord(spec.n, spec.k, g)
    rows.append(("brute_force", q_brute(spec, g, h)))
    payload = {
        "model": spec.model,
        "n": spec.n,
        "k": spec.k,
        "g": str(g),
        "h": str(h),
        "Q(g,h)": {name: rat_str(v) for name, v in rows},
        "pi(g)": rat_str(pi_g),
        "all_equal": len({v for _, v in rows}) == 1,
    }
    print(json.dumps(payload, indent=1))
    return 0 if payload["all_equal"] else 1


if __name__ == "__main__":
    # `python -m burnside.cli`: registered as burnside.cli, this module is the
    # one main imports for verify, mix and closedform, so its body runs once
    sys.modules["burnside.cli"] = sys.modules[__name__]
    console_main()
