"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Runs the full stated grids at the stated tolerances.  Bundles and TV
profiles are shared through session fixtures so each instance is built once.
"""

import time
from math import comb, factorial

import pytest

from burnside._rat import Rat
from burnside.actions import (
    coord_spec,
    dual_states,
    enumerate_fixed_words,
    fixed_set_size,
    random_tabled_action,
    stabilizer_size,
    value_spec,
    word_index,
    words,
)
from burnside.closedforms import (
    q_coord_binary,
    q_coord_colorings,
    q_coord_expectation,
    q_coord_id_to_tcycle,
    q_coord_tcycle_to_e,
    q_value_coefficient,
    q_value_expectation,
    q_value_stirling,
    qbar_value,
)
from burnside.dynamics import (
    StrongLumpabilityFailure,
    bound_suite,
    bundle_profiles,
    conjugacy_lump_Q,
    cycle_count_partition,
    fixedpoint_lump_value,
    lump,
    mixing_time_from_curve,
    orbit_lump_K,
    stationarity_transfer_check,
)
from burnside.kernels import build_bundle, build_k_matrix
from burnside.permgroup import from_cycles, identity, joint_orbits
from burnside.ratmat import RationalMatrix
from burnside.sampler import ChainRun, empirical_one_step_row, make_rng, run_chain
from burnside.spectra import char_poly, dz_check, extract_rational_roots, spectrum_equal_report

import goldens


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


VALUE_GRID = [(k, n) for k in range(1, 5) for n in range(1, 5)]
COORD_GRID = (
    [(1, n) for n in range(1, 5)]
    + [(2, n) for n in range(1, 7)]
    + [(3, n) for n in range(1, 7)]
)

# bundles whose bound suites criterion 6 must pass
SUITE_KEYS = (
    [("value", k, n) for k in (2, 3, 4) for n in (2, 3, 4)]
    + [("value", 5, 4)]
    + [("coord", 2, n) for n in (3, 4, 5, 6)]
    + [("coord", 3, n) for n in (2, 3, 4, 5, 6)]
)


@pytest.fixture(scope="module")
def profiles_cache(bundles):
    cache: dict = {}

    def get(model: str, k: int, n: int, t_max: int = 60):
        key = (model, k, n)
        if key not in cache or cache[key].t_max < t_max:
            cache[key] = bundle_profiles(bundles(model, k, n), t_max)
        return cache[key]

    return get


def test_criterion_1_golden_matrices():
    elapsed = {}
    t0 = time.monotonic()
    bv = build_bundle(value_spec(3, 2))
    elapsed["value"] = time.monotonic() - t0
    t0 = time.monotonic()
    bc = build_bundle(coord_spec(2, 3))
    elapsed["coord"] = time.monotonic() - t0

    def as_strings(m: RationalMatrix):
        return [[str(v) for v in m.row(i)] for i in range(m.rows)]

    ok = (
        bv.dual_labels == goldens.VALUE_32_DUALS
        and bv.state_labels == goldens.VALUE_32_WORDS
        and as_strings(bv.A) == goldens.VALUE_32_A
        and as_strings(bv.B) == goldens.VALUE_32_B
        and as_strings(bv.Q) == goldens.VALUE_32_Q
        and as_strings(bv.K) == goldens.VALUE_32_K
        and bc.dual_labels == goldens.COORD_23_DUALS
        and as_strings(bc.A) == goldens.COORD_23_A
        and as_strings(bc.B) == goldens.COORD_23_B
        and as_strings(bc.Q) == goldens.COORD_23_Q
        and as_strings(bc.K) == goldens.COORD_23_K
    )
    for bundle, expect in ((bv, goldens.VALUE_32_SPEC_Q), (bc, goldens.COORD_23_SPEC_Q)):
        roots, rem = extract_rational_roots(char_poly(bundle.Q), bundle.Q, bundle.piQ)
        ok = ok and rem.degree == 0 and {str(r): m for r, m in roots.items()} == expect
    ok = ok and elapsed["value"] < 1.0 and elapsed["coord"] < 1.0
    report(
        1, ok,
        "golden A,B,Q,K and Spec(Q) reproduced exactly "
        f"(build {elapsed['value']:.2f}s / {elapsed['coord']:.2f}s)",
    )


def test_criterion_2_spectral_correspondence(bundles):
    t0 = time.monotonic()
    modes = {"direct": 0, "certificate": 0}
    for k, n in VALUE_GRID:
        b = bundles("value", k, n)
        rep = spectrum_equal_report(b.spectra["Q"], b.spectra["K"], legs=(b.A, b.B))
        assert rep.equal, f"value k={k} n={n}"
        modes[rep.mode] += 1
    for k, n in COORD_GRID:
        b = bundles("coord", k, n)
        rep = spectrum_equal_report(b.spectra["Q"], b.spectra["K"], legs=(b.A, b.B))
        assert rep.equal, f"coord k={k} n={n}"
        modes[rep.mode] += 1
    rng = make_rng(20260809)
    tabled = 0
    while tabled < 20:
        action = random_tabled_action(rng)
        b = build_bundle(action)
        rep = spectrum_equal_report(b.spectra["Q"], b.spectra["K"], legs=(b.A, b.B))
        assert rep.equal and rep.mode == "direct", "tabled action"
        tabled += 1
    dt = time.monotonic() - t0
    report(
        2, dt < 60.0,
        f"nonzero spectra agree on {len(VALUE_GRID)} value + {len(COORD_GRID)} coord "
        f"instances ({modes['direct']} direct, {modes['certificate']} certificate) "
        f"+ 20 tabled actions in {dt:.1f}s (< 60s)",
    )


def _value_pair_check(k: int, n: int) -> int:
    """All ordered non-derangement pairs: every form equals the definition."""
    spec = value_spec(k, n)
    duals = list(dual_states(spec))
    lcm_stab = factorial(k)
    fixed_sets = []
    for g in duals:
        fixed_sets.append(frozenset(word_index(spec, x) for x in enumerate_fixed_words(spec, g)))
    weights = {}
    for idx_set in fixed_sets:
        for xi in idx_set:
            if xi not in weights:
                x = words(spec)[xi]
                weights[xi] = lcm_stab // stabilizer_size(spec, x)
    form_cache: dict = {}
    pairs = 0
    for gi, g in enumerate(duals):
        size_g = fixed_set_size(spec, g)
        for hi, h in enumerate(duals):
            brute = Rat(
                sum(weights[xi] for xi in fixed_sets[gi] & fixed_sets[hi]),
                lcm_stab * size_g,
            )
            a = len(g.fixed_points())
            j = len(g.fixed_points() & h.fixed_points())
            key = (a, j)
            if key not in form_cache:
                form_cache[key] = (
                    q_value_stirling(k, n, g, h),
                    q_value_expectation(k, n, g, h),
                    q_value_coefficient(k, n, g, h),
                )
            assert all(f == brute for f in form_cache[key]), (k, n, str(g), str(h))
            pairs += 1
    return pairs


def _coord_pair_check(k: int, n: int) -> int:
    spec = coord_spec(k, n)
    from burnside.permgroup import enumerate_sym

    duals = list(enumerate_sym(n))
    lcm_stab = factorial(n)
    fixed_sets = [
        frozenset(word_index(spec, x) for x in enumerate_fixed_words(spec, g))
        for g in duals
    ]
    weights = {}
    for idx_set in fixed_sets:
        for xi in idx_set:
            if xi not in weights:
                x = words(spec)[xi]
                weights[xi] = lcm_stab // stabilizer_size(spec, x)
    form_cache: dict = {}
    pairs = 0
    for gi, g in enumerate(duals):
        size_g = k ** g.cycle_count()
        for hi, h in enumerate(duals):
            brute = Rat(
                sum(weights[xi] for xi in fixed_sets[gi] & fixed_sets[hi]),
                lcm_stab * size_g,
            )
            sizes = tuple(sorted(len(b) for b in joint_orbits(g, h)))
            key = (g.cycle_count(), sizes)
            if key not in form_cache:
                forms = [
                    q_coord_colorings(n, k, g, h),
                    q_coord_expectation(n, k, g, h),
                ]
                if k == 2:
                    forms.append(q_coord_binary(n, g, h))
                form_cache[key] = tuple(forms)
            assert all(f == brute for f in form_cache[key]), (k, n, str(g), str(h))
            pairs += 1
    return pairs


def test_criterion_3_closed_form_equivalence():
    t0 = time.monotonic()
    total = 0
    for k in range(1, 6):
        for n in range(1, 5):
            total += _value_pair_check(k, n)
    for n in range(1, 7):
        total += _coord_pair_check(2, n)
    for n in range(1, 6):
        total += _coord_pair_check(3, n)
    dt = time.monotonic() - t0
    report(
        3, dt < 600.0,
        f"all closed forms equal the definition on {total} ordered pairs in {dt:.1f}s (< 600s)",
    )


def test_criterion_4_t_cycle_formulas():
    checked = 0
    for n in range(2, 8):
        e = identity(n)
        for k in (2, 3):
            for t in range(2, n + 1):
                h = from_cycles(n, [tuple(range(1, t + 1))])
                forward = q_coord_id_to_tcycle(n, k, t)
                backward = q_coord_tcycle_to_e(n, k, t)
                assert forward == q_coord_colorings(n, k, e, h), (n, k, t)
                assert backward == q_coord_colorings(n, k, h, e), (n, k, t)
                assert q_coord_colorings(n, k, h, h) == backward, (n, k, t)
                checked += 1
    # the binary closed form against direct colorings enumeration up to n = 10
    for n in range(2, 11):
        e = identity(n)
        for t in range(2, n + 1):
            h = from_cycles(n, [tuple(range(1, t + 1))])
            closed = Rat(comb(2 * n - t, n), factorial(n) * 2 ** (n - 1))
            assert q_coord_id_to_tcycle(n, 2, t) == closed
            assert q_coord_colorings(n, 2, e, h) == closed
            checked += 1
    report(4, True, f"t-cycle closed forms match kernel entries in {checked} cases")


def test_criterion_5_lumping(bundles):
    # fixed-point lumping against the lumped closed forms
    for k in range(2, 6):
        for n in range(1, 5):
            b = bundles("value", k, n)
            lumped = fixedpoint_lump_value(b)
            counts = lumped.partition.labels
            for i, r in enumerate(counts):
                for j, s in enumerate(counts):
                    assert lumped.kernel[i, j] == qbar_value(k, n, r, s), (k, n, r, s)
    # conjugacy lumping holds in both models (aggregation formula included)
    for key in [("value", 3, 2), ("value", 4, 3), ("value", 5, 4),
                ("coord", 2, 3), ("coord", 2, 4), ("coord", 3, 4)]:
        conjugacy_lump_Q(bundles(*key))
        orbit_lump_K(bundles(*key))
    # the cycle-count partition fails with the documented witnesses
    b = bundles("coord", 2, 4)
    try:
        lump(b.Q, b.piQ, cycle_count_partition(b))
        report(5, False, "cycle-count lumping unexpectedly succeeded")
    except StrongLumpabilityFailure as exc:
        sums = dict(
            zip(
                (b.dual_labels[exc.state_i], b.dual_labels[exc.state_j]),
                (str(v) for v in exc.sums_over(2)),
            )
        )
        ok = sums == goldens.COUNTEREXAMPLE_N4
        report(
            5, ok,
            f"fixed-point and conjugacy lumpings verified; cycle-count witnesses {sums}",
        )


def test_criterion_6_bound_suite(bundles, profiles_cache):
    t_max = 60
    failures = []
    suites = 0
    for model, k, n in SUITE_KEYS:
        b = bundles(model, k, n)
        profiles = profiles_cache(model, k, n, t_max)
        for res in bound_suite(b, t_max, profiles):
            suites += 1
            if res.applicable and not res.verified:
                failures.append((model, k, n, res.name))
    rng = make_rng(424242)
    for _ in range(20):
        b = build_bundle(random_tabled_action(rng))
        for res in bound_suite(b, t_max):
            suites += 1
            if res.applicable and not res.verified:
                failures.append(("tabled", b.num_states, b.num_duals, res.name))
    report(
        6, not failures,
        f"{suites} bound checks at t <= {t_max} across {len(SUITE_KEYS)} model bundles "
        f"+ 20 tabled bundles; failures: {failures if failures else 'none'}",
    )


def test_criterion_7_dz_eigenvalues(bundles):
    results = {}
    for n in (4, 5, 6):
        results[n] = dz_check(n, bundles("coord", 2, n).K)
    for n in (7, 8):
        results[n] = dz_check(n, build_k_matrix(coord_spec(2, n)))
    report(
        7, all(results.values()),
        f"distinct nontrivial eigenvalues match the squared central-binomial law for n=4..8 ({results})",
    )


def test_criterion_8_n_independent_mixing(bundles, profiles_cache):
    times = {}
    quarter = Rat(1, 4)
    for n in (3, 4, 5, 6):
        b = bundles("coord", 2, n)
        profiles = profiles_cache("coord", 2, n)
        all_equal_idx = next(
            xi for xi, x in enumerate(b.states) if len(set(x)) == 1
        )
        curve = profiles.k.curve_for(all_equal_idx)
        times[n] = mixing_time_from_curve(curve, quarter)
    ok = len(set(times.values())) == 1 and None not in times.values()
    report(
        8, ok,
        f"all-equal-start mixing time at eps=1/4 is {times} across n=3..6 (constant in n)",
    )


ONE_STEP_CASES = [
    # (model, k, n, chain, start selector, seed)
    ("value", 3, 2, "primal", "word:11", 9001),
    ("value", 3, 2, "dual", "perm:(1 2)", 9002),
    ("coord", 2, 3, "primal", "word:000", 9003),
    ("coord", 2, 3, "dual", "perm:e", 9004),
    ("coord", 2, 3, "dual", "perm:(1 2 3)", 9005),
]


def test_criterion_9_sampler_fidelity(bundles):
    from burnside.actions import word_from_str
    from burnside.permgroup import parse_perm

    worst_one_step = 0.0
    for model, k, n, chain, start_sel, seed in ONE_STEP_CASES:
        b = bundles(model, k, n)
        spec = b.spec
        kind, _, text = start_sel.partition(":")
        if kind == "word":
            start = word_from_str(spec, text)
            row_idx = word_index(spec, start)
            exact = {
                x: b.K[row_idx, word_index(spec, x)] for x in words(spec)
            }
        else:
            start = parse_perm(text, n if model == "coord" else k)
            row_idx = b.duals.index(start)
            exact = dict(zip(b.duals, b.Q.row(row_idx)))
        law = empirical_one_step_row(spec, chain, start, 200_000, seed=seed)
        tv = law.tv_to(exact)
        worst_one_step = max(worst_one_step, tv)
        assert tv <= 0.01, (model, k, n, chain, start_sel, tv)

    long_runs = {}
    res = run_chain(ChainRun(value_spec(3, 2), "primal", (1, 1), 10**6, seed=9100))
    long_runs["value_primal"] = res.tv_to_stationary
    res = run_chain(ChainRun(coord_spec(2, 3), "dual", identity(3), 10**6, seed=9101))
    long_runs["coord_dual"] = res.tv_to_stationary
    ok = all(v is not None and v <= 0.01 for v in long_runs.values())
    report(
        9, ok,
        f"one-step rows within TV 0.01 (worst {worst_one_step:.4f}) at 2e5 draws; "
        f"occupation TV at 1e6 steps: {', '.join(f'{k}={v:.4f}' for k, v in long_runs.items())}",
    )


def test_criterion_10_stationarity_transfer(bundles):
    checked = 0
    for model, k, n in SUITE_KEYS:
        b = bundles(model, k, n)
        assert stationarity_transfer_check(b), (model, k, n)
        checked += 1
    from burnside.actions import count_orbits

    z_value = count_orbits(value_spec(5, 4))
    z_coord = count_orbits(coord_spec(3, 4))
    ok = z_value == 15 and z_coord == 15
    ok = ok and bundles("value", 5, 4).orbit_count == 15
    ok = ok and bundles("coord", 3, 4).orbit_count == 15
    report(
        10, ok,
        f"piQ = piK B and piK = piQ A exact on {checked} bundles; "
        f"orbit counts {z_value} (value 5,4) and {z_coord} (coord 3,4)",
    )
