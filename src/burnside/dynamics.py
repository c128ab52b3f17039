"""Exact distribution evolution, TV profiles, mixing bounds, and lumping.

Distances stay exact rationals throughout.  A distribution evolves as
integer numerators over a running denominator, reduced by their gcd after
every step (``RationalMatrix.step``).  A profile reads step 0, 1 - pi(x),
off the start and walks each distinct row once.  Worst-case profiles for a
bundle reduce the start set to orbit representatives for K and
conjugacy-class representatives for Q (both kernels are equivariant, so
every other start reproduces a representative's curve exactly) and walk
the legs lumped where their rows repeat, into classes of equal stabilizers
and of equal fixed sets, on which the TV is exact (``bundle_profiles``);
the tests check both reductions against the all-starts computation.
``LumpedPair`` alone forms lumped legs (``ChainBundle.lumped`` is the
orbit/class pair); every lumping reads a pair and ``lump`` of the full
kernel checks it.  Lumping, the floors and the sign checks compare integers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._rat import Rat
from .kernels import ChainBundle, check_detailed_balance, doeblin_floor
from .ratmat import RationalMatrix, rat_vector, scaled_vector

__all__ = [
    "evolve",
    "tv",
    "point_mass",
    "d_profile",
    "ChainProfile",
    "mixing_time_from_curve",
    "BundleProfiles",
    "bundle_profiles",
    "StatePartition",
    "StrongLumpabilityFailure",
    "lump",
    "LumpedPair",
    "LumpedChain",
    "orbit_lump_K",
    "conjugacy_lump_Q",
    "fixedpoint_lump_value",
    "cycle_count_partition",
    "tv_preservation_check",
    "minorization_transfer",
    "stationarity_transfer_check",
    "BoundResult",
    "bound_suite",
]

# minorization_transfer squares Q exactly up to this many dual states.
Q_SQUARE_DUALS = 200


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def point_mass(n: int, i: int) -> list:
    mu = [Rat(0)] * n
    mu[i] = Rat(1)
    return mu


def tv(mu: Sequence, nu: Sequence):
    """Exact total variation distance, half the l1 distance."""
    if len(mu) != len(nu):
        raise ValueError("distributions live on different index sets")
    return sum((abs(a - b) for a, b in zip(mu, nu)), Rat(0)) / 2


def evolve(p: RationalMatrix, mu: Sequence, t: int) -> list:
    """Exact mu P^t by repeated integer steps."""
    if len(mu) != p.rows:
        raise ValueError("dimension mismatch")
    nums, den = scaled_vector(mu)
    for _ in range(t):
        nums, den = p.step(nums, den)
    return rat_vector(nums, den)


def _tv_scaled(nums: np.ndarray, den: int, pi_nums: np.ndarray, pi_den: int):
    """TV between nums/den and pi_nums/pi_den (object arrays of Python ints)."""
    return Rat(int(np.abs(nums * pi_den - pi_nums * den).sum()), 2 * den * pi_den)


def _tv_tail(
    steps: Sequence[RationalMatrix], row: int, pi_scaled: tuple[np.ndarray, int], t_max: int
) -> list:
    """TV to pi after 1..t_max steps from row `row` of steps[0], one step
    being an integer step through each matrix of steps in turn: the row is
    the walk's state after steps[0], so the first step runs through the rest."""
    pi_nums, pi_den = pi_scaled
    nums, den = steps[0].num[row].astype(object), int(steps[0].den[row])
    tail = []
    for t in range(t_max):
        for m in steps[1:] if t == 0 else steps:
            nums, den = m.step(nums, den)
        tail.append(_tv_scaled(nums, den, pi_nums, pi_den))
    return tail


@dataclass
class ChainProfile:
    """Exact TV curves of one chain, one per key of its starts; starts that
    share a key share a curve (one key per start, or one per orbit or class
    by equivariance)."""

    t_max: int
    reps: list[int]  # the first start of each key
    key_of: list
    curves: dict     # key -> curve[t]
    worst: list      # worst[t] = max over starts

    @property
    def per_start(self) -> list[list]:
        return [self.curves[key] for key in self.key_of]

    def curve_for(self, start: int) -> list:
        return self.curves[self.key_of[start]]

    def mixing_time(self, eps) -> Optional[int]:
        return mixing_time_from_curve(self.worst, eps)


def _profile_per_key(
    key_of: list,
    row_of: Sequence[int],
    steps: Sequence[RationalMatrix],
    pi: Sequence,
    pi_walk: Sequence,
    t_max: int,
) -> ChainProfile:
    """Curves from the first start of each key.  At t = 0 start s is a
    point mass, at TV 1 - pi[s] from pi; from t = 1 on it walks from row
    row_of[s] of steps[0], against pi_walk.  Starts whose rows are equal
    share that tail, and it is walked once."""
    row_class = _row_classes(steps[0]).block_of
    pi_scaled = scaled_vector(pi_walk)
    reps, curves, tails = [], {}, {}
    for start, key in enumerate(key_of):
        if key in curves:
            continue
        reps.append(start)
        row = row_of[start]
        cls = row_class[row]
        if cls not in tails:
            tails[cls] = _tv_tail(steps, row, pi_scaled, t_max)
        curves[key] = [1 - pi[start], *tails[cls]]
    worst = [max(curve[t] for curve in curves.values()) for t in range(t_max + 1)]
    if not _holds(worst[1:], worst):
        raise AssertionError("worst-case TV increased from one step to the next")
    return ChainProfile(t_max, reps, key_of, curves, worst)


def d_profile(p: RationalMatrix, pi: Sequence, t_max: int) -> ChainProfile:
    """Exact worst-case TV profile over every start, to the law pi."""
    starts = list(range(p.rows))
    return _profile_per_key(starts, starts, (p,), pi, pi, t_max)


def mixing_time_from_curve(curve: Sequence, eps) -> Optional[int]:
    eps = Rat(eps) if not isinstance(eps, float) else eps
    for t, d in enumerate(curve):
        if d <= eps:
            return t
    return None


# ---------------------------------------------------------------------------
# exact profiles for a bundle (classes walked through the lumped legs)
# ---------------------------------------------------------------------------

@dataclass
class BundleProfiles:
    t_max: int
    k: ChainProfile
    q: ChainProfile
    k_lumped: ChainProfile  # K lumped by orbits (the bundle's K_bar)


def bundle_profiles(bundle: ChainBundle, t_max: int = 60) -> BundleProfiles:
    """Exact d_K and d_Q curves for every start, up to equivariance (one per
    orbit of K, one per conjugacy class of Q), and the profile of K lumped by
    orbits, read off ``bundle.lumped``.

    The walks run on the legs lumped where their rows repeat: the states
    fall into classes of equal B rows (equal stabilizers), the duals into
    classes of equal A rows (equal fixed sets); a start walks from its class
    through the ``LumpedPair`` of these classes, (B_bar, A_bar) for K = BA
    or (A_bar, B_bar) for Q = AB.  The TV on the classes is the TV on the
    states: for t >= 1, delta_x K^t is constant on each stabilizer class,
    since A's column at y depends only on G_y, and so is pi_K, proportional
    to |G_y|; for Q the same holds with fixed sets for stabilizers.  Step 0,
    1 - pi(x), is read off the start, not off its class."""
    rows = LumpedPair(bundle, _row_classes(bundle.B), _row_classes(bundle.A))
    k_profile = _profile_per_key(
        bundle.state_orbit_keys, rows.states.block_of, (rows.B_bar, rows.A_bar),
        bundle.piK, rows.piK_bar, t_max,
    )
    q_profile = _profile_per_key(
        bundle.dual_class_keys, rows.duals.block_of, (rows.A_bar, rows.B_bar),
        bundle.piQ, rows.piQ_bar, t_max,
    )
    k_lumped = d_profile(bundle.lumped.K_bar, bundle.lumped.piK_bar, t_max)
    return BundleProfiles(t_max, k_profile, q_profile, k_lumped)


# ---------------------------------------------------------------------------
# lumping
# ---------------------------------------------------------------------------

@dataclass
class StatePartition:
    labels: list
    blocks: list[list[int]]
    block_of: list[int]

    @classmethod
    def from_keys(cls, keys: Sequence) -> "StatePartition":
        """Blocks in order of first occurrence of each key."""
        order: dict = {}
        blocks: list[list[int]] = []
        for i, key in enumerate(keys):
            if key not in order:
                order[key] = len(blocks)
                blocks.append([])
            blocks[order[key]].append(i)
        return cls(list(order), blocks, [order[k] for k in keys])

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def reps(self) -> list[int]:
        """The first member of each block."""
        return [block[0] for block in self.blocks]

    def sums(self, v: Sequence) -> list:
        """The block sums of v."""
        return [sum((v[i] for i in block), Rat(0)) for block in self.blocks]

    def validate_cover(self, n: int) -> None:
        seen = sorted(i for b in self.blocks for i in b)
        if seen != list(range(n)) or any(not b for b in self.blocks):
            raise ValueError("blocks must be nonempty and partition the state set")


class LumpedPair:
    """The legs lumped by a state and a dual partition.  A_bar is A summed over
    the state blocks, one row per dual block (its first dual); B_bar is B
    summed over the dual blocks, one row per state block.  K_bar = B_bar A_bar
    and Q_bar = A_bar B_bar share their nonzero spectrum; piK_bar and piQ_bar
    are the block sums of piK and piQ.  They are K and Q lumped when the leg
    rows of one block have equal block sums, as on orbits/classes or equal rows."""

    def __init__(self, bundle: ChainBundle, states: StatePartition, duals: StatePartition):
        self.states, self.duals = states, duals
        a_bar = bundle.A.block_sums(states.block_of, states.num_blocks).select_rows(duals.reps)
        b_bar = bundle.B.block_sums(duals.block_of, duals.num_blocks).select_rows(states.reps)
        self.A_bar, self.B_bar, self.K_bar, self.Q_bar = a_bar, b_bar, b_bar @ a_bar, a_bar @ b_bar
        self.piK_bar, self.piQ_bar = states.sums(bundle.piK), duals.sums(bundle.piQ)


def _row_classes(m: RationalMatrix) -> StatePartition:
    """The rows of m grouped into classes of equal rows, each labelled by its number."""
    return StatePartition.from_keys(m.row_classes()[0])


class StrongLumpabilityFailure(Exception):
    """Two states in one source block disagree on a target-block row sum.

    ``mismatches`` lists (target_block_label, sum_i, sum_j) for every target
    block on which the two witness states disagree.
    """

    def __init__(self, state_i: int, state_j: int, mismatches: list):
        self.state_i = state_i
        self.state_j = state_j
        self.mismatches = list(mismatches)
        label, sum_i, sum_j = self.mismatches[0]
        super().__init__(
            f"block sums differ over {len(self.mismatches)} target block(s); e.g. "
            f"over {label!r}: state {state_i} gives {sum_i}, state {state_j} gives {sum_j}"
        )

    def sums_over(self, target_label):
        for label, sum_i, sum_j in self.mismatches:
            if label == target_label:
                return sum_i, sum_j
        raise KeyError(f"no mismatch over target block {target_label!r}")


def lump(p: RationalMatrix, pi: Sequence, partition: StatePartition):
    """Check strong lumpability exactly and return the lumped (kernel, pi).

    Raises StrongLumpabilityFailure with the offending pair of states and
    their differing block sums otherwise.
    """
    partition.validate_cover(p.rows)
    sums = p.block_sums(partition.block_of, partition.num_blocks)
    for block in partition.blocks:
        rep = block[0]
        # canonical rows: equal block sums have equal numerators and denominator
        same = (sums.num[block] == sums.num[rep]).all(axis=1) & (sums.den[block] == sums.den[rep])
        if not same.all():
            other = block[int(np.argmin(same))]
            rep_sums, other_sums = sums.row(rep), sums.row(other)
            mismatches = [
                (partition.labels[bi], rep_sums[bi], other_sums[bi])
                for bi in range(partition.num_blocks)
                if rep_sums[bi] != other_sums[bi]
            ]
            raise StrongLumpabilityFailure(rep, other, mismatches)
    return sums.select_rows(partition.reps), partition.sums(pi)


@dataclass
class LumpedChain:
    kernel: RationalMatrix
    pi: list
    partition: StatePartition  # of the states of the kernel that was lumped

    @property
    def labels(self) -> list:
        return self.partition.labels


def orbit_lump_K(bundle: ChainBundle) -> LumpedChain:
    """Lump K by orbits: symmetric kernel, uniform lumped stationary law."""
    pair = bundle.lumped
    bar_k, bar_pi = lump(bundle.K, bundle.piK, pair.states)
    if any(v != Rat(1, bundle.orbit_count) for v in bar_pi):
        raise AssertionError("orbit-lumped stationary law is not uniform")
    if bar_k != bar_k.transpose():
        raise AssertionError("orbit-lumped kernel is not symmetric")
    # K(x, O') = stabilizer average of |X_h & O'| / |X_h|, that is B_bar A_bar
    if pair.K_bar != bar_k:
        raise AssertionError("orbit aggregation formula mismatch")
    return LumpedChain(bar_k, bar_pi, pair.states)


def conjugacy_lump_Q(bundle: ChainBundle) -> LumpedChain:
    """Lump Q by conjugacy classes; the lumped chain stays reversible."""
    partition = bundle.lumped.duals
    bar_q, bar_pi = lump(bundle.Q, bundle.piQ, partition)
    unit = Rat(1, bundle.group_order * bundle.orbit_count)  # piQ(g) = |X_g| unit
    if any(p != len(c) * bundle.fixed_size(c[0]) * unit for p, c in zip(bar_pi, partition.blocks)):
        raise AssertionError("class-lumped stationary mass mismatch")
    if not check_detailed_balance(bar_q, bar_pi):
        raise AssertionError("class-lumped kernel lost reversibility")
    # Q(g, C') = fixed-word average of |G_u & C'| / |G_u|, that is A_bar B_bar
    if bundle.lumped.Q_bar != bar_q:
        raise AssertionError("class aggregation formula mismatch")
    return LumpedChain(bar_q, bar_pi, partition)


def fixedpoint_lump_value(bundle: ChainBundle) -> LumpedChain:
    """Lump the value-model Q by fixed-symbol count, through the class-lumped Q_bar."""
    if bundle.spec is None or bundle.spec.model != "value":
        raise ValueError("fixed-point lumping applies to the value model")
    pair = bundle.lumped
    keys = [len(bundle.duals[gi].fixed_points()) for gi in pair.duals.reps]
    partition = StatePartition.from_keys(keys)
    bar_q, bar_pi = lump(pair.Q_bar, pair.piQ_bar, partition)
    return LumpedChain(bar_q, bar_pi, partition)


def cycle_count_partition(bundle: ChainBundle) -> StatePartition:
    """Partition of the dual states by total cycle count (coordinate model)."""
    return StatePartition.from_keys([g.cycle_count() for g in bundle.duals])


@dataclass
class TvPreservationRow:
    t: int
    fine: object
    lumped: object
    equal: bool
    sign_constant: bool


def tv_preservation_check(
    p: RationalMatrix,
    pi: Sequence,
    partition: StatePartition,
    start: int,
    t_max: int,
) -> list[TvPreservationRow]:
    """Per-step comparison of fine TV against pushforward TV from one start."""
    partition.validate_cover(p.rows)
    pi_nums, pi_den = scaled_vector(pi)
    nums, den = scaled_vector(point_mass(p.rows, start))
    rows = []
    for t in range(t_max + 1):
        # diff[i] / (den pi_den) = mu(i) - pi(i)
        diff = (nums * pi_den - pi_nums * den).tolist()
        scale = 2 * den * pi_den
        fine = Rat(sum(abs(d) for d in diff), scale)
        lumped = Rat(sum(abs(sum(diff[i] for i in block)) for block in partition.blocks), scale)
        # mu - pi keeps one sign on each block, zeros aside
        sign_ok = all(
            len({diff[i] > 0 for i in block if diff[i]}) <= 1 for block in partition.blocks
        )
        rows.append(TvPreservationRow(t, fine, lumped, fine == lumped, sign_ok))
        if fine < lumped:
            raise AssertionError("lumped TV exceeded fine TV")
        if sign_ok and fine != lumped:
            raise AssertionError("sign condition held but TV was not preserved")
        nums, den = p.step(nums, den)
    return rows


# ---------------------------------------------------------------------------
# bound curves
# ---------------------------------------------------------------------------

@dataclass
class BoundResult:
    name: str
    applicable: bool
    verified: Optional[bool]
    reason: str = ""
    curve: Optional[list] = field(default=None, repr=False)
    chain: Optional[str] = None  # the worst-case curve it constrains: "K", "Q" or None


def _geometric(base, t_max: int) -> list:
    return [base**t for t in range(t_max + 1)]


def _holds(d: Sequence, bound: Sequence, lower: bool = False) -> bool:
    """d[t] <= bound[t] (>= when lower) for every t both curves reach; a
    one-step lag is a slice, d[1:] against bound."""
    return all(b <= x if lower else x <= b for x, b in zip(d, bound))


class MinorizationError(ValueError):
    pass


def minorization_transfer(
    bundle: ChainBundle,
    t_max: int = 60,
    d_q: Optional[Sequence] = None,
    floor_verified: bool = False,
) -> BoundResult:
    """From K >= delta nu (verified exactly; delta = 1/max|G_x|, nu uniform)
    build the two-step dual curve (1-delta)^floor(t/2); also verifies
    Q^2(g,.) >= delta (nu B) when there are at most Q_SQUARE_DUALS dual
    states to square exactly.  floor_verified says the caller has already
    verified K >= delta nu exactly (bound_suite, through doeblin_floor)."""
    delta = bundle.doeblin_delta
    nu = [Rat(1, bundle.num_states)] * bundle.num_states
    below = None if floor_verified else bundle.K.first_below([delta * v for v in nu])
    if below is not None:
        xi, yi = below
        raise MinorizationError(
            f"K({xi},{yi}) = {bundle.K[xi, yi]} < delta nu = {delta * nu[yi]}"
        )
    if bundle.num_duals <= Q_SQUARE_DUALS:
        q2 = bundle.Q @ bundle.Q
        nub = bundle.B.vec_mul(list(nu))
        below = q2.first_below([delta * v for v in nub])
        if below is not None:
            gi, hi = below
            raise MinorizationError(
                f"Q^2({gi},{hi}) = {q2[gi, hi]} < delta (nu B) = {delta * nub[hi]}"
            )
        note = "Q^2 floor verified exactly"
    else:
        note = f"dual space {bundle.num_duals} > {Q_SQUARE_DUALS}: Q^2 floor not squared"
    curve = [(1 - delta) ** (t // 2) for t in range(t_max + 1)]
    verified = None if d_q is None else _holds(d_q, curve)
    return BoundResult("two_step_transfer", True, verified, note, curve, "Q")


def stationarity_transfer_check(bundle: ChainBundle) -> bool:
    """piQ == piK B and piK == piQ A, exactly."""
    return (
        bundle.B.vec_mul(list(bundle.piK)) == list(bundle.piQ)
        and bundle.A.vec_mul(list(bundle.piQ)) == list(bundle.piK)
    )


def _model_bounds(
    name: str, k_reason: str, n: int, rate, rate_text: str, d_k: Sequence, d_q: Sequence
) -> list[BoundResult]:
    """The model bound d_K(t) <= n(1-rate)^t and its one-step transfer
    d_Q(t) <= n(1-rate)^(t-1) (t >= 1) to the dual."""
    curve = [n * v for v in _geometric(1 - rate, len(d_k) - 1)]
    return [
        BoundResult(f"{name}_K", True, _holds(d_k, curve), k_reason, curve, "K"),
        BoundResult(
            f"{name}_Q_transfer", True, _holds(d_q[1:], curve),
            f"n(1-{rate_text})^(t-1)", [Rat(1)] + curve[:-1], "Q",
        ),
    ]


def _mixing_equivalence(d_q: Sequence, d_k: Sequence, eps, t_max: int) -> BoundResult:
    """|t_mix(Q) - t_mix(K)| <= 1.  A time past the horizon is only known to
    exceed t_max, so the curves refute the claim only when both times are
    known, or when one chain mixed by t_max - 1 and the other had not by
    t_max; otherwise the horizon is too short to decide."""
    name = f"mixing_equiv_eps={eps}"
    tq, tk = mixing_time_from_curve(d_q, eps), mixing_time_from_curve(d_k, eps)
    shown = ", ".join(
        f"t_mix({chain})={t}" if t is not None else f"t_mix({chain}) > {t_max}"
        for chain, t in (("Q", tq), ("K", tk))
    )
    if tq is not None and tk is not None:
        return BoundResult(name, True, abs(tq - tk) <= 1, shown)
    known = tk if tq is None else tq
    if known is not None and known < t_max:
        return BoundResult(name, True, False, shown)
    return BoundResult(name, False, None, f"{shown}: horizon too short to compare")


def bound_suite(
    bundle: ChainBundle,
    t_max: int = 60,
    profiles: Optional[BundleProfiles] = None,
    eps_list: Sequence = (Rat(1, 4), Rat(1, 10)),
) -> list[BoundResult]:
    """Run every applicable mixing bound for one bundle against its exact
    TV profiles; inapplicable bounds are reported with the reason."""
    if profiles is None:
        profiles = bundle_profiles(bundle, t_max)
    if profiles.t_max < t_max:
        raise ValueError("profiles were computed with a smaller horizon")
    d_k = profiles.k.worst[: t_max + 1]
    d_q = profiles.q.worst[: t_max + 1]
    d_bar = profiles.k_lumped.worst[: t_max + 1]  # Chen's coupling bound lives here

    # the uniform floors behind the geometric rates, verified exactly first
    delta = bundle.doeblin_delta
    try:
        doeblin_floor(bundle)
        floors_hold, floor_note = True, f"floor delta = {delta} verified exactly"
    except AssertionError as exc:
        floors_hold, floor_note = False, str(exc)
    order = bundle.group_order
    chen_floor = bundle.K.first_below([pi_y / order for pi_y in bundle.piK]) is None
    ros = _geometric(1 - delta, t_max)
    chen = _geometric(1 - Rat(1, order), t_max)
    chen_note = f"row floor pi/|G| with |G| = {order} verified exactly"
    coupling = _geometric(1 - Rat(1, bundle.num_states), t_max)
    results = [
        BoundResult(name, True, premise and _holds(d, curve), reason, curve, chain)
        for name, premise, d, curve, reason, chain in (
            ("rosenthal_K", floors_hold, d_k, ros, floor_note, "K"),
            ("rosenthal_Q", floors_hold, d_q, ros, floor_note, "Q"),
            ("chen_model_free_K", chen_floor, d_k, chen, chen_note, "K"),
            ("chen_orbit_coupling", True, d_bar, coupling, f"|X| = {bundle.num_states}", "K"),
        )
    ]
    results.append(BoundResult("one_step_QK", True, _holds(d_q[1:], d_k), "d_Q(t) <= d_K(t-1)"))
    results.append(BoundResult("one_step_KQ", True, _holds(d_k[1:], d_q), "d_K(t) <= d_Q(t-1)"))
    results.append(minorization_transfer(bundle, t_max=t_max, d_q=d_q, floor_verified=floors_hold))

    spec = bundle.spec
    if spec is not None and spec.model == "value":
        if spec.k >= spec.n:
            results.extend(
                _model_bounds("paguyo", "k >= n", spec.n, Rat(1, 2 * spec.k), "1/2k", d_k, d_q)
            )
        else:
            results.append(
                BoundResult("paguyo_K", False, None, f"needs k >= n, have k={spec.k} < n={spec.n}")
            )
        results.append(
            BoundResult(
                "diaconis_fixed_k", False, None,
                "coordinate-model bound; inapplicable to the value model",
            )
        )
    elif spec is not None and spec.model == "coord":
        results.extend(
            _model_bounds("aldous", "n(1-1/k)^t", spec.n, Rat(1, spec.k), "1/k", d_k, d_q)
        )
        results.append(
            BoundResult(
                "diaconis_fixed_k", False, None,
                "rate constant for the fixed-alphabet floor is not numeric in the "
                "source; the flat-alphabet mixing probe covers the qualitative claim",
            )
        )
        if spec.k != 2:
            results.append(
                BoundResult("dz_two_sided", False, None, "binary alphabet only")
            )
        elif spec.n < 2:
            results.append(
                BoundResult(
                    "dz_two_sided", False, None, "needs n >= 2; at n = 1 K mixes in one step"
                )
            )
        else:
            results.extend(_dz_bounds(bundle, profiles, t_max))
    else:
        results.append(
            BoundResult("model_bounds", False, None, "tabled action: universal bounds only")
        )

    results.extend(_mixing_equivalence(d_q, d_k, eps, t_max) for eps in eps_list)
    return results


def _dz_bounds(bundle: ChainBundle, profiles: BundleProfiles, t_max: int) -> list[BoundResult]:
    """Two-sided binary-alphabet curves: all-equal starts for K, the
    worst-case dual lower bound, and single-n-cycle starts for Q."""
    quarter = _geometric(Rat(1, 4), t_max)  # 4^-t
    upper = [4 * v for v in quarter]
    lower = [v / 4 for v in quarter]
    dual_lower = [v / 16 for v in quarter]
    all_equal = [
        profiles.k.curve_for(xi) for xi, x in enumerate(bundle.states) if len(set(x)) == 1
    ]
    out = [
        BoundResult(
            "dz_upper_K_allequal", True, all(_holds(c, upper) for c in all_equal),
            "d_K(x0,t) <= 4 (1/4)^t", upper, "K",
        ),
        BoundResult(
            "dz_lower_K_allequal", True, all(_holds(c, lower, lower=True) for c in all_equal),
            "d_K(x0,t) >= (1/4)^(t+1)", lower, "K",
        ),
        BoundResult(
            "dz_dual_lower", True, _holds(profiles.q.worst, dual_lower, lower=True),
            "d_Q(t) >= 4^-(t+2)", dual_lower, "Q",
        ),
    ]

    ncycles = [gi for gi, g in enumerate(bundle.duals) if g.cycle_type()[0] == bundle.spec.n]
    if ncycles:
        ncycle_upper = [16 * v for v in quarter]
        ok = all(_holds(profiles.q.curve_for(gi)[1:], ncycle_upper[1:]) for gi in ncycles)
        out.append(
            BoundResult(
                "dz_Q_ncycle_upper", True, ok, "TV(Q^t(g,.), pi) <= 4^(2-t) for t >= 1",
                ncycle_upper, "Q",
            )
        )
    return out
