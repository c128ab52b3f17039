"""Simulation: determinism, one-step fidelity, uniform subroutines."""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chi2

from burnside import actions, closedforms, kernels, permgroup, sampler
from burnside.actions import (
    ActionSpec,
    Stepper,
    coord_spec,
    dual_states,
    enumerate_fixed_words,
    group_degree,
    stabilizer_elements,
    value_spec,
    word_from_str,
    word_index,
    words,
)
from burnside.kernels import build_bundle
from burnside.permgroup import Permutation, identity, parse_perm
from burnside.sampler import (
    ChainRun,
    empirical_one_step_row,
    make_rng,
    run_chain,
    step_dual,
    step_primal,
    summary_json,
)


def chi_square_uniform(counts: dict, support_size: int, draws: int) -> float:
    """p-value of the uniformity chi-square over a known finite support."""
    expected = draws / support_size
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    stat += (support_size - len(counts)) * expected  # unseen cells
    return float(chi2.sf(stat, support_size - 1))


class TestDeterminism:
    def test_identical_configs_identical_trajectories(self):
        spec = coord_spec(2, 4)
        run = ChainRun(spec, "dual", identity(4), 2000, seed=11)
        r1 = run_chain(run, keep_trajectory=True)
        r2 = run_chain(run, keep_trajectory=True)
        assert r1.trajectory == r2.trajectory
        assert summary_json(r1) == summary_json(r2)

    def test_different_streams_differ(self):
        spec = coord_spec(2, 4)
        a = run_chain(ChainRun(spec, "dual", identity(4), 500, seed=11, stream=0), True)
        b = run_chain(ChainRun(spec, "dual", identity(4), 500, seed=11, stream=1), True)
        assert a.trajectory != b.trajectory

    def test_trajectory_is_prefix_of_longer_run(self):
        for spec, chain, start in (
            (coord_spec(3, 5), "dual", identity(5)),
            (value_spec(4, 3), "primal", (1, 1, 2)),
        ):
            short = run_chain(ChainRun(spec, chain, start, 300, seed=21), True)
            longer = run_chain(ChainRun(spec, chain, start, 500, seed=21), True)
            assert longer.trajectory[:301] == short.trajectory

    def test_shuffled_list_matches_permutation_draws(self):
        # the stabilizer draw shuffles a list copy of each block in place; it
        # relies on that consuming the stream exactly as rng.permutation does
        for length in (2, 3, 8, 32):
            block = list(range(5, 5 + length))
            a, b = make_rng(31, length), make_rng(31, length)
            for _ in range(50):
                shuffled = list(block)
                a.shuffle(shuffled)
                assert shuffled == b.permutation(block).tolist()
            assert a.integers(0, 2**62) == b.integers(0, 2**62)

    def test_stream_range_checked(self):
        make_rng(0, 2**64 - 1)
        for stream in (-1, 2**64):
            with pytest.raises(ValueError, match="stream must fit in 64 bits"):
                make_rng(0, stream)

    def test_zero_length_run(self):
        spec = value_spec(3, 2)
        res = run_chain(ChainRun(spec, "primal", (1, 1), 0, seed=0))
        assert res.law.counts == {(1, 1): 1}
        assert res.final_state == (1, 1)


class TestOneStepRows:
    def test_primal_value_row(self, golden_value):
        spec = golden_value.spec
        law = empirical_one_step_row(spec, "primal", (1, 1), 200_000, seed=101)
        exact = {
            x: golden_value.K[0, word_index(spec, x)] for x in words(spec)
        }
        assert law.tv_to(exact) <= 0.01

    def test_dual_value_row(self, golden_value):
        spec = golden_value.spec
        g = golden_value.duals[1]  # (1 2): row (1/2, 1/2, 0, 0)
        law = empirical_one_step_row(spec, "dual", g, 200_000, seed=102)
        exact = dict(zip(golden_value.duals, golden_value.Q.row(1)))
        assert law.tv_to(exact) <= 0.01
        assert set(law.counts) <= {golden_value.duals[0], golden_value.duals[1]}

    def test_primal_coord_row(self, golden_coord):
        spec = golden_coord.spec
        law = empirical_one_step_row(spec, "primal", (1, 1, 1), 200_000, seed=103)
        exact = {
            x: golden_coord.K[0, word_index(spec, x)] for x in words(spec)
        }
        assert law.tv_to(exact) <= 0.01

    def test_dual_coord_row_from_identity(self, golden_coord):
        spec = golden_coord.spec
        law = empirical_one_step_row(spec, "dual", identity(3), 200_000, seed=104)
        exact = dict(zip(golden_coord.duals, golden_coord.Q.row(0)))
        assert law.tv_to(exact) <= 0.01

    def test_dual_flat_row_from_ncycle(self, golden_coord):
        spec = golden_coord.spec
        g = parse_perm("(1 2 3)", 3)
        law = empirical_one_step_row(spec, "dual", g, 100_000, seed=105)
        for h in dual_states(spec):
            assert abs(law.counts.get(h, 0) / 100_000 - 1 / 6) <= 0.01

    def test_trivial_stabilizer_uniform_target(self):
        # a word using every symbol forces g = e, so one step lands uniformly
        spec = value_spec(3, 3)
        law = empirical_one_step_row(spec, "primal", (1, 2, 3), 100_000, seed=106)
        for x in words(spec):
            assert abs(law.counts.get(x, 0) / 100_000 - 1 / 27) <= 0.01


# sha256 of the sorted (state, count) pairs of empirical_one_step_row over
# 20,000 draws from each start of criterion 9: a change to either sampling
# primitive that alters how it consumes the stream changes the counts
ONE_STEP_COUNT_DIGESTS = {
    ("value", 3, 2, "primal", "11", 9001):
        "e17dcf1272fa8a98cca39fb30832a49b119dcfb3eb213adb8a8c3ffb4a49e85d",
    ("value", 3, 2, "dual", "(1 2)", 9002):
        "af7797b53e4f525e7a28199ba4d9c6f7df5a39aec04c65d0a9022a372dcf51de",
    ("coord", 2, 3, "primal", "000", 9003):
        "f78df613f6a538abbaba47430ae4d1e28ffb61d79dd3117fcf743ce8ea94d84f",
    ("coord", 2, 3, "dual", "e", 9004):
        "2eb03bb415da6c0f4d0859f9c6698c65ab622387e0e34b59e5d5812b90f3cca1",
    ("coord", 2, 3, "dual", "(1 2 3)", 9005):
        "c16959745c541f10df48dbeb2f92dd947e410ba8bc71237b7a5228dff186ea80",
}


@pytest.mark.parametrize(
    "case", list(ONE_STEP_COUNT_DIGESTS), ids=lambda c: "{}{},{}-{}-{}".format(*c)
)
def test_one_step_row_counts_digest(case):
    model, k, n, chain, start_text, seed = case
    spec = ActionSpec(model, n, k)
    if chain == "primal":
        start = word_from_str(spec, start_text)
    else:
        start = parse_perm(start_text, group_degree(spec))
    law = empirical_one_step_row(spec, chain, start, 20_000, seed=seed)
    pairs = sorted((str(state), c) for state, c in law.counts.items())
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == ONE_STEP_COUNT_DIGESTS[case]


class TestChiSquareUniformity:
    def test_stabilizer_draws(self):
        cases = [
            (value_spec(4, 2), (1, 1)),        # |G_x| = 6
            (value_spec(5, 1), (1,)),          # |G_x| = 24
            (coord_spec(2, 4), (1, 2, 1, 2)),  # |G_x| = 4
            (coord_spec(3, 4), (1, 1, 2, 3)),  # |G_x| = 2
        ]
        for spec, x in cases:
            support = list(stabilizer_elements(spec, x))
            rng = make_rng(2000)
            draws = 50_000
            counts: dict = {}
            from burnside.actions import sample_stabilizer_uniform

            for _ in range(draws):
                g = sample_stabilizer_uniform(spec, x, rng)
                counts[g] = counts.get(g, 0) + 1
            assert set(counts) <= set(support)
            assert chi_square_uniform(counts, len(support), draws) > 1e-3

    def test_fixed_word_draws(self):
        cases = [
            (value_spec(4, 3), parse_perm("(1 2)", 4)),   # |X_g| = 8
            (coord_spec(2, 5), parse_perm("(1 2)(3 4)", 5)),  # |X_g| = 8
            (coord_spec(2, 6), parse_perm("(1 2 3)", 6)),  # |X_g| = 16
        ]
        for spec, g in cases:
            support = list(enumerate_fixed_words(spec, g))
            assert len(support) <= 64
            rng = make_rng(3000)
            draws = 50_000
            counts: dict = {}
            from burnside.actions import sample_fixed_word_uniform

            for _ in range(draws):
                y = sample_fixed_word_uniform(spec, g, rng)
                counts[y] = counts.get(y, 0) + 1
            assert set(counts) <= set(support)
            assert chi_square_uniform(counts, len(support), draws) > 1e-3


class TestDualStaysInDualSpace:
    def test_never_proposes_derangement(self):
        spec = value_spec(4, 2)
        rng = make_rng(42)
        g = identity(4)
        for _ in range(5000):
            g = step_dual(spec, g, rng)
            assert g.fixed_points(), f"dual sampler proposed a derangement {g}"

    def test_derangement_start_rejected(self):
        spec = value_spec(2, 2)
        with pytest.raises(ValueError):
            step_dual(spec, parse_perm("(1 2)", 2), make_rng(0))


class TestStartValidation:
    # each start is checked once, when the run is made; steps=0 shows that no
    # step is needed to refuse it
    @pytest.mark.parametrize(
        "spec, chain, start",
        [
            (value_spec(3, 2), "dual", parse_perm("(1 2 3)", 3)),  # a derangement
            (coord_spec(2, 3), "primal", (1, 2)),  # too short
            (coord_spec(2, 3), "primal", (1, 5, 1)),  # letter 5 past k = 2
            (coord_spec(2, 3), "primal", [1, 1, 1]),  # not a tuple
            (coord_spec(2, 3), "dual", identity(4)),  # degree 4, not 3
            (coord_spec(2, 3), "dual", (1, 2, 3)),  # images, not a Permutation
        ],
        ids=["derangement", "short-word", "letter-past-k", "list-word", "wrong-degree", "tuple-dual"],
    )
    def test_invalid_start_refused(self, spec, chain, start):
        with pytest.raises(ValueError, match="invalid start"):
            ChainRun(spec, chain, start, 0, seed=0)
        with pytest.raises(ValueError, match="invalid start"):
            empirical_one_step_row(spec, chain, start, 1, seed=0)

    @pytest.mark.parametrize(
        "spec, start",
        [(value_spec(3, 2), (1, 5)), (value_spec(3, 2), (1,)), (coord_spec(2, 3), (1, 5, 1))],
        ids=["letter-past-k", "short-word", "coord-letter-past-k"],
    )
    def test_step_primal_refuses_invalid_start(self, spec, start):
        # as step_dual does: a bad word is refused, not stepped from
        with pytest.raises(ValueError, match="invalid start"):
            step_primal(spec, start, make_rng(0))

    def test_derangement_message(self):
        with pytest.raises(ValueError, match=r"invalid start: \(1 2 3\) is a derangement"):
            ChainRun(value_spec(3, 2), "dual", parse_perm("(1 2 3)", 3), 0, seed=0)


class TestStepsOnTuples:
    def test_no_permutation_per_step(self, monkeypatch):
        # the chain walks tuples; dual states become Permutations once each,
        # at the end, and a primal run builds none
        made = []
        init = permgroup.Permutation.__init__

        def spy(self, images):
            made.append(1)
            init(self, images)

        dual = ChainRun(coord_spec(2, 6), "dual", identity(6), 2000, seed=4)
        primal = ChainRun(coord_spec(2, 8), "primal", (1, 2) * 4, 2000, seed=4)
        monkeypatch.setattr(permgroup.Permutation, "__init__", spy)
        res = run_chain(dual)
        assert 0 < len(made) <= len(res.law.counts) + 2
        made.clear()
        run_chain(primal)
        assert made == []

    @pytest.mark.parametrize(
        "spec",
        [
            value_spec(4, 3), value_spec(12, 2), value_spec(6, 2), coord_spec(3, 5),
            coord_spec(5, 7), coord_spec(2, 300), coord_spec(1, 5),
        ],
        ids=lambda s: f"{s.model}{s.k},{s.n}",
    )
    def test_tuple_draws_match_public_draws(self, spec):
        # twin generators: one stepper bound for the whole run, the public
        # draws and steps (a stepper per call) and the one-step rows consume
        # one stream identically, state for state; the fused primal and dual
        # steps equal the two public draws in either order; coord 2,300 draws
        # its colours both ways, coord 1,5 has one colour and draws none,
        # value 6,2 shuffles blocks of up to five unused symbols, and coord
        # 5,7 draws five colours with rejection (2**32 % 5 != 0)
        a, b, c = make_rng(61), make_rng(61), make_rng(61)
        stepper = Stepper(spec, a)
        x = y = z = (1,) * spec.n
        for _ in range(500):
            images = stepper.stabilizer(x)
            g = actions.sample_stabilizer_uniform(spec, y, b)
            assert images == g.images
            x = stepper.fixed_word(images)
            y = actions.sample_fixed_word_uniform(spec, g, b)
            assert x == y
            z = step_primal(spec, z, c)
            assert z == x
        # Philox's state holds arrays, so compare the printed states
        assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
        assert repr(a.bit_generator.state) == repr(c.bit_generator.state)
        g = h = w = Permutation(images)
        for _ in range(500):
            images = stepper.dual(images)
            g = step_dual(spec, g, b)
            assert images == g.images
            w = actions.sample_stabilizer_uniform(spec, actions.sample_fixed_word_uniform(spec, w, c), c)
            assert w == g
        assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
        assert repr(a.bit_generator.state) == repr(c.bit_generator.state)
        # empirical_one_step_row draws from its own generator of one seed
        one_step = Stepper(spec, make_rng(62))
        want = Counter(one_step.primal(x) for _ in range(300))
        assert empirical_one_step_row(spec, "primal", x, 300, seed=62).counts == want
        one_step = Stepper(spec, make_rng(62))
        want = Counter(Permutation(one_step.dual(h.images)) for _ in range(300))
        assert empirical_one_step_row(spec, "dual", h, 300, seed=62).counts == want


class CountingRng:
    """A generator that counts its integers calls and forwards shuffle and
    the bit generator."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.integers_calls = rng, rng.bit_generator, 0

    def shuffle(self, x):
        self.rng.shuffle(x)

    def integers(self, *args, **kwargs):
        self.integers_calls += 1
        return self.rng.integers(*args, **kwargs)


class TestColorDraws:
    def test_draws_match_integers(self):
        # the colour draw and rng.integers consume one stream identically,
        # also when a shuffle has left half of a 64-bit output in the buffer;
        # 2**31 + 1 colours reject about every other 32-bit draw
        a, b = make_rng(71), make_rng(71)
        buffered = set()
        colors = Stepper(value_spec(3, 1), a).colors  # c = 3 reads its bound threshold
        for c in (1, 2, 3, 7, 2**31 + 1):
            for count in range(actions._SCALAR_DRAWS + 3):
                for length in (1, 3, 5):
                    x, y = list(range(length)), list(range(length))
                    a.shuffle(x)
                    b.shuffle(y)
                    assert x == y
                    buffered.add(a.bit_generator.state["has_uint32"])
                    got = colors(c, count)
                    assert got == b.integers(0, c, size=count).tolist()
                    assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
        assert buffered == {0, 1}

    @pytest.mark.parametrize(
        "spec, chain, start, calls",
        [
            (coord_spec(2, 6), "dual", identity(6), 0),  # 6 cycles
            (value_spec(4, 3), "primal", (1, 1, 2), 0),  # 3 positions
            (value_spec(3, 40), "dual", identity(3), 1),  # 40 positions
        ],
        ids=["coord2,6-dual", "value4,3-primal", "value3,40-dual"],
    )
    def test_integers_only_past_the_cutoff(self, spec, chain, start, calls):
        rng = CountingRng(make_rng(5))
        (step_dual if chain == "dual" else step_primal)(spec, start, rng)
        assert rng.integers_calls == calls


def _exact_tv(res, bundle) -> Fraction:
    """Oracle: the Fraction TV against the bundle's stationary law, over every state."""
    if res.run.chain == "dual":
        law = dict(zip(bundle.duals, bundle.piQ))
    else:
        law = dict(zip(bundle.states, bundle.piK))
    assert set(res.law.counts) <= set(law)
    emp = {s: Fraction(c, res.law.total) for s, c in res.law.counts.items()}
    return sum(abs(emp.get(s, 0) - p) for s, p in law.items()) / 2


class TestTvToStationary:
    @pytest.mark.parametrize(
        "spec", [value_spec(3, 2), value_spec(4, 3), coord_spec(2, 4), coord_spec(3, 3)],
        ids=lambda s: f"{s.model}{s.k},{s.n}",
    )
    def test_matches_exact_tv_oracle(self, spec):
        bundle = build_bundle(spec)
        unvisited = False
        for chain, start, size in (
            ("dual", identity(group_degree(spec)), bundle.num_duals),
            ("primal", (1,) * spec.n, bundle.num_states),
        ):
            for steps in (0, 7, 2000):
                res = run_chain(ChainRun(spec, chain, start, steps, seed=5))
                assert res.tv_to_stationary == float(_exact_tv(res, bundle))
                unvisited |= steps == 7 and len(res.law.counts) < size
        assert unvisited

    def test_no_state_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sampler's TV enumerated a state space")

        for module in (actions, closedforms, kernels, permgroup, sampler):
            for name in ("words", "dual_states", "enumerate_sym"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for spec, chain, start in (
            (coord_spec(2, 6), "dual", identity(6)),
            (value_spec(4, 3), "primal", (1, 1, 2)),
        ):
            res = run_chain(ChainRun(spec, chain, start, 200, seed=9))
            assert 0 < res.tv_to_stationary < 1


class TestLongRun:
    def test_occupation_converges_quickly(self, golden_coord):
        res = run_chain(ChainRun(golden_coord.spec, "dual", identity(3), 100_000, seed=77))
        assert res.tv_to_stationary <= 0.02

    def test_trajectory_dump_round_trip(self, tmp_path):
        from burnside.sampler import dump_trajectory

        spec = coord_spec(2, 3)
        res = run_chain(ChainRun(spec, "primal", (1, 1, 1), 50, seed=3), keep_trajectory=True)
        path = tmp_path / "traj.txt"
        dump_trajectory(str(path), res)
        lines = path.read_text().splitlines()
        assert len(lines) == 51
        assert lines[0] == "000"
        gz = tmp_path / "traj.txt.gz"
        dump_trajectory(str(gz), res)
        import gzip as gzmod

        assert gzmod.open(gz, "rt").read().splitlines() == lines

    def test_gzip_dump_is_byte_identical(self, tmp_path):
        # the gzip header's modification time (bytes 4-8) is zero, so two
        # writes of one run give the same bytes whenever they happen
        from burnside.sampler import dump_trajectory

        res = run_chain(ChainRun(coord_spec(2, 6), "dual", identity(6), 100, seed=1), True)
        first, second = tmp_path / "1" / "traj.gz", tmp_path / "2" / "traj.gz"
        for path in (first, second):
            path.parent.mkdir()
            dump_trajectory(str(path), res)
        assert first.read_bytes()[4:8] == bytes(4)
        assert first.read_bytes() == second.read_bytes()
