"""CLI behavior: exit codes, golden outputs, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burnside.cli
import burnside.closedforms
import burnside.dynamics
import burnside.kernels
import burnside.spectra
from burnside._rat import Rat
from burnside.actions import ActionSpec
from burnside.cli import main
from burnside.ratmat import RationalMatrix, matrix_from_csv, matrix_from_json

import goldens


def test_build_golden_value(tmp_path, capsys):
    out = tmp_path / "v32"
    assert main(["build", "--model", "value", "--k", "3", "--n", "2", "--out", str(out)]) == 0
    q, rows, cols = matrix_from_json(json.loads((out / "Q.json").read_text()))
    assert rows == cols == goldens.VALUE_32_DUALS
    payload = json.loads((out / "Q.json").read_text())
    assert payload["entries"] == goldens.VALUE_32_Q
    a_payload = json.loads((out / "A.json").read_text())
    assert a_payload["entries"] == goldens.VALUE_32_A
    k_csv, k_rows, _ = matrix_from_csv((out / "K.csv").read_text())
    assert k_rows == goldens.VALUE_32_WORDS
    pi = json.loads((out / "piQ.json").read_text())
    assert pi["entries"] == goldens.VALUE_32_PI_Q


def test_build_golden_coord(tmp_path):
    out = tmp_path / "c23"
    assert main(["build", "--model", "coord", "--k", "2", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads((out / "Q.json").read_text())
    assert payload["entries"] == goldens.COORD_23_Q
    assert payload["row_labels"] == goldens.COORD_23_DUALS
    k_payload = json.loads((out / "K.json").read_text())
    assert k_payload["entries"] == goldens.COORD_23_K
    assert k_payload["row_labels"] == goldens.COORD_23_WORDS


def test_build_single_state_chain(tmp_path):
    out = tmp_path / "v25"
    assert main(["build", "--model", "value", "--k", "2", "--n", "5", "--out", str(out)]) == 0
    payload = json.loads((out / "Q.json").read_text())
    assert payload["entries"] == [["1"]]
    pi = json.loads((out / "piQ.json").read_text())
    assert pi["entries"] == ["1"]


@pytest.mark.parametrize("model, k, n", [("value", 3, 2), ("coord", 2, 3)])
def test_build_single_format_writes_its_own_files(tmp_path, model, k, n):
    """--format json and --format csv each write their own matrix files and
    both stationary laws, the same bytes as a --format both run."""
    names = ["A", "B", "K", "M", "Q"]
    written = {}
    for fmt in ("json", "csv", "both"):
        out = tmp_path / fmt
        argv = ["build", "--model", model, "--k", str(k), "--n", str(n), "--out", str(out)]
        assert main(argv + ["--format", fmt]) == 0
        written[fmt] = {p.name: p.read_bytes() for p in out.iterdir()}
    laws = {"piQ.json", "piK.json"}
    for fmt in ("json", "csv"):
        assert set(written[fmt]) == {f"{name}.{fmt}" for name in names} | laws
        assert written[fmt] == {name: written["both"][name] for name in written[fmt]}
    assert set(written["both"]) == set(written["json"]) | set(written["csv"])


def test_verify_pass(capsys):
    code = main(["verify", "--model", "value", "--k", "3", "--n", "2", "--tmax", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "PASS nonzero_spectrum_equal" in out


def test_verify_catches_faulty_product(monkeypatch, capsys):
    # a product that moves one entry of its result builds a wrong Q and K;
    # the factorization checks must recompute both without that product
    good_matmul = RationalMatrix.__matmul__

    def faulty_matmul(self, other):
        product = good_matmul(self, other)
        rows = [product.row(i) for i in range(product.rows)]
        j = next(j for j, v in enumerate(rows[0]) if v)
        moved, rows[0][j] = rows[0][j], Rat(0)
        rows[0][(j + 1) % len(rows[0])] += moved
        return RationalMatrix(rows)

    monkeypatch.setattr(RationalMatrix, "__matmul__", faulty_matmul)
    code = main(["verify", "--model", "value", "--k", "3", "--n", "2", "--tmax", "10"])
    out = capsys.readouterr().out
    assert "FAIL factorization_Q_eq_AB" in out
    assert "FAIL factorization_K_eq_BA" in out
    assert code == 1


def test_verify_block_flip_square_fails_a_wrong_m(monkeypatch, capsys):
    # an M with one entry of its B block moved squares to something other
    # than diag(Q, K); the check builds M itself and never calls @
    good_flip = RationalMatrix.block_flip.__func__

    def moved_flip(cls, a, b):
        m = good_flip(cls, a, b)
        num, row = m.num.copy(), a.rows  # the first row of the B block
        j, k = np.flatnonzero(num[row])[0], np.flatnonzero(num[row] == 0)[0]
        num[row, [j, k]] = num[row, [k, j]]
        return RationalMatrix.from_scaled(num, m.den.tolist())

    def no_matmul(self, other):
        raise AssertionError("block_flip_square called @")

    bundle = burnside.kernels.build_bundle(ActionSpec("value", 2, 3))
    assert burnside.cli._block_flip_square(bundle, None) is True
    monkeypatch.setattr(RationalMatrix, "__matmul__", no_matmul)
    assert burnside.cli._block_flip_square(bundle, None) is True
    monkeypatch.setattr(RationalMatrix, "block_flip", classmethod(moved_flip))
    assert burnside.cli._block_flip_square(bundle, None) is False


def test_verify_expected_lump_failure(capsys):
    code = main(
        ["verify", "--model", "coord", "--k", "2", "--n", "4", "--tmax", "20",
         "--expect-lump-failure", "cycle-count"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS expected_lump_failure" in out
    assert "17/48" in out and "19/48" in out


def test_verify_rejects_unexpected_lump_flag(capsys):
    code = main(
        ["verify", "--model", "value", "--k", "3", "--n", "2", "--tmax", "10",
         "--expect-lump-failure", "cycle-count"]
    )
    assert code == 1


def test_mix_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["mix", "--model", "coord", "--k", "2", "--n", "3", "--tmax", "8", "--eps", "1/4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "t,d_fine,d_lumped,bound_name,bound_value,ok"


def test_mix_json_summary(tmp_path):
    out = tmp_path / "mix.json"
    assert main(
        ["mix", "--model", "value", "--k", "4", "--n", "3", "--tmax", "20",
         "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    names = {b["name"]: b for b in payload["summary"]["bounds"]}
    assert names["paguyo_K"]["verified"]
    tmix = payload["summary"]["mixing_times"]["1/4"]
    assert abs(tmix["Q"] - tmix["K"]) <= 1


def test_sample_deterministic_summary(tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    args = ["sample", "--model", "coord", "--k", "2", "--n", "6", "--chain", "dual",
            "--steps", "2000", "--seed", "42"]
    assert main(args + ["--summary", str(out1)]) == 0
    assert main(args + ["--summary", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["steps"] == 2000 and payload["start"] == "e"


# sha256 over the trajectory file, then the summary file, of
# `sample --steps 2000 --seed 11 --out ... --summary ...` plus any options
# after the chain (the default start unless --start is given)
SAMPLE_DIGESTS = {
    ("coord", 2, 6, "dual"): "57536c687288300196f6d0cd0fdf6b26a347cab209a31f289632705a3b764855",
    ("coord", 2, 64, "primal"): "313312e229f5438daafbf1982583d1db0935174171ed763982f8753a12492d0c",
    ("value", 4, 3, "primal"): "d85f02db1252f480ece6053883409cc10510c662bc2bf8356fdbb271d8d543ab",
    ("value", 4, 3, "dual"): "45a27d0189e6b03f36600811f0b21eced975edb41985c086894044d053a42866",
    ("coord", 3, 5, "primal"): "9d3ea3386073d03ccb1a81fce7ec97247167f97a4e7025bbdc35aecf8fd305f3",
    ("coord", 3, 5, "dual"): "0c1981f75a563b3805bf033413dd56a39bce54850a98609b66c7670470b6d97a",
    # k = 12: comma-separated labels, and blocks of up to 9 unused symbols
    ("value", 12, 3, "dual"): "2ad903534d83ed10bda5492beaa39726697a9e07a55769ecc35099b8ccf29e29",
    ("value", 12, 3, "primal"): "bb1710776e6f3d709e8d4ed0f2e78da4d65fd13090564e04afa5edef0b5d39bf",
    ("coord", 3, 5, "dual", "--thin", "3"):
        "a2a8f12af6f33d14042b3fb1547f433d14b45e56fbc5c7789e93e6393415d2c3",
    ("coord", 3, 6, "primal", "--start", "201120"):
        "87dfb13e071e49997ea912143ab5439a4c3cb02e3256d13dab7b9df7877d6aee",
}


@pytest.mark.parametrize(
    "config", list(SAMPLE_DIGESTS), ids=lambda c: "{}{},{}-{}".format(*c) + "".join(c[4:])
)
def test_sample_trajectory_digest(tmp_path, config):
    model, k, n, chain, *options = config
    traj, summary = tmp_path / "traj.txt", tmp_path / "summary.json"
    code = main(["sample", "--model", model, "--k", str(k), "--n", str(n), "--chain", chain,
                 "--steps", "2000", "--seed", "11", "--out", str(traj), "--summary", str(summary),
                 *options])
    assert code == 0
    digest = hashlib.sha256(traj.read_bytes() + summary.read_bytes()).hexdigest()
    assert digest == SAMPLE_DIGESTS[config]


def test_sample_primal_no_matrices(tmp_path):
    # the primal walk at k=5, n=4 never builds a kernel matrix
    out = tmp_path / "traj.txt"
    code = main(
        ["sample", "--model", "value", "--k", "5", "--n", "4", "--chain", "primal",
         "--start", "1111", "--steps", "500", "--seed", "7", "--out", str(out),
         "--summary", str(tmp_path / "s.json")]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 501


def test_sample_long_words_dual(capsys):
    # the value normaliser sums Stirling numbers of n = 1500
    code = main(["sample", "--model", "value", "--k", "3", "--n", "1500", "--chain", "dual",
                 "--steps", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tv_to_stationary"] < 1e-300


def test_sample_rejects_derangement_start():
    code = main(
        ["sample", "--model", "value", "--k", "2", "--n", "2", "--chain", "dual",
         "--start", "(1 2)", "--steps", "10"]
    )
    assert code == 2


def test_sample_invalid_start_message(capsys):
    # the run refuses the start before any step; the CLI exits 2 with its reason
    code = main(["sample", "--model", "value", "--k", "3", "--n", "2", "--chain", "dual",
                 "--start", "(1 2 3)", "--steps", "0"])
    assert code == 2
    assert "invalid start: (1 2 3) is a derangement" in capsys.readouterr().err


def test_closedform_all_equal(capsys):
    code = main(["closedform", "--model", "coord", "--k", "2", "--n", "3",
                 "--g", "e", "--h", "(1 2 3)"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["all_equal"]
    assert payload["Q(g,h)"]["brute_force"] == "1/24"


def test_closedform_colorings_up_to_the_state_cap(capsys):
    # the identity's 15 joint orbits give 2^15 colorings, within the state
    # cap, as X_e is: every form evaluates
    code = main(["closedform", "--model", "coord", "--k", "2", "--n", "15"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["all_equal"]
    assert payload["Q(g,h)"]["colorings_sum"] == "215441/59513713459200"


def test_closedform_refuses_past_state_cap(monkeypatch, capsys):
    # |X_e| = 6^8 words: refused before q_brute enumerates any of them
    def refuse(*args):
        raise AssertionError("enumerated past the state cap")

    monkeypatch.setattr(burnside.closedforms, "enumerate_fixed_words", refuse)
    code = main(["closedform", "--model", "value", "--k", "6", "--n", "8"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: |X_g| = 1679616 exceeds the state cap 65536\n"
    assert captured.out == ""


def test_verify_past_state_cap_fails_build(capsys):
    # a refused spec runs no check: verify reports a failure, not a usage error
    code = main(["verify", "--model", "value", "--k", "2", "--n", "17"])
    assert code == 1
    assert capsys.readouterr().out == (
        "FAIL build: |X| = k^n = 131072 exceeds the state cap 65536\n"
    )


def test_verify_skips_direct_q_past_duals(capsys):
    assert main(["verify", "--model", "value", "--k", "6", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "SKIP direct_q_construction: 455 dual states (> 200)\n" in out
    assert "FAIL" not in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", "value", "--k", "3"])
    assert exc.value.code == 2


def test_cap_exceeded_exit_code(monkeypatch):
    monkeypatch.setattr(burnside.kernels, "STATE_CAP", 10)
    code = main(["build", "--model", "coord", "--k", "2", "--n", "5", "--out", "/tmp/ignored"])
    assert code == 2


@pytest.mark.parametrize("eps", ["0", "2"])
def test_mix_eps_out_of_range(capsys, eps):
    code = main(["mix", "--model", "value", "--k", "3", "--n", "2", "--eps", eps])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: eps must lie in (0, 1), got {eps}\n"


def test_mix_eps_zero_denominator(capsys):
    code = main(["mix", "--model", "value", "--k", "3", "--n", "2", "--eps", "1/0"])
    assert code == 2
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("command", ["verify", "mix"])
def test_negative_tmax_is_a_usage_error(capsys, command):
    code = main([command, "--model", "value", "--k", "3", "--n", "2", "--tmax", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: tmax must be >= 0, got -1\n"
    assert captured.out == ""


def test_single_position_binary_skips_dz_bounds(capsys):
    # at n = 1 K mixes in one step and the binary-alphabet curves do not apply
    assert main(["verify", "--model", "coord", "--k", "2", "--n", "1", "--tmax", "10"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "SKIP bound dz_two_sided: needs n >= 2; at n = 1 K mixes in one step\n" in out
    assert main(["mix", "--model", "coord", "--k", "2", "--n", "1", "--tmax", "10"]) == 0
    assert ",dz_" not in capsys.readouterr().out


def test_mix_tmax_zero_emits_only_t0_rows(tmp_path):
    out = tmp_path / "mix0.csv"
    code = main(["mix", "--model", "value", "--k", "3", "--n", "2", "--tmax", "0",
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("t,")
    assert all(line.split(",")[0] == "0" for line in rows[1:])


def test_short_horizon_skips_mixing_equivalence(capsys):
    # value 3,2 mixes to 1/10 at t = 3 on both chains: a horizon of 2 cannot
    # compare the two times, so the bound is skipped, not failed
    assert main(["verify", "--model", "value", "--k", "3", "--n", "2", "--tmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert (
        "SKIP bound mixing_equiv_eps=1/10: t_mix(Q) > 2, t_mix(K) > 2: "
        "horizon too short to compare\n" in out
    )
    assert main(["mix", "--model", "value", "--k", "3", "--n", "2", "--tmax", "1"]) == 0


# sha256 of `mix --format json --out ...` at the default --tmax 60
MIX_JSON_DIGESTS = {
    ("value", 3, 2): "0f5f24c0433c52b6c785bc8d14649a86d5bc37773e219b016ec60be8c261d257",
    ("value", 2, 3): "2849c47c7df22ecb52ed29d52c6578bb0d18cbaee00f2c1db79b8f0a412dc03e",
    ("value", 4, 3): "d876b1fb6ad298df920beaf915623b9718b14ff0c2c7f4a644d0728622fb32fc",
    ("coord", 2, 1): "f8d65ef46c7271430c1191c2e45dfe0d92483e2081d2cce00a6317766ac4f181",
    ("coord", 2, 4): "12f57fcc002e8e845a7203d2f1e7158e88b20f7ca87ccbdc7dd1f5241a4cd5e2",
    ("coord", 3, 3): "9f4b967a70453f2b367723ce3d90b80f4448c18639bb8eedeb76d4dc23fa87a5",
}


@pytest.mark.parametrize("config", list(MIX_JSON_DIGESTS), ids=lambda c: "{}{},{}".format(*c))
def test_mix_json_digest(tmp_path, config):
    model, k, n = config
    out = tmp_path / "mix.json"
    code = main(["mix", "--model", model, "--k", str(k), "--n", str(n), "--format", "json",
                 "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MIX_JSON_DIGESTS[config]


# sha256 of the stdout of `verify` at the defaults; coord 3,4 (105 rows of M)
# runs eigenvector intertwining and the gap reports past the tiny goldens, and
# value 5,2 (101 rows) keeps the irrational factor (432x^2 - 331x + 52)^4 in
# both spectra, so its gaps (gamma* = 0.454428) rest on the float spectrum
# alone
VERIFY_STDOUT_DIGESTS = {
    ("coord", 3, 4): "a0cb50f7ec1379da939d8e51f154ea5d168d4dcd4343e3adc5ab5fe740fef3d8",
    ("value", 5, 2): "68866fb02f9113c967899a22210ce1b98e20ee386258ff1769dac8296baf9735",
}


@pytest.mark.parametrize("config", list(VERIFY_STDOUT_DIGESTS), ids=lambda c: "{}{},{}".format(*c))
def test_verify_stdout_digest(capsys, config):
    model, k, n = config
    code = main(["verify", "--model", model, "--k", str(k), "--n", str(n)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS eigenvector_intertwining" in out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_DIGESTS[config]


# (verify arguments past --model/--k/--n, exit code, sha256 of stdout) for
# the paths the digests above do not reach: a printed SKIP of the direct Q
# (value 6,1: 1 dual), of the dz bounds (coord 2,1) and of the mixing
# equivalence (--tmax 2), the silent gates past EIGEN_ROWS off (value 4,3),
# and the expected cycle-count lump failure met (coord 2,4) and refused
# (value 3,2)
VERIFY_PATH_DIGESTS = {
    ("value", "6", "1"): (0, "e2301a49cb63c4383909275b5ceb250ab4de47f092fbded8e444c3863519ae2b"),
    ("value", "4", "3"): (0, "adc7e76a9f9b750eb9664b9061dc71dcd7511567edb6cfdb21174d8c63cfeac8"),
    ("coord", "2", "1"): (0, "43f967bab0619e5b22409ec06020689336fa69b538d7844f693680d316d48c0f"),
    ("value", "3", "2", "--tmax", "2"):
        (0, "16f604080ba28db71afaa4d5b1463a6558b7e8099330ba8ad95b7874eebac760"),
    ("coord", "2", "4", "--expect-lump-failure", "cycle-count"):
        (0, "bd6c8b6a5e5879e04ebf0c10299dba4bea465eba663dd5af8a4c82a064951695"),
    ("value", "3", "2", "--expect-lump-failure", "cycle-count"):
        (1, "2add67123191084b28d7cfbd127a349c8ef03b5734a4f518bc4204673f64580f"),
}


@pytest.mark.parametrize(
    "config", list(VERIFY_PATH_DIGESTS), ids=lambda c: "{}{},{}".format(*c) + " ".join(("",) + c[3:])
)
def test_verify_path_digest(capsys, config):
    model, k, n, *extra = config
    code = main(["verify", "--model", model, "--k", k, "--n", n, *extra])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == VERIFY_PATH_DIGESTS[config]


def test_verify_raising_check_fails_and_continues(monkeypatch, capsys):
    # a check that raises prints FAIL with its message; the checks after it,
    # the bound suite among them, still run and the total counts it
    def broken(k, n, r, s):
        raise AssertionError("two-stage product mismatch")

    monkeypatch.setattr(burnside.cli, "qbar_value", broken)
    code = main(["verify", "--model", "value", "--k", "3", "--n", "2"])
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("FAIL fixedpoint_lump_matches_closed_form: two-stage product mismatch")
    assert any(line.startswith("PASS bound_") for line in lines[at + 1:])
    assert lines[-1] == "FAIL total: 1 failure(s)"
    assert code == 1


def test_verify_value_error_in_check_is_a_failure(monkeypatch, capsys):
    # a ValueError inside a check is a failed check (exit 1), not a usage error
    def broken(spec, g, h):
        raise ValueError("brute force refused")

    monkeypatch.setattr(burnside.cli, "q_brute_row", broken)
    code = main(["verify", "--model", "coord", "--k", "2", "--n", "3"])
    captured = capsys.readouterr()
    assert "FAIL closed_forms_match_kernel: brute force refused" in captured.out
    assert captured.out.splitlines()[-1] == "FAIL total: 1 failure(s)"
    assert "error:" not in captured.err
    assert code == 1


def _wrap_grid(monkeypatch, on_form, on_oracle):
    """Route the closed-form grid of verify through on_form(g, h, value) for
    the first closed form and on_oracle(g, h, value) for every brute-force
    entry; each returns the value the check sees."""
    forms, oracle = burnside.cli.kernel_forms, burnside.cli.q_brute_row

    def wrapped_forms(spec):
        (name, first), *rest = forms(spec)
        return [(name, lambda g, h: on_form(g, h, first(g, h))), *rest]

    def wrapped_oracle(spec, g, hs):
        return [on_oracle(g, h, v) for h, v in zip(hs, oracle(spec, g, hs))]

    monkeypatch.setattr(burnside.cli, "kernel_forms", wrapped_forms)
    monkeypatch.setattr(burnside.cli, "q_brute_row", wrapped_oracle)


def test_verify_closed_form_grid_checks_every_pair(monkeypatch, capsys):
    # value 5,3 has 76 dual states, fewer than 2 * CLOSED_FORM_DUALS: the
    # grid compares every one of the 76^2 pairs with the oracle, and the
    # value forms run once per (|Fix g|, |Fix g & Fix h|) of the grid, 13
    # overlaps; coord 2,4 (24 duals) runs its forms on each of its 576 pairs
    for argv, expected in [
        (("value", "5", "3"), {"form": 13, "oracle": 5776}),
        (("coord", "2", "4"), {"form": 576, "oracle": 576}),
    ]:
        pairs = {"form": 0, "oracle": 0}

        def count(kind):
            def seen(g, h, value):
                pairs[kind] += 1
                return value
            return seen

        monkeypatch.undo()
        _wrap_grid(monkeypatch, count("form"), count("oracle"))
        model, k, n = argv
        assert main(["verify", "--model", model, "--k", k, "--n", n]) == 0
        assert "PASS closed_forms_match_kernel" in capsys.readouterr().out.splitlines()
        assert pairs == expected


def test_verify_closed_form_grid_fails_a_form_wrong_on_one_class(monkeypatch, capsys):
    # the first form is off on the overlap a = 3, j = 1 only; the grid
    # evaluates it on that class's first pair in row order and fails there
    def off_on_class(g, h, value):
        fixed = g.fixed_points()
        return value + 1 if (len(fixed), len(fixed & h.fixed_points())) == (3, 1) else value

    _wrap_grid(monkeypatch, off_on_class, lambda g, h, value: value)
    code = main(["verify", "--model", "value", "--k", "5", "--n", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL closed_forms_match_kernel: mismatch at ((1 2), (3 4))" in lines
    assert lines[-1] == "FAIL total: 1 failure(s)"
    assert code == 1


def test_closed_form_grid_fails_one_q_entry_inside_a_class():
    # ((1 3), (1 2 3)) is in the overlap class a = 3, j = 2 of value 5,3,
    # whose forms run on its first pair ((1 2), (1 3)): a change to this
    # one Q entry is still caught, against the class's values and the oracle
    bundle = burnside.kernels.build_bundle(ActionSpec("value", 3, 5))
    assert burnside.cli._closed_forms_match(bundle, None) is True
    labels = bundle.dual_labels
    gi, hi = labels.index("(1 3)"), labels.index("(1 2 3)")
    num = bundle.Q.num.copy()
    num[gi, hi] += 1
    bundle.Q = RationalMatrix.from_scaled(num, bundle.Q.den.tolist())
    assert burnside.cli._closed_forms_match(bundle, None) == (
        False, "mismatch at ((1 3), (1 2 3))"
    )


# two pairs of value 5,3 whose order differs by rows and by columns: the grid
# goes row by row, so it names the pair in the row of (1 2) first
CORRUPTED_PAIRS = {("(1 3)", "(1 2 3)"), ("(1 2)", "(1 4 5)")}


# the value forms run once per overlap class (the class test above checks a
# wrong form); the oracle runs on every pair, so it is named at its own pair
@pytest.mark.parametrize("corrupt", ["oracle"])
def test_verify_closed_form_grid_names_first_mismatch(monkeypatch, capsys, corrupt):
    def off_by_one(g, h, value):
        return value + 1 if (str(g), str(h)) in CORRUPTED_PAIRS else value

    _wrap_grid(monkeypatch, lambda g, h, value: value, off_by_one)
    code = main(["verify", "--model", "value", "--k", "5", "--n", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL closed_forms_match_kernel: mismatch at ((1 2), (1 4 5))" in lines
    assert lines[-1] == "FAIL total: 1 failure(s)"
    assert code == 1


def _count_calls(monkeypatch, owner, name, calls):
    """Rebind owner.name to a wrapper that bumps calls[0] on every call."""
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


# (config, cli.EIGEN_ROWS or None for the default, eigvalsh calls): the
# equality check, intertwining and the gap reports read one spectral record
# per kernel, so verify computes each char poly once and each float spectrum
# at most once; past EIGEN_ROWS only the equality check's two char polys run
ONE_RECORD_PER_KERNEL = [
    (("coord", 3, 4), None, 2),
    (("value", 5, 2), None, 2),
    (("value", 4, 3), 0, 0),
]


@pytest.mark.parametrize(
    "config, eigen_rows, eigvalsh_calls", ONE_RECORD_PER_KERNEL,
    ids=["coord3,4", "value5,2", "value4,3-no-eigen-rows"],
)
def test_verify_one_spectral_record_per_kernel(
    monkeypatch, capsys, config, eigen_rows, eigvalsh_calls
):
    char_polys, eigvalsh = [0], [0]
    _count_calls(monkeypatch, burnside.spectra, "char_poly", char_polys)
    _count_calls(monkeypatch, np.linalg, "eigvalsh", eigvalsh)
    if eigen_rows is not None:
        monkeypatch.setattr(burnside.cli, "EIGEN_ROWS", eigen_rows)
    model, k, n = config
    assert main(["verify", "--model", model, "--k", str(k), "--n", str(n)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert (char_polys[0], eigvalsh[0]) == (2, eigvalsh_calls)


# verify value 4,4 and coord 3,4: {dimension of a lumped full kernel: lumps}.
# The orbit and class lumpings and the profiles read the bundle's one lumped
# pair; only the checks that compare it with the full kernels lump K and Q.
@pytest.mark.parametrize(
    "config, lumped_dims",
    [(("value", 4, 4), {256: 1, 15: 1}), (("coord", 3, 4), {81: 1, 24: 1})],
)
def test_verify_lumps_each_full_kernel_once(monkeypatch, capsys, config, lumped_dims):
    dims, lump = [], burnside.dynamics.lump

    def recorded(p, pi, partition):
        dims.append(p.rows)
        return lump(p, pi, partition)

    monkeypatch.setattr(burnside.dynamics, "lump", recorded)
    model, k, n = config
    assert main(["verify", "--model", model, "--k", str(k), "--n", str(n)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert {dim: dims.count(dim) for dim in lumped_dims} == lumped_dims


def test_mix_lumps_each_profile_once(monkeypatch, tmp_path):
    # the orbit-lumped K profile comes with bundle_profiles, for the bound
    # suite and the d_lumped column alike; the class-lumped Q adds the second
    calls = [0]
    _count_calls(monkeypatch, burnside.dynamics, "d_profile", calls)
    _count_calls(monkeypatch, burnside.cli, "d_profile", calls)
    assert main(["mix", "--model", "value", "--k", "4", "--n", "3", "--tmax", "10",
                 "--out", str(tmp_path / "mix.csv")]) == 0
    assert calls[0] == 2


def test_verify_lump_failure_fails_bound_suite(monkeypatch, capsys):
    # the profiles walk the legs of lumped pairs, so a pair builder that
    # fails under them must still print FAIL bound_suite and exit 1, not raise
    def broken(bundle, states, duals):
        raise AssertionError("orbit aggregation formula mismatch")

    monkeypatch.setattr(burnside.dynamics, "LumpedPair", broken)
    code = main(["verify", "--model", "value", "--k", "3", "--n", "2", "--tmax", "10"])
    assert "FAIL bound_suite: orbit aggregation formula mismatch" in capsys.readouterr().out
    assert code == 1


# the modules of the exact stack, which sample never runs, and the six
# modules whose functions perfbench/probe.py spans after `import burnside.cli`
EXACT_STACK = {f"burnside.{m}" for m in ("kernels", "ratmat", "spectra", "dynamics", "closedforms")}
PROBE_MODULES = EXACT_STACK | {"burnside.sampler"}


def _python_env(**extra):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", **extra)


def _python(*args, cwd=None, **env):
    return subprocess.run(
        [sys.executable, *args], env=_python_env(**env), cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


# command lines that console_main ends with os._exit, one per kind of output:
# stdout only (verify passing and failing, closedform, sample), files
# (build, mix --out) and a gzip trajectory with a summary file
EXIT_PATH_COMMANDS = {
    "verify-pass": ["verify", "--model", "value", "--k", "3", "--n", "2"],
    "verify-fail": ["verify", "--model", "value", "--k", "3", "--n", "2",
                    "--expect-lump-failure", "cycle-count"],
    "build": ["build", "--model", "value", "--k", "3", "--n", "2", "--format", "both",
              "--out", "b"],
    "sample-files": ["sample", "--model", "coord", "--k", "2", "--n", "6", "--steps", "300",
                     "--seed", "3", "--out", "x.gz", "--summary", "s.json"],
    "sample-stdout": ["sample", "--model", "coord", "--k", "2", "--n", "6", "--steps", "300",
                      "--seed", "3"],
    "mix": ["mix", "--model", "value", "--k", "3", "--n", "2", "--tmax", "10",
            "--out", "mix.csv"],
    "closedform": ["closedform", "--model", "value", "--k", "4", "--n", "3", "--g", "(1 2)"],
}


def _written(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(EXIT_PATH_COMMANDS))
def test_module_run_matches_in_process_main(tmp_path, monkeypatch, capsys, name):
    """`python -m burnside` flushes and calls os._exit after main: its exit
    code, stdout, stderr and written files are those of entry.main run in
    process.  Its stdout is a pipe, block-buffered (PYTHONUNBUFFERED empty),
    so what main printed reaches it only through console_main's flush."""
    import burnside.entry

    argv = EXIT_PATH_COMMANDS[name]
    proc_dir, main_dir = tmp_path / "proc", tmp_path / "main"
    proc_dir.mkdir()
    main_dir.mkdir()
    proc = _python("-m", "burnside", *argv, cwd=proc_dir, PYTHONUNBUFFERED="")
    monkeypatch.chdir(main_dir)
    code = burnside.entry.main(argv)
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == (1 if name == "verify-fail" else 0)
    assert _written(proc_dir) == _written(main_dir)


@pytest.mark.parametrize("name", list(EXIT_PATH_COMMANDS))
def test_commands_register_no_atexit_callback(tmp_path, name):
    """os._exit skips atexit callbacks, and no command registers one."""
    script = (
        "import atexit, contextlib, io, sys\n"
        "before = atexit._ncallbacks()\n"
        "from burnside.entry import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    main(sys.argv[1:])\n"
        "print(before, atexit._ncallbacks())\n"
    )
    proc = _python("-c", script, *EXIT_PATH_COMMANDS[name], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after


def test_entry_main_returns_in_process(monkeypatch, capsys):
    import burnside.entry

    def no_exit(code):
        raise AssertionError(f"os._exit({code}) in process")

    monkeypatch.setattr(os, "_exit", no_exit)
    assert burnside.entry.main(EXIT_PATH_COMMANDS["verify-pass"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS total: 0 failure(s)"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["at-flush", "at-print"])
def test_closed_stdout_exits_sigpipe(unbuffered):
    """A reader that closes stdout before verify writes: nothing on stderr,
    exit 141 (128 + SIGPIPE).  Buffered, the write fails at console_main's
    flush; unbuffered (PYTHONUNBUFFERED=1), at verify's first print."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "burnside", *EXIT_PATH_COMMANDS["verify-pass"]],
        env=_python_env(PYTHONUNBUFFERED=unbuffered),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=300), err) == (141, b"")


def test_module_cli_runs_its_body_once():
    """`python -m burnside.cli` prints what `python -m burnside` prints, and
    main finds the running module as burnside.cli instead of importing it
    again (-X importtime lists each module it imports)."""
    argv = EXIT_PATH_COMMANDS["verify-pass"]
    proc = _python("-X", "importtime", "-m", "burnside.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _python("-m", "burnside", *argv).stdout
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert "burnside.kernels" in loaded and "burnside.cli" not in loaded


def test_cli_main_is_the_entry_main():
    import burnside.entry

    assert burnside.cli.main is burnside.entry.main


@pytest.mark.parametrize("args, code", [((), 2), (("--help",), 0)], ids=["bare", "help"])
def test_module_usage_exit_codes(args, code):
    """`python -m burnside` without a subcommand is a usage error; with
    --help it prints the usage and exits 0."""
    proc = _python("-m", "burnside", *args)
    assert proc.returncode == code
    assert (proc.stdout if code == 0 else proc.stderr).startswith("usage: burnside")


def test_sample_imports_only_the_sampler_stack():
    """`python -m burnside sample` loads none of the exact stack, while
    `import burnside.cli` loads all of it, and the package's names resolve
    on first use."""
    proc = _python("-X", "importtime", "-m", "burnside", "sample",
                   "--model", "coord", "--k", "2", "--n", "6", "--steps", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["total_counted"] == 1
    # -X importtime writes one "import time: self | cumulative | name" line per module
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert {"burnside.sampler", "burnside.actions"} <= loaded
    assert loaded & (EXACT_STACK | {"burnside.cli"}) == set()
    script = (
        "import json, sys\n"
        "import burnside.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('burnside.'))))\n"
        "import burnside\n"
        "from burnside import build_bundle\n"
        "print(burnside.EXACT_BACKEND, build_bundle.__module__)\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    modules, names = proc.stdout.splitlines()
    assert PROBE_MODULES <= set(json.loads(modules))
    assert names == "fractions burnside.kernels"


def test_build_imports_only_the_export_stack(tmp_path):
    """`python -m burnside build` loads kernels and ratmat, and none of
    burnside.cli, spectra, dynamics, closedforms or sampler."""
    proc = _python("-X", "importtime", "-m", "burnside", "build", "--model", "value",
                   "--k", "3", "--n", "2", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "M.csv").exists()
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert {"burnside.kernels", "burnside.ratmat"} <= loaded
    unused = {f"burnside.{m}" for m in ("cli", "spectra", "dynamics", "closedforms", "sampler")}
    assert loaded & unused == set()


def test_bundle_spectra_load_on_first_read():
    """build_bundle leaves spectra unloaded; the first read of bundle.spectra
    loads it, and every read returns the same records."""
    script = (
        "import sys\n"
        "from burnside.actions import value_spec\n"
        "from burnside.kernels import build_bundle\n"
        "bundle = build_bundle(value_spec(3, 2))\n"
        "assert 'burnside.spectra' not in sys.modules\n"
        "first = bundle.spectra\n"
        "assert 'burnside.spectra' in sys.modules\n"
        "assert bundle.spectra is first and sorted(first) == ['K', 'Q']\n"
        "assert first['Q'].p is bundle.Q and first['K'].p is bundle.K\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_runs_without_scipy():
    """scipy is a test-only dependency: verify and sample run with it blocked."""
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from burnside.cli import main\n"
        "assert main(['verify', '--model', 'value', '--k', '3', '--n', '2']) == 0\n"
        "sys.exit(main(['sample', '--model', 'coord', '--k', '2', '--n', '6', '--steps', '100']))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout


def test_sample_zero_steps_point_mass(tmp_path):
    out = tmp_path / "s.json"
    code = main(["sample", "--model", "value", "--k", "3", "--n", "2",
                 "--chain", "primal", "--start", "12", "--steps", "0",
                 "--seed", "5", "--summary", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["counts"] == {"12": 1}
    assert payload["final_state"] == "12"


def test_verify_pass_coord(capsys):
    code = main(["verify", "--model", "coord", "--k", "2", "--n", "3", "--tmax", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "PASS absolute_gaps_agree" in out
