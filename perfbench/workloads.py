"""The benchmark's workloads and the checks that every output is correct.

A workload is one operation (one or more ``burnside`` commands, each run in
a fresh interpreter) repeated for the measured time, plus a set-up step run
several times beside it.  The exact workload uses fixed configs, so its
output does not depend on the seed; the seed drives the sampler seeds only.

Why these sizes and only two workloads: a full measurement is 4 + 22 runs
per workload of ``run_seconds`` each, within an hour, and on a shared host
a run needs about a minute for a steady median, so the three exact
commands share one workload and each command takes seconds.  ``verify`` on ``coord 2,6``
(31-42 s) or ``coord 3,5`` (22 s) does not fit, so each command uses the
largest config that keeps its layer mix; see perfbench/README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def file_digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def check_names(stdout: str) -> list[str]:
    """Check names of the PASS/FAIL/SKIP lines ``burnside verify`` prints."""
    names = []
    for line in stdout.splitlines():
        head = line.split(":", 1)[0].split()
        if head and head[0] in ("PASS", "FAIL", "SKIP"):
            names.append(" ".join(head[1:]))
    return names


@dataclass(frozen=True)
class Verify:
    """``burnside verify``: exit 0, no FAIL line, the reference set of checks."""

    model: str
    k: int
    n: int

    @property
    def key(self) -> str:
        return f"verify {self.model} {self.k} {self.n}"

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        return ["verify", "--model", self.model, "--k", str(self.k), "--n", str(self.n)]

    def check(self, code: int, stdout: str, out_dir: Path, reference: dict) -> str:
        if code != 0:
            return f"exit code {code}"
        if any(line.startswith("FAIL") for line in stdout.splitlines()):
            return "a FAIL line was printed"
        want = reference.get(self.key)
        if want is None:
            return f"no reference check names for {self.key!r}"
        got = sorted(check_names(stdout))
        if got != sorted(want):
            return f"check names differ from the reference: {sorted(set(got) ^ set(want))}"
        return ""


@dataclass(frozen=True)
class Export:
    """``burnside build``: every written file matches its reference sha256."""

    model: str
    k: int
    n: int

    @property
    def key(self) -> str:
        return f"build {self.model} {self.k} {self.n}"

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        return [
            "build", "--model", self.model, "--k", str(self.k), "--n", str(self.n),
            "--format", "both", "--out", str(out_dir / "matrices"),
        ]

    def check(self, code: int, stdout: str, out_dir: Path, reference: dict) -> str:
        if code != 0:
            return f"exit code {code}"
        want = reference.get(self.key)
        if want is None:
            return f"no reference digests for {self.key!r}"
        got = file_digests(out_dir / "matrices")
        if got != want:
            bad = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
            return f"files differ from the reference digests: {bad}"
        return ""


def coord_orbit_tv(counts: dict[str, int], n: int, k: int) -> float:
    """TV between the occupation of coordinate-model orbits and uniform.

    An orbit of S_n on [k]^n is fixed by how often each symbol occurs, and
    the primal chain's stationary law lumped to orbits is uniform on the
    C(n+k-1, k-1) orbits, so this checks the chain without its own code.
    """
    occupation: dict[tuple, int] = {}
    for label, c in counts.items():
        symbols = label.split(",") if "," in label else list(label)
        key = tuple(symbols.count(str(s)) for s in range(k))
        occupation[key] = occupation.get(key, 0) + c
    total = sum(occupation.values())
    orbits = math.comb(n + k - 1, k - 1)
    unseen = orbits - len(occupation)
    return 0.5 * (
        sum(abs(c / total - 1 / orbits) for c in occupation.values()) + unseen / orbits
    )


@dataclass(frozen=True)
class Sample:
    """``burnside sample``: counts add up, and the occupation is near the
    stationary law (the CLI's own TV for the dual chain, the orbit
    occupation for the coordinate-model primal chain)."""

    model: str
    k: int
    n: int
    chain: str
    steps: int
    tv_bound: float

    @property
    def key(self) -> str:
        return f"sample {self.model} {self.k} {self.n} {self.chain}"

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        return [
            "sample", "--model", self.model, "--k", str(self.k), "--n", str(self.n),
            "--chain", self.chain, "--steps", str(self.steps),
            "--seed", str(seed), "--summary", str(out_dir / "summary.json"),
        ]

    def check(self, code: int, stdout: str, out_dir: Path, reference: dict) -> str:
        if code != 0:
            return f"exit code {code}"
        with open(out_dir / "summary.json") as fh:
            summary = json.load(fh)
        if summary["steps"] != self.steps or summary["total_counted"] != self.steps + 1:
            return f"total_counted {summary['total_counted']} != steps + 1 = {self.steps + 1}"
        if self.steps == 0:
            return ""
        if self.chain == "dual":
            tv = summary["tv_to_stationary"]
        elif self.model == "coord":
            tv = coord_orbit_tv(summary["counts"], self.n, self.k)
        else:
            raise ValueError("no independent occupation check for the value-model primal chain")
        if tv is None or not tv <= self.tv_bound:
            return f"TV to the stationary law {tv} exceeds {self.tv_bound}"
        return ""


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # one operation runs these in order
    setup: tuple     # (model, k, n) configs for build_bundle, each in its own
                     # process; () to run the commands with --steps 0

    @property
    def sampling(self) -> bool:
        return isinstance(self.commands[0], Sample)


WORKLOADS = {
    w.name: w
    for w in (
        # Every matrix layer, each command where its layer does most of the
        # work: value 5,3 verify (dense products in ratmat and kernels, closed
        # forms), value 4,4 verify (char poly of the 256-dim K, TV profiles)
        # and value 4,4 build (the same kernels serialized to p/q JSON and CSV).
        Workload(
            "exact",
            (Verify("value", 5, 3), Verify("value", 4, 4), Export("value", 4, 4)),
            (("value", 5, 3), ("value", 4, 4)),
        ),
        # matrix-free chains only; the primal one is beyond every exact cap.
        # Over 16 seeds the TV read 0.057-0.062 (dual) and 0.029-0.045 (primal).
        Workload(
            "sample",
            (
                Sample("coord", 2, 6, "dual", 30000, 0.08),
                Sample("coord", 2, 64, "primal", 8000, 0.08),
            ),
            (),
        ),
    )
}

# Toy sizes for the self-test: the same code paths in well under a second each.
TOY_WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact",
            (Verify("coord", 2, 3), Verify("value", 3, 2), Export("value", 3, 2)),
            (("coord", 2, 3), ("value", 3, 2)),
        ),
        Workload(
            "sample",
            (
                Sample("coord", 2, 3, "dual", 400, 0.25),
                Sample("coord", 2, 16, "primal", 400, 0.25),
            ),
            (),
        ),
    )
}
