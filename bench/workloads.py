"""The benchmark's workloads: seeded inputs, one library pass, output checks.

Every pass of a run repeats the same work on the same inputs, so its exact
counters (nnz, bytes, jumps, trajectories) must come out identical.  The
seed sets observable, initial-density and start-state values and the
sampler's RNG; it never sets a problem size or the shape of a set.
"""

from __future__ import annotations

import collections
import csv
import functools
from pathlib import Path

import numpy as np

from ajc import io as ajcio
from ajc import presets
from ajc.committor import SpaceTimeSet, coherence_defect, committor_solve
from ajc.galerkin import assemble, phi
from ajc.jumpchain import SpaceTimePoint, sample_trajectory
from ajc.operators import embed_spacelike, jump_activity, koopman_solve, synchronize
from ajc.oracle import convergence_study, exact_propagator

# Tolerances of the acceptance suite (tests/test_acceptance.py).
ONES_TOL = 1e-10
MASS_TOL = 1e-10
DUALITY_TOL = 1e-8
RANGE_TOL = 1e-12  # tests/test_committor.py::test_values_are_probabilities
SLOPE_RANGE = (0.8, 1.2)
HIST_SIGMAS = 5.0
# States expected fewer times than this in a pass share one histogram bin,
# so that a single visit to a rare state is not read as a 5-sigma excess.
HIST_MIN_EXPECTED = 5.0

TRIPLE_WELL_TIME_GRID = {"t0": 0.0, "t1": 2.0, "cells": 6}
TRIPLE_WELL_BETAS = [1, 1, 1, 10, 10, 10]

# Size profiles: "full" is what BENCHMARK.json measures, "tiny" keeps the
# same code paths at desk-check size for the smoke test.  Rounds per run:
# the sampler's set-up and CLI set are short, so it takes more samples of
# them in a run of about the same length as a solve workload's.
SIZES = {
    "full": {"tw_dt": 1 / 96, "tw_dt_list": [1 / 3, 1 / 6, 1 / 12, 1 / 24, 1 / 48],
             "grid_n": 50, "sample_dt": 1 / 24, "per_state": 2, "cli_trajectories": 100,
             "solve_rounds": 3, "sample_rounds": 6},
    "tiny": {"tw_dt": 1 / 6, "tw_dt_list": [1 / 3, 1 / 6],
             "grid_n": 10, "sample_dt": 1 / 6, "per_state": 1, "cli_trajectories": 10,
             "solve_rounds": 1, "sample_rounds": 1},
}


class Checks:
    """Per-run tally: one attempted operation per check of a distinct output.

    Distinct outputs are the warm-up pass's and each CLI command's.  Timed
    passes repeat the warm-up pass on the same inputs; their checks go
    through `repeats`, so that attempted and failed depend on the seed and
    not on how many passes fit into the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = collections.Counter()
        self.worst: dict[str, float] = {}
        self.first: dict[str, bool] = {}  # check name -> its first verdict
        self.repeats = Repeats(self)

    def note(self, name: str, ok: bool, value: float | None) -> None:
        self.first.setdefault(name, ok)
        if value is not None:
            self.worst[name] = max(self.worst.get(name, 0.0), float(value))

    def record(self, name: str, ok: bool, value: float | None = None):
        self.note(name, ok, value)
        self.attempted += 1
        if not ok:
            self.failed[name] += 1

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())


class Repeats:
    """Checks of a repeated pass.  A repeat is an operation of its own only
    when it fails a check that passed before: then the same inputs gave a
    worse output, and it counts as one more failed operation."""

    def __init__(self, checks: Checks):
        self.checks = checks

    def record(self, name: str, ok: bool, value: float | None = None):
        if ok or self.checks.first.get(name) is False:
            self.checks.note(name, ok, value)
        else:
            self.checks.record(name, ok, value)


def read_csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(line for line in fh if not line.startswith("#"))]
    return rows[1:]


def neighbourhood(state: int, nx: int, ny: int) -> list[int]:
    """state plus its 4-neighbours on the row-major nx-by-ny grid."""
    r, c = divmod(state, nx)
    out = [state]
    for dr, dc in ((0, -1), (0, 1), (-1, 0), (1, 0)):
        if 0 <= r + dr < ny and 0 <= c + dc < nx:
            out.append((r + dr) * nx + c + dc)
    return out


def mass_closure_error(J) -> float:
    """max over rows of |jump mass + closed-form survival - 1|."""
    dt = J.grid.widths
    qdt = J.outbound * dt[None, :]
    later = np.cumsum(qdt[:, ::-1], axis=1)[:, ::-1] - qdt
    survival = phi(J.outbound, dt[None, :]) / dt[None, :] * np.exp(-later)
    jump = np.asarray(J.matrix.sum(axis=1)).ravel()
    return float(np.abs(jump + survival.T.ravel() - 1.0).max())


def matrix_bytes(J) -> int:
    m = J.matrix
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


class SolveWorkload:
    """build_sequence -> assemble -> Koopman, committor, forward route,
    coherence and (optionally) the expm convergence study."""

    def __init__(self, name: str, generator: dict, grid_shape: tuple[int, int],
                 a_centre: int, b_centre: int, blocks: int, seed: int,
                 dt_list: list[float] | None, cli: list[str], rounds: int):
        self.name = name
        self.rounds = rounds
        self.config = {"generator": generator}
        nx, ny = grid_shape
        n = nx * ny
        self.M = blocks
        self.a_states = neighbourhood(a_centre, nx, ny)
        self.b_states = neighbourhood(b_centre, nx, ny)
        self.set_a = SpaceTimeSet.rectangle(self.a_states, (0, blocks - 1), "A")
        self.set_b = SpaceTimeSet.rectangle(self.b_states, (0, blocks - 1), "B")
        rng = np.random.default_rng(seed)
        self.g = rng.random(n)
        f = rng.random(n)
        self.f = f / f.sum()
        self.dt_list = dt_list
        self.cli = cli

    def run_pass(self, tr) -> dict:
        with tr.span("io.build_sequence"):
            seq = ajcio.build_sequence(self.config)
        with tr.span("galerkin.assemble"):
            J = assemble(seq)
        n, last = J.indexer.N, J.indexer.M - 1
        with tr.span("operators.koopman"):
            K = koopman_solve(J, self.g, last)
        with tr.span("operators.koopman"):
            K1 = koopman_solve(J, np.ones(n), last)
        with tr.span("committor.committor"):
            c = committor_solve(J, self.set_a, self.set_b)
        start = embed_spacelike(self.f, J.indexer)
        with tr.span("operators.activity"):
            activity, residual = jump_activity(J, start)
        with tr.span("operators.synchronize"):
            density = synchronize(J, activity, last)
        with tr.span("committor.coherence"):
            coherence = coherence_defect(J, self.set_a)
        study = None
        if self.dt_list:
            with tr.span("oracle.convergence"):
                study = convergence_study(presets.triple_well, self.dt_list)
        return {"J": J, "K": K, "K1": K1, "c": c, "residual": residual,
                "density": density, "coherence": coherence, "study": study}

    def check(self, out: dict, checks: Checks | Repeats) -> dict:
        J = out["J"]
        n = J.indexer.N
        mass_err = mass_closure_error(J)
        checks.record("galerkin.mass_closure", mass_err <= MASS_TOL, mass_err)
        ones_err = float(np.abs(out["K1"].values - 1.0).max())
        checks.record("operators.koopman_ones", ones_err <= ONES_TOL, ones_err)
        c = out["c"].values
        range_err = max(0.0, -float(c.min()), float(c.max()) - 1.0)
        checks.record("committor.range", range_err <= RANGE_TOL, range_err)
        duality = abs(float(out["density"] @ self.g) - float(self.f @ out["K"].values[:n]))
        checks.record("operators.duality", duality <= DUALITY_TOL, duality)
        if out["study"] is not None:
            errs = [row[1] for row in out["study"]["rows"]]
            slope = out["study"]["slope"]
            ok = (SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]
                  and all(a > b for a, b in zip(errs, errs[1:])))
            checks.record("oracle.convergence", ok)
        return {
            "galerkin.nnz": int(J.matrix.nnz),
            "galerkin.matrix_bytes": matrix_bytes(J),
            "galerkin.cumulative_bytes": int(J.block_cumulative.nbytes),
        }

    def accuracy(self, out: dict) -> dict:
        study = out["study"]
        return {"operators.activity_residual": float(out["residual"]),
                "oracle.slope": float(study["slope"]) if study else 0.0}

    def write_outputs(self, out: dict, tr, directory: Path) -> None:
        idx = out["J"].indexer
        with tr.span("io.save_jump_matrix"):
            ajcio.save_jump_matrix(out["J"], directory / "jump_matrix")
        with tr.span("io.write_csv"):
            ajcio.write_csv(directory / "koopman.csv", ["state", "block", "value"],
                            ajcio.spacetime_csv_rows(out["K"].values, idx))
            ajcio.write_csv(directory / "committor.csv", ["state", "block", "value"],
                            ajcio.spacetime_csv_rows(out["c"].values, idx))
            ajcio.write_csv(directory / "density.csv", ["state", "mass"],
                            ajcio.spatial_csv_rows(out["density"]))

    def cli_configs(self) -> list[tuple[str, dict, list[str]]]:
        last = self.M - 1
        rect = lambda states: {"states": states, "blocks": [0, last]}
        configs = {
            "assemble": dict(self.config),
            "committor": dict(self.config, set_a=rect(self.a_states),
                              set_b=rect(self.b_states)),
            "convergence": {"generator": {"preset": "triple-well"},
                            "dt_list": self.dt_list},
            "koopman": dict(self.config, observable=self.g.tolist(), block=last),
            "propagate": dict(self.config, initial_density=self.f.tolist(), block=last),
        }
        return [(cmd, configs[cmd], []) for cmd in self.cli]

    def check_cli(self, command: str, directory: Path, stdout: str, ref: dict) -> bool:
        """The CLI must reproduce the library pass bit for bit."""
        if command == "assemble":
            return (f"nnz={ref['J'].matrix.nnz} " in stdout
                    and (directory / "jump_matrix.mtx").is_file())
        if command == "convergence":
            rows = read_csv_rows(directory / "convergence.csv")
            return [tuple(float(x) for x in row) for row in rows] == \
                [tuple(r) for r in ref["study"]["rows"]]
        if command == "propagate":
            rows = read_csv_rows(directory / "density.csv")
            return [float(r[1]) for r in rows] == ref["density"].tolist()
        key, name = {"committor": ("c", "committor.csv"),
                     "koopman": ("K", "koopman.csv")}[command]
        rows = read_csv_rows(directory / name)
        return [float(r[2]) for r in rows] == ref[key].values.tolist()


def tw_fine(seed: int, size: str) -> SolveWorkload:
    p = SIZES[size]
    blocks = int(round(presets.TRIPLE_WELL_HORIZON / p["tw_dt"]))
    nx, ny = presets.TRIPLE_WELL_NX, presets.TRIPLE_WELL_NY
    # states 20 and 24 are the left and right minima, (-1, 0) and (1, 0)
    return SolveWorkload("tw-fine", {"preset": "triple-well", "dt": p["tw_dt"]},
                         (nx, ny), 20, 24, blocks, seed, p["tw_dt_list"],
                         ["assemble", "committor", "convergence"], p["solve_rounds"])


def grid_2500(seed: int, size: str) -> SolveWorkload:
    p = SIZES[size]
    n_side = p["grid_n"]
    (x0, x1), (y0, y1) = presets.TRIPLE_WELL_DOMAIN
    # one step h on both axes: x spans the preset's x range, y is centred on
    # the preset's y range and spans as much as x, so it holds that range too
    h = (x1 - x0) / (n_side - 1)
    offsets = h * (np.arange(n_side) - (n_side - 1) / 2)
    xs, ys = (x0 + x1) / 2 + offsets, (y0 + y1) / 2 + offsets
    X, Y = np.meshgrid(xs, ys)
    X, Y = X.ravel(), Y.ravel()
    generator = {"type": "sqra", "time_grid": TRIPLE_WELL_TIME_GRID,
                 "beta_schedule": TRIPLE_WELL_BETAS, "nx": n_side, "ny": n_side,
                 "h": float(h),
                 "potential": presets.triple_well_potential(X, Y).tolist()}
    left = int(np.argmin((X + 1.0) ** 2 + Y ** 2))
    right = int(np.argmin((X - 1.0) ** 2 + Y ** 2))
    return SolveWorkload("grid-2500", generator, (n_side, n_side), left, right,
                         TRIPLE_WELL_TIME_GRID["cells"], seed, None,
                         ["koopman", "propagate"], p["solve_rounds"])


class SampleWorkload:
    """Temporal Gillespie trajectories only: no assembly, no solves."""

    name = "sample-tw48"

    def __init__(self, seed: int, size: str):
        p = SIZES[size]
        self.rounds = p["sample_rounds"]
        self.config = {"generator": {"preset": "triple-well", "dt": p["sample_dt"]}}
        self.seq = ajcio.build_sequence(self.config)
        n = self.seq.N
        rng = np.random.default_rng(seed)
        # every state starts the same number of trajectories, in seeded order
        self.starts = rng.permutation(np.repeat(np.arange(n), p["per_state"]))
        self.rng_seed = int(rng.integers(2 ** 63))
        self.cli_state = int(rng.integers(n))
        self.cli_trajectories = p["cli_trajectories"]
        self.t0, self.horizon = self.seq.grid.t0, self.seq.grid.horizon

    # What only the checks use is built on first use, so that set-up times
    # the sampler's inputs and not the checks' oracle.
    @functools.cached_property
    def rates(self) -> np.ndarray:
        return np.stack([Q.toarray() for Q in self.seq.matrices])

    @functools.cached_property
    def final_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Expected count and variance of each final state over the starts."""
        P = exact_propagator(self.seq, self.t0, self.horizon)[self.starts]
        return P.sum(axis=0), (P * (1.0 - P)).sum(axis=0)

    def run_pass(self, tr) -> dict:
        rng = np.random.default_rng(self.rng_seed)
        with tr.span("jumpchain.sample"):
            trajs = [sample_trajectory(self.seq, SpaceTimePoint(int(s), self.t0),
                                       self.horizon, rng) for s in self.starts]
        return {"trajs": trajs}

    def valid_steps(self, trajs_states, trajs_times) -> np.ndarray:
        """Per trajectory: starts at t0, times rise within the horizon, and
        every jump follows a nonzero rate of the cell holding its time."""
        ok = np.ones(len(trajs_states), dtype=bool)
        edges = self.seq.grid.edges
        for t, (states, times) in enumerate(zip(trajs_states, trajs_times)):
            if times[0] != self.t0 or times[-1] > self.horizon or np.any(np.diff(times) <= 0):
                ok[t] = False
                continue
            cells = np.maximum(np.searchsorted(edges, times[1:], side="left") - 1, 0)
            src, dst = states[:-1], states[1:]
            if np.any(src == dst) or np.any(self.rates[cells, src, dst] <= 0):
                ok[t] = False
        return ok

    def histogram_ok(self, finals: np.ndarray) -> bool:
        counts = np.bincount(finals, minlength=self.seq.N).astype(float)
        expected, variance = self.final_moments
        rare = expected < HIST_MIN_EXPECTED
        bins = [(counts[~rare], expected[~rare], variance[~rare])]
        if rare.any():
            bins.append((counts[rare].sum(keepdims=True), expected[rare].sum(keepdims=True),
                         variance[rare].sum(keepdims=True)))
        return all(bool(np.all(np.abs(c - e) <= HIST_SIGMAS * np.sqrt(v)))
                   for c, e, v in bins)

    def check(self, out: dict, checks: Checks | Repeats) -> dict:
        trajs = out["trajs"]
        for ok in self.valid_steps([t.states for t in trajs], [t.times for t in trajs]):
            checks.record("jumpchain.trajectory", bool(ok))
        finals = np.array([t.states[-1] for t in trajs])
        checks.record("jumpchain.final_histogram", self.histogram_ok(finals))
        return {"jumpchain.jumps": sum(len(t) - 1 for t in trajs),
                "jumpchain.trajectories": len(trajs)}

    def accuracy(self, out: dict) -> dict:
        return {}

    def write_outputs(self, out: dict, tr, directory: Path) -> None:
        rows = [(tid, int(i), repr(float(t))) for tid, traj in enumerate(out["trajs"])
                for i, t in zip(traj.states, traj.times)]
        with tr.span("io.write_csv"):
            ajcio.write_csv(directory / "trajectories.csv",
                            ["trajectory", "state_index", "jump_time"], rows)

    def cli_configs(self) -> list[tuple[str, dict, list[str]]]:
        config = dict(self.config, initial={"state": self.cli_state},
                      n_trajectories=self.cli_trajectories)
        return [("sample", config, ["--seed", str(self.rng_seed)])]

    def check_cli(self, command: str, directory: Path, stdout: str, ref: dict) -> bool:
        rows = read_csv_rows(directory / "trajectories.csv")
        by_traj = collections.defaultdict(lambda: ([], []))
        for tid, state, time in rows:
            by_traj[int(tid)][0].append(int(state))
            by_traj[int(tid)][1].append(float(time))
        if sorted(by_traj) != list(range(self.cli_trajectories)):
            return False
        states = [np.array(v[0]) for v in by_traj.values()]
        times = [np.array(v[1]) for v in by_traj.values()]
        hist = [int(r[1]) for r in read_csv_rows(directory / "final_state_histogram.csv")]
        finals = np.bincount([s[-1] for s in states], minlength=self.seq.N)
        return (all(s[0] == self.cli_state for s in states)
                and bool(self.valid_steps(states, times).all())
                and hist == finals.tolist())


WORKLOADS = {
    "tw-fine": tw_fine,
    "grid-2500": grid_2500,
    "sample-tw48": SampleWorkload,
}
