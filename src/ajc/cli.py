"""Command-line front end.

    ajc assemble|sample|propagate|koopman|committor|coherence|convergence
        --config <file> [--out <dir>] [--seed <u64>]

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 solver
failure.  AJC_LOG selects the logging level (DEBUG/INFO/WARNING/...).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import io as ajcio
from .committor import EmptyTarget, coherence_defect, committor_solve
from .galerkin import assemble
from .jumpchain import SpaceTimePoint, sample_trajectory
from .operators import NonConvergence, koopman_solve, reconstruct_propagator
from .oracle import convergence_study
from . import presets

log = logging.getLogger("ajc")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _seed(text: str) -> int:
    """The value of --seed: numpy's generators take integers >= 0 only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


def _build_parser() -> _Parser:
    parser = _Parser(prog="ajc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_seed, default=0, help="RNG seed (sampling)")
    return parser


def _load(args) -> tuple[dict, Path]:
    cfg_path = Path(args.config)
    try:
        config = json.loads(cfg_path.read_text())
    except FileNotFoundError:
        raise ajcio.ConfigError(f"config file not found: {cfg_path}")
    except json.JSONDecodeError as exc:
        raise ajcio.ConfigError(f"config {cfg_path} is not valid JSON: {exc}")
    ajcio.check_keys(config, {"generator"} | _COMMANDS[args.command][1],
                     f"{args.command} config", {"generator"})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _assembled(args, config):
    seq = ajcio.build_sequence(config, Path(args.config).parent)
    return seq, assemble(seq)


def cmd_assemble(args) -> int:
    config, out = _load(args)
    seq, J = _assembled(args, config)
    mtx, header = ajcio.save_jump_matrix(J, out / "jump_matrix")
    size = J.indexer.size
    print(f"N={J.indexer.N} M={J.indexer.M} dimension={size} nnz={J.nnz} "
          f"sparsity={J.nnz / size ** 2:.4%}")
    print(f"wrote {mtx} and {header}")
    return EXIT_OK


def cmd_sample(args) -> int:
    config, out = _load(args)
    seq = ajcio.build_sequence(config, Path(args.config).parent)
    start_node = ajcio.check_keys(config.get("initial", {}), {"state", "time"}, "initial")
    state = ajcio.resolve_state(start_node.get("state", 0), seq.N)
    time = ajcio.parse_number(start_node.get("time", seq.grid.t0), float, "initial time")
    horizon = ajcio.parse_number(config.get("horizon", seq.grid.horizon), float, "horizon")
    if not seq.grid.t0 <= time <= horizon <= seq.grid.horizon:
        raise ajcio.ConfigError(f"need grid start {seq.grid.t0} <= initial time {time} "
                                f"<= horizon {horizon} <= grid horizon {seq.grid.horizon}")
    start = SpaceTimePoint(state, time)
    count = ajcio.parse_number(config.get("n_trajectories", 1), int, "n_trajectories")
    if count < 1:
        raise ajcio.ConfigError(f"n_trajectories must be positive, got {count}")
    rng = np.random.default_rng(args.seed)
    rows = []
    final_states = np.zeros(seq.N, dtype=int)
    for tid in range(count):
        traj = sample_trajectory(seq, start, horizon, rng)
        rows.extend((tid, int(i), repr(float(t)))
                    for i, t in zip(traj.states, traj.times))
        final_states[traj.states[-1]] += 1
    ajcio.write_csv(out / "trajectories.csv",
                    ["trajectory", "state_index", "jump_time"], rows)
    ajcio.write_csv(out / "final_state_histogram.csv", ["state_index", "count"],
                    [(i, int(c)) for i, c in enumerate(final_states)])
    print(f"wrote {count} trajectories to {out / 'trajectories.csv'}")
    return EXIT_OK


def cmd_propagate(args) -> int:
    config, out = _load(args)
    seq, J = _assembled(args, config)
    fbar = ajcio.parse_spatial_vector(config.get("initial_density", {"state": 0}), seq.N,
                                      "initial_density")
    block = ajcio.parse_block(config.get("block", J.indexer.M - 1), J.indexer.M)
    density = reconstruct_propagator(J, fbar, block)
    path = ajcio.write_csv(out / "density.csv", ["state", "mass"],
                           ajcio.spatial_csv_rows(density),
                           comments=[f"block={block} edge_time={seq.grid.edges[block + 1]}"])
    print(f"wrote {path}")
    return EXIT_OK


def cmd_koopman(args) -> int:
    config, out = _load(args)
    seq, J = _assembled(args, config)
    g = ajcio.parse_spatial_vector(config.get("observable", {"ones": True}), seq.N, "observable")
    block = ajcio.parse_block(config.get("block", J.indexer.M - 1), J.indexer.M)
    K = koopman_solve(J, g, block)
    path = ajcio.write_csv(out / "koopman.csv", ["state", "block", "value"],
                           ajcio.spacetime_csv_rows(K.values, J.indexer),
                           comments=[f"terminal_block={block}"])
    print(f"wrote {path}")
    return EXIT_OK


def cmd_committor(args) -> int:
    config, out = _load(args)
    seq, J = _assembled(args, config)
    A = ajcio.parse_set(config.get("set_a"), seq.N, J.indexer.M, "A")
    B = ajcio.parse_set(config.get("set_b"), seq.N, J.indexer.M, "B")
    if A.cells & B.cells:
        raise ajcio.ConfigError(f"set_a and set_b share the cells {sorted(A.cells & B.cells)}")
    tail = ajcio.parse_tail(config.get("tail", "absorb_to_B"))
    c = committor_solve(J, A, B, tail)
    path = ajcio.write_csv(out / "committor.csv", ["state", "block", "value"],
                           ajcio.spacetime_csv_rows(c.values, J.indexer),
                           comments=[f"tail={tail}"])
    print(f"wrote {path}")
    return EXIT_OK


def cmd_coherence(args) -> int:
    config, out = _load(args)
    seq, J = _assembled(args, config)
    C = ajcio.parse_set(config.get("set_c"), seq.N, J.indexer.M, "C")
    count_survival = config.get("count_survival", False)
    if not isinstance(count_survival, bool):
        raise ajcio.ConfigError(f"count_survival must be true or false, got {count_survival!r}")
    min_slack, violation_mass = coherence_defect(J, C, count_survival)
    path = ajcio.write_csv(out / "coherence.csv",
                           ["min_slack", "violation_mass", "count_survival"],
                           [(repr(min_slack), repr(violation_mass), count_survival)])
    print(f"min_slack={min_slack:.6g} violation_mass={violation_mass:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    config, out = _load(args)
    node = config["generator"]
    preset = node.get("preset") if isinstance(node, dict) else None
    if not isinstance(preset, str) or preset not in presets.BUILDERS:
        names = " or ".join(map(repr, presets.BUILDERS))
        raise ajcio.ConfigError(f"convergence requires a {names} preset")
    ajcio.check_keys(node, {"preset"}, "convergence generator")
    dt_list = config.get("dt_list")
    if not dt_list or not isinstance(dt_list, list):
        raise ajcio.ConfigError("convergence requires a nonempty list 'dt_list'")
    dt_list = [ajcio.parse_number(dt, float, "dt_list entry") for dt in dt_list]
    for before, dt in zip(dt_list, dt_list[1:]):
        if dt >= before:
            raise ajcio.ConfigError(f"dt_list must be strictly descending: "
                                    f"dt={dt:g} follows {before:g}")
    seqs = {dt: ajcio.build_sequence({"generator": dict(node, dt=dt)}) for dt in dt_list}
    study = convergence_study(seqs.__getitem__, dt_list)
    comments = []
    if study["slope"] is not None:
        comments.append(f"loglog_slope={study['slope']:.4f}")
    path = ajcio.write_csv(out / "convergence.csv",
                           ["dt", "epsilon_2norm", "epsilon_frobenius"],
                           [(repr(dt), repr(e2), repr(ef))
                            for dt, e2, ef in study["rows"]],
                           comments=comments)
    for dt, e2, _ in study["rows"]:
        print(f"dt={dt:g} epsilon={e2:.6e}")
    if study["slope"] is not None:
        print(f"slope={study['slope']:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


# Each command's handler and the top-level config keys it reads besides "generator".
_COMMANDS = {
    "assemble": (cmd_assemble, set()),
    "sample": (cmd_sample, {"initial", "n_trajectories", "horizon"}),
    "propagate": (cmd_propagate, {"initial_density", "block"}),
    "koopman": (cmd_koopman, {"observable", "block"}),
    "committor": (cmd_committor, {"set_a", "set_b", "tail"}),
    "coherence": (cmd_coherence, {"set_c", "count_survival"}),
    "convergence": (cmd_convergence, {"dt_list"}),
}


def main(argv=None) -> int:
    level = os.environ.get("AJC_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"usage error: AJC_LOG must name a logging level such as INFO or DEBUG, "
              f"got {level!r}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=level.upper())
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command][0](args)
    except ajcio.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergence, EmptyTarget) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
