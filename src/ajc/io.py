"""File formats: MatrixMarket matrices, JSON configs, CSV results.

All outputs are text.  States and blocks are 0-based in every file; the
2-state preset additionally accepts the state names "A" and "B".
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .committor import SpaceTimeSet
from .galerkin import JumpMatrix, SpaceTimeIndexer
from .generator import (
    GridPotential,
    InvalidProtocol,
    RateMatrixSequence,
    TimeGrid,
    rate_sequence_from_protocol,
    sqra_generator,
)
from . import presets


class ConfigError(ValueError):
    """A run configuration could not be resolved."""


def save_jump_matrix(J: JumpMatrix, path) -> tuple[Path, Path]:
    """Write matrix.mtx plus a sidecar .json header; returns both paths."""
    path = Path(path)
    mtx = path.with_suffix(".mtx")
    header = path.with_suffix(".json")
    scipy.io.mmwrite(mtx, J.matrix)
    meta = {
        "N": J.indexer.N,
        "M": J.indexer.M,
        "time_edges": J.grid.edges.tolist(),
        "outbound_rates": J.outbound.tolist(),
        "survival_mass": J.survival_mass.tolist(),
    }
    header.write_text(json.dumps(meta, indent=1))
    return mtx, header


def _build_time_grid(node) -> TimeGrid:
    if "edges" in node:
        return TimeGrid(np.array(node["edges"], dtype=float))
    try:
        return TimeGrid.uniform(node["t0"], node["t1"], int(node["cells"]))
    except KeyError as exc:
        raise ConfigError(f"time_grid needs 'edges' or 't0'/'t1'/'cells': missing {exc}")


def build_sequence(config: dict, base_dir: Path | None = None) -> RateMatrixSequence:
    """Resolve the 'generator' section of a run config into a rate sequence."""
    node = config.get("generator")
    if not node:
        raise ConfigError("config has no 'generator' section")
    base_dir = Path(base_dir) if base_dir else Path.cwd()
    preset = node.get("preset")
    if preset is not None:
        if not isinstance(preset, str) or preset not in presets.BUILDERS:
            raise ConfigError(f"unknown preset {preset!r}")
        builder = presets.BUILDERS[preset]
        return builder(float(node["dt"])) if "dt" in node else builder()
    kind = node.get("type")
    if kind == "sqra":
        grid = _build_time_grid(node["time_grid"])
        pot_node = node.get("potential", "triple-well")
        if pot_node == "triple-well":
            pot = presets.triple_well_grid_potential()
        else:
            pot = GridPotential(int(node["nx"]), int(node["ny"]),
                                float(node["h"]), np.array(pot_node, dtype=float))
        betas = [float(b) for b in node["beta_schedule"]]
        if len(betas) != grid.M:
            raise ConfigError("beta_schedule must have one entry per time cell")
        cache = {b: sqra_generator(pot, b) for b in set(betas)}
        return rate_sequence_from_protocol(grid, lambda k, span: cache[betas[k]])
    if kind == "files":
        grid = _build_time_grid(node["time_grid"])
        paths = [base_dir / p for p in node["matrices"]]
        if len(paths) != grid.M:
            raise ConfigError("need one matrix file per time cell")
        mats = []
        for p in paths:
            try:
                mats.append(sp.csr_matrix(scipy.io.mmread(p)))
            except Exception as exc:
                raise ConfigError(f"cannot read rate matrix {p}: {exc}")
            if mats[-1].shape[0] != mats[-1].shape[1]:
                raise ConfigError(f"rate matrix {p} is not square: {mats[-1].shape}")
        try:
            return rate_sequence_from_protocol(grid, lambda k, span: mats[k])
        except InvalidProtocol as exc:
            raise ConfigError("; ".join(f"{paths[v.matrix]}: {v}" for v in exc.violations))
    raise ConfigError(f"generator needs a 'preset' or a known 'type', got {node}")


def resolve_state(token, N: int) -> int:
    if isinstance(token, str):
        names = {"A": 0, "B": 1}
        if token in names and names[token] < N:
            return names[token]
        raise ConfigError(f"unknown state name {token!r}")
    i = int(token)
    if not 0 <= i < N:
        raise ConfigError(f"state index {i} out of range [0, {N})")
    return i


def parse_set(node, N: int, label: str = "") -> SpaceTimeSet:
    """Sets are lists of [state, block] pairs or rectangles
    {"states": [...], "blocks": [lo, hi]}; a list may mix both forms."""
    if node is None:
        return SpaceTimeSet(frozenset(), label)
    if isinstance(node, dict):
        node = [node]
    cells = set()
    for item in node:
        if isinstance(item, dict):
            lo, hi = item["blocks"]
            for tok in item["states"]:
                i = resolve_state(tok, N)
                cells.update((i, k) for k in range(int(lo), int(hi) + 1))
        else:
            i, k = item
            cells.add((resolve_state(i, N), int(k)))
    return SpaceTimeSet(frozenset(cells), label)


def parse_spatial_vector(node, N: int) -> np.ndarray:
    """A spatial vector: explicit list, {"state": i} point mass, {"ones": true},
    or {"uniform": true}."""
    if isinstance(node, dict):
        if node.get("ones"):
            return np.ones(N)
        if node.get("uniform"):
            return np.full(N, 1.0 / N)
        if "state" in node:
            v = np.zeros(N)
            v[resolve_state(node["state"], N)] = 1.0
            return v
        raise ConfigError(f"cannot interpret spatial vector {node}")
    v = np.array(node, dtype=float)
    if v.shape != (N,):
        raise ConfigError(f"spatial vector must have length {N}")
    return v


def write_csv(path, header: list[str], rows, comments: list[str] = ()) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def spacetime_csv_rows(values: np.ndarray, idx: SpaceTimeIndexer):
    """(state, block, value) rows in flat-index order."""
    states, blocks = idx.unflat(np.arange(idx.size))
    return [(int(i), int(k), repr(float(v)))
            for i, k, v in zip(states, blocks, values)]


def spatial_csv_rows(values: np.ndarray):
    return [(int(i), repr(float(v))) for i, v in enumerate(values)]
