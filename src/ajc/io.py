"""File formats: MatrixMarket matrices, JSON configs, CSV results.

All outputs are text.  States and blocks are 0-based in every file; only
a config of the 2-state preset also accepts the state names "A" and "B".
scipy.io, and scipy.sparse with it, loads on the first .mtx read or
write; nothing else here loads scipy.

A CSV file is "# " comment lines ending in LF, the header unquoted and
joined by commas, then rows ending in CRLF, each value its repr (a string
as it is): csv.writer's bytes for the ints, floats and bools it holds.
"""

from __future__ import annotations

import json
import logging
import reprlib
from io import BytesIO
from pathlib import Path

import numpy as np

from .committor import SpaceTimeSet, tail_value
from .galerkin import JumpMatrix, SpaceTimeIndexer
from .generator import (
    GridPotential,
    InvalidProtocol,
    RateMatrixSequence,
    TimeGrid,
    sqra_rates,
)
from . import presets

log = logging.getLogger(__name__)

# Entries per MatrixMarket chunk of consecutive row blocks: a few MB of text.
_CHUNK_ENTRIES = 2 ** 17
# Rows per chunk of CSV text from a solve's values.
_CSV_ROWS = 2048


class ConfigError(ValueError):
    """A run configuration could not be resolved."""


def _mtx_header(size: int, nnz: int) -> bytes:
    """The three header lines scipy.io.mmwrite gives a general real matrix."""
    return f"%%MatrixMarket matrix coordinate real general\n%\n{size} {size} {nnz}\n".encode()


def save_jump_matrix(J: JumpMatrix, path) -> tuple[Path, Path]:
    """Write matrix.mtx plus a sidecar .json header; returns both paths.

    The matrix is written one chunk of time blocks at a time, so the
    explicit matrix, whose nonzeros grow as M^2, is never held whole; the
    bytes are those of scipy.io.mmwrite(J.matrix, symmetry="general").
    """
    path = Path(path)
    mtx = path.with_suffix(".mtx")
    header = path.with_suffix(".json")
    size, nnz = J.indexer.size, J.nnz
    # block k holds the entries of the cells l >= k
    per_block = np.cumsum([R.nnz for R in J.offdiag[::-1]])[::-1].tolist()
    import scipy.io
    chunks, first, pending = 0, 0, 0
    with open(mtx, "wb") as fh:
        written = fh.write(_mtx_header(size, nnz))
        for k, count in enumerate(per_block, start=1):
            pending += count
            if pending >= _CHUNK_ENTRIES or k == J.indexer.M:
                # global row and column numbers and mmwrite's own formatting;
                # the chunk's header is dropped
                buf = BytesIO()
                scipy.io.mmwrite(buf, J.block_rows(first, k).as_scipy(), symmetry="general")
                written += fh.write(buf.getbuffer()[len(_mtx_header(size, pending)):])
                chunks, first, pending = chunks + 1, k, 0
    log.info("save_jump_matrix: nnz=%d in %d chunks, %d bytes written", nnz, chunks, written)
    meta = {
        "N": J.indexer.N,
        "M": J.indexer.M,
        "time_edges": J.grid.edges.tolist(),
        "outbound_rates": J.outbound.tolist(),
        "survival_mass": J.survival_mass.tolist(),
    }
    header.write_text(json.dumps(meta, indent=1))
    return mtx, header


def check_keys(node, allowed, where: str, required=()) -> dict:
    """node itself, once it is a JSON object that holds every required key
    and no key outside allowed; otherwise a ConfigError naming the key."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a JSON object, got {node!r}")
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key {', '.join(map(repr, unknown))}; "
                          f"allowed: {', '.join(sorted(allowed))}")
    missing = sorted(set(required) - set(node))
    if missing:
        raise ConfigError(f"{where} needs {', '.join(map(repr, missing))}")
    return node


def parse_number(node, kind, what: str):
    """node converted by kind (int or float), or a ConfigError naming what:
    a boolean or a string is no number, and an int must be integral (2.0
    reads as 2)."""
    try:
        value = None if isinstance(node, (bool, str)) else kind(node)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None:
        raise ConfigError(f"{what} must be a number, got {node!r}")
    if kind is int and isinstance(node, float) and value != node:
        raise ConfigError(f"{what} must be an integer, got {node!r}")
    return value


def _list(node, what: str, length: int | None = None) -> list:
    if not isinstance(node, (list, tuple)) or length is not None and len(node) != length:
        size = "" if length is None else f" of {length}"
        raise ConfigError(f"{what} must be a list{size}, got {node!r}")
    return node


def parse_numbers(node, what: str, length: int | None = None) -> np.ndarray:
    """The flat list node, of the given length if any, as an array of finite
    floats, or a ConfigError naming what; as for parse_number, a boolean or
    a string is no number.  The entries' types are read in one pass, since
    a potential may hold thousands."""
    values = _list(node, what, length)
    try:
        v = None if {bool, str} & set(map(type, values)) else np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or v.ndim != 1:
        raise ConfigError(f"{what} must be a list of numbers, got {reprlib.repr(node)}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ConfigError(f"{what} must be finite: entry {bad[0]} is {v[bad[0]]}")
    return v


# Keys of the 'generator' section per kind: allowed, then required.
_GENERATOR_KEYS = {
    "preset": ({"preset", "dt"}, {"preset"}),
    "sqra": ({"type", "time_grid", "beta_schedule", "potential", "nx", "ny", "h"},
             {"time_grid", "beta_schedule"}),
    "files": ({"type", "time_grid", "matrices"}, {"time_grid", "matrices"}),
}


def _build_time_grid(node) -> TimeGrid:
    check_keys(node, {"edges", "t0", "t1", "cells"}, "time_grid")
    try:
        if "edges" in node:
            if len(node) > 1:
                raise ValueError("give 'edges' or 't0'/'t1'/'cells', not both: got "
                                 + ", ".join(map(repr, sorted(node))))
            return TimeGrid(parse_numbers(node["edges"], "time_grid edges"))
        t0, t1 = (parse_number(node[key], float, key) for key in ("t0", "t1"))
        return TimeGrid.uniform(t0, t1, parse_number(node["cells"], int, "cells"))
    except KeyError as exc:
        raise ConfigError(f"time_grid needs 'edges' or 't0'/'t1'/'cells': missing {exc}")
    except (TypeError, ValueError) as exc:  # malformed numbers and TimeGrid's checks
        raise ConfigError(f"time_grid: {exc}") from exc


def build_sequence(config: dict, base_dir: Path | None = None) -> RateMatrixSequence:
    """Resolve the 'generator' section of a run config into a rate sequence."""
    node = config.get("generator")
    if not node:
        raise ConfigError("config has no 'generator' section")
    base_dir = Path(base_dir) if base_dir else Path.cwd()
    if not isinstance(node, dict):
        raise ConfigError(f"generator must be a JSON object, got {node!r}")
    kind = "preset" if "preset" in node else node.get("type")
    if not isinstance(kind, str) or kind not in _GENERATOR_KEYS:
        raise ConfigError(f"generator needs a 'preset' or a known 'type', got {node}")
    allowed, required = _GENERATOR_KEYS[kind]
    check_keys(node, allowed, f"{kind} generator", required)
    if kind == "preset":
        preset = node["preset"]
        if not isinstance(preset, str) or preset not in presets.BUILDERS:
            raise ConfigError(f"unknown preset {preset!r}")
        builder = presets.BUILDERS[preset]
        if "dt" not in node:
            return builder()
        dt = parse_number(node["dt"], float, "generator dt")
        try:
            return builder(dt)
        except ValueError as exc:  # the preset's check that dt fits its switch time
            raise ConfigError(f"preset {preset!r}: {exc}") from exc
    grid = _build_time_grid(node["time_grid"])
    if kind == "sqra":
        betas = parse_numbers(node["beta_schedule"], "beta_schedule").tolist()
        if len(betas) != grid.M:
            raise ConfigError("beta_schedule must have one entry per time cell")
        if not all(b > 0 for b in betas):
            raise ConfigError(f"beta_schedule entries must be positive, got {betas}")
        pot_node = node.get("potential", "triple-well")
        if pot_node == "triple-well":
            check_keys(node, allowed - {"nx", "ny", "h"}, "sqra generator with the built-in "
                       "triple-well potential")
            pot = presets.triple_well_grid_potential()
        elif isinstance(pot_node, str):
            raise ConfigError(f"sqra potential must be 'triple-well' or a list of numbers, "
                              f"got {pot_node!r}")
        else:
            check_keys(node, allowed, "sqra generator with a potential list", {"nx", "ny", "h"})
            try:
                pot = GridPotential(parse_number(node["nx"], int, "nx"),
                                    parse_number(node["ny"], int, "ny"),
                                    parse_number(node["h"], float, "h"),
                                    parse_numbers(pot_node, "potential"))
            except (TypeError, ValueError) as exc:  # malformed numbers and GridPotential's checks
                raise ConfigError(f"sqra potential: {exc}") from exc
        mats, sources = sqra_rates(pot, betas), [f"sqra rates at beta {b!r}" for b in betas]
    else:
        sources = [base_dir / str(p) for p in _list(node["matrices"], "matrices")]
        if len(sources) != grid.M:
            raise ConfigError("need one matrix file per time cell")
        import scipy.io
        read = {}  # each distinct file once, so the cells naming it share one phase
        for p in dict.fromkeys(sources):
            try:
                A = read[p] = scipy.io.mmread(p)
            except Exception as exc:
                raise ConfigError(f"cannot read rate matrix {p}: {exc}")
            if A.shape[0] != A.shape[1]:
                raise ConfigError(f"rate matrix {p} is not square: {A.shape}")
            if A.shape != read[sources[0]].shape:
                raise ConfigError(f"rate matrix {p} is {A.shape}, "
                                  f"{sources[0]} is {read[sources[0]].shape}")
        mats = [read[p] for p in sources]
    try:  # a file's bad rates, or an sqra beta's rates that overflow
        return RateMatrixSequence(grid, mats)
    except InvalidProtocol as exc:
        raise ConfigError("; ".join(f"{sources[v.matrix]}: {v}" for v in exc.violations))
    except ValueError as exc:  # a file of no states
        raise ConfigError(f"rate matrix {sources[0]}: {exc}") from exc


_NAMES = {"A": 0, "B": 1}


def state_names(config: dict) -> dict:
    """The state names of a config build_sequence read: "A", "B" or none."""
    return _NAMES if config["generator"].get("preset") == "two-state" else {}


def resolve_state(token, N: int, names: dict = _NAMES) -> int:
    if isinstance(token, str):
        if token in names and names[token] < N:
            return names[token]
        raise ConfigError(f"unknown state name {token!r}" if names else
                          f"state name {token!r}: only the two-state preset names its states")
    i = parse_number(token, int, "state")
    if not 0 <= i < N:
        raise ConfigError(f"state index {i} out of range [0, {N})")
    return i


def parse_block(token, M: int) -> int:
    """A 0-based time block index in [0, M)."""
    k = parse_number(token, int, "block")
    if not 0 <= k < M:
        raise ConfigError(f"block {k} out of range [0, {M})")
    return k


def parse_set(node, N: int, M: int, label: str = "", names: dict = _NAMES) -> SpaceTimeSet:
    """Sets are lists of [state, block] pairs or rectangles
    {"states": [...], "blocks": [lo, hi]}; a list may mix both forms."""
    if node is None:
        return SpaceTimeSet((), label)
    if isinstance(node, dict):
        node = [node]
    cells = set()
    for item in _list(node, f"set {label}"):
        if isinstance(item, dict):
            check_keys(item, {"states", "blocks"}, f"set {label} rectangle", {"states", "blocks"})
            lo, hi = (parse_block(k, M) for k in _list(item["blocks"], f"set {label} blocks", 2))
            if lo > hi:
                raise ConfigError(f"set {label} blocks [{lo}, {hi}] are reversed: "
                                  f"need first <= last")
            states = [resolve_state(tok, N, names)
                      for tok in _list(item["states"], f"set {label} states")]
            cells |= SpaceTimeSet.rectangle(states, (lo, hi)).cells
        else:
            i, k = _list(item, f"set {label} cell", 2)
            cells.add((resolve_state(i, N, names), parse_block(k, M)))
    return SpaceTimeSet(cells, label)


def parse_tail(node):
    """The committor's tail policy, returned as given where
    committor.tail_value takes it."""
    try:
        tail_value(node)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return node


def parse_spatial_vector(node, N: int, what: str, names: dict = _NAMES) -> np.ndarray:
    """A spatial vector, read from the config key what: a list of finite
    numbers, or an object with exactly one of {"state": i} point mass, i an
    index or one of names, {"ones": true} and {"uniform": true}."""
    if isinstance(node, dict):
        check_keys(node, {"ones", "uniform", "state"}, what)
        if len(node) != 1:
            raise ConfigError(f"{what} needs exactly one of 'ones', 'uniform', 'state', "
                              f"got {', '.join(map(repr, sorted(node))) or 'none'}")
        (key, value), = node.items()
        if key == "state":
            v = np.zeros(N)
            v[resolve_state(value, N, names)] = 1.0
            return v
        if value is not True:
            raise ConfigError(f"{what} {key!r} must be true, got {value!r}")
        return np.ones(N) if key == "ones" else np.full(N, 1.0 / N)
    return parse_numbers(node, what, N)


def write_csv(path, header: list[str], text, comments: list[str] = ()) -> Path:
    """Write the comments, the header and text, rows as csv_rows makes
    them; bench/workloads.py passes an iterable of rows as text instead."""
    if not isinstance(text, str):
        text = csv_rows(*zip(*text))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in comments) + ",".join(header) + "\r\n")
        fh.write(text)
    return path


def csv_rows(*columns) -> str:
    """The CSV text of the rows of equally long columns (arrays or
    sequences), formatted _CSV_ROWS rows at a time, so that the Python
    objects of one chunk, not of every row, are alive at once."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join(["{}"] * len(columns)) + "\r\n"
    return "".join("".join(map(line.format, *(c[lo:lo + _CSV_ROWS].tolist() for c in columns)))
                   for lo in range(0, len(columns[0]) if columns else 0, _CSV_ROWS))


def spacetime_csv_rows(values: np.ndarray, idx: SpaceTimeIndexer) -> str:
    """(state, block, value) rows in flat-index order, as CSV text."""
    return csv_rows(*idx.unflat(np.arange(idx.size)), values)


def spatial_csv_rows(values: np.ndarray) -> str:
    """(state, value) rows as CSV text."""
    return csv_rows(np.arange(len(values)), values)
