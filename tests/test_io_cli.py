import csv
import gzip
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import ajc
from ajc import cli, galerkin, operators, presets
from ajc import io as ajcio
from ajc.cli import main
from ajc.galerkin import assemble
from ajc.generator import RateMatrixSequence, TimeGrid
from ajc.jumpchain import SpaceTimePoint, sample_trajectory
from ajc.operators import embed_spacelike, jump_activity, koopman_solve, synchronize

from conftest import STIFF_CYCLE, dense_rate_matrix

A, B = 0, 1


def write_config(tmp_path, config, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


TWO_STATE = {"generator": {"preset": "two-state"}}


class TestSave:
    def test_files_hold_the_matrix_and_survival(self, triple_well_J, tmp_path):
        J = triple_well_J
        mtx, header = ajcio.save_jump_matrix(J, tmp_path / "jm")
        back = scipy.io.mmread(mtx).tocsr()
        assert back.nnz == J.matrix.nnz
        assert (back != J.matrix).nnz == 0
        meta = json.loads(header.read_text())
        assert (meta["N"], meta["M"]) == (J.indexer.N, J.indexer.M)
        np.testing.assert_array_equal(meta["survival_mass"], J.survival_mass)

    @staticmethod
    def export_case(case):
        if case.startswith("random-edges"):
            # state 0 absorbing throughout, every other cell without rates
            rng = np.random.default_rng(23)
            edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, 6))])
            rates = rng.uniform(0.0, 3.0, (6, 4, 4)) * (rng.random((6, 4, 4)) < 0.6)
            rates[:, 0] = 0.0
            rates[1::2] = 0.0
            seq = RateMatrixSequence(TimeGrid(edges), tuple(map(dense_rate_matrix, rates)))
        elif case == "two-state":
            seq = presets.two_state()
        else:  # triple well at dt = 1/3 or 1/24
            seq = presets.triple_well(1 / int(case.rsplit("-", 1)[1]))
        return assemble(seq)

    @pytest.mark.parametrize("case", ["two-state", "triple-well-3", "triple-well-24",
                                      "random-edges", "random-edges-chunk-per-block"])
    def test_streamed_bytes_equal_mmwrite_of_the_matrix(self, case, tmp_path, caplog,
                                                        monkeypatch):
        J = self.export_case(case)
        if case.endswith("chunk-per-block"):
            monkeypatch.setattr(ajcio, "_CHUNK_ENTRIES", 1)
        with caplog.at_level(logging.INFO, logger="ajc"):
            mtx, _ = ajcio.save_jump_matrix(J, tmp_path / "jm")
        assert "matrix" not in vars(J)
        want = BytesIO()
        scipy.io.mmwrite(want, J.matrix, symmetry="general")
        assert mtx.read_bytes() == want.getvalue()
        if case.endswith("chunk-per-block"):
            chunks = J.indexer.M  # the last block, of cell 5 alone, has no entries
        else:
            chunks = 2 if case == "triple-well-24" else 1  # 258,720 entries
        assert (f"save_jump_matrix: nnz={J.matrix.nnz} in {chunks} chunks, "
                f"{mtx.stat().st_size} bytes written") in caplog.messages

    @pytest.mark.parametrize("case", ["two-state", "triple-well-3", "triple-well-24",
                                      "random-edges"])
    def test_block_rows_are_rows_of_the_matrix(self, case, tmp_path, monkeypatch):
        J = self.export_case(case)
        n, m = J.indexer.N, J.indexer.M
        exported = []
        block_rows = galerkin.JumpMatrix.block_rows
        monkeypatch.setattr(galerkin.JumpMatrix, "block_rows",
                            lambda J, a, b: exported.append((a, b)) or block_rows(J, a, b))
        ajcio.save_jump_matrix(J, tmp_path / "jm")
        monkeypatch.undo()
        A = J.matrix
        for a, b in {(m // 2, m // 2), (0, 1), (m - 1, m), (0, m), *exported}:
            got = J.block_rows(a, b)
            lo, hi = A.indptr[a * n], A.indptr[b * n]
            assert got.shape == A.shape
            for mine, want in ((got.data, A.data[lo:hi]), (got.indices, A.indices[lo:hi]),
                               (got.indptr, np.clip(A.indptr, lo, hi) - lo)):
                assert mine.dtype == want.dtype and mine.tobytes() == want.tobytes()

    def test_header_is_general_for_a_symmetric_matrix(self, tmp_path):
        # one cell, rate 1 both ways: the 2x2 matrix is symmetric
        seq = RateMatrixSequence(TimeGrid.uniform(0.0, 1.0, 1),
                                 (dense_rate_matrix([[0, 1.0], [1.0, 0]]),))
        mtx, _ = ajcio.save_jump_matrix(assemble(seq), tmp_path / "jm")
        lines = mtx.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        assert lines[2] == "2 2 2" and len(lines) == 5


class TestBuildSequence:
    def test_presets(self):
        seq = ajcio.build_sequence(TWO_STATE)
        assert seq.N == 2 and seq.grid.M == 8
        seq = ajcio.build_sequence({"generator": {"preset": "triple-well", "dt": 0.5}})
        assert seq.N == 63 and seq.grid.M == 4

    def test_sqra_type(self):
        config = {"generator": {
            "type": "sqra",
            "time_grid": {"t0": 0.0, "t1": 2.0, "cells": 4},
            "beta_schedule": [1.0, 1.0, 2.0, 2.0],
        }}
        seq = ajcio.build_sequence(config)
        assert seq.N == 63 and seq.grid.M == 4
        assert (seq.matrices[0] != seq.matrices[1]).nnz == 0
        assert (seq.matrices[1] != seq.matrices[2]).nnz > 0

    def test_files_type(self, tmp_path):
        Q = dense_rate_matrix([[0, 2.0], [0.5, 0]])
        for k in range(2):
            scipy.io.mmwrite(tmp_path / f"q{k}.mtx", Q)
        config = {"generator": {
            "type": "files",
            "time_grid": {"edges": [0.0, 1.0, 3.0]},
            "matrices": ["q0.mtx", "q1.mtx"],
        }}
        seq = ajcio.build_sequence(config, base_dir=tmp_path)
        assert seq.grid.M == 2
        np.testing.assert_allclose(seq.matrices[0].toarray(), Q.toarray())

    def test_no_generator_is_formed_on_the_way(self):
        # the pipeline reads each phase's R and q; Q is built only on request
        seq = ajcio.build_sequence({"generator": {"preset": "triple-well", "dt": 1 / 96}})
        J = assemble(seq)
        koopman_solve(J, np.ones(seq.N), J.indexer.M - 1)
        sample_trajectory(seq, SpaceTimePoint(20, 0.0), seq.grid.horizon, 1)
        assert "matrices" not in seq.__dict__

    def test_a_file_named_for_several_cells_is_one_phase(self, tmp_path, capsys):
        scipy.io.mmwrite(tmp_path / "q0.mtx", dense_rate_matrix([[0, 2.0], [0.5, 0]]))
        scipy.io.mmwrite(tmp_path / "q1.mtx", dense_rate_matrix([[0, -1.0], [0.5, 0]]))
        config = {"generator": {"type": "files", "time_grid": {"t0": 0.0, "t1": 4.0, "cells": 4},
                                "matrices": ["q0.mtx"] * 4}}
        seq = ajcio.build_sequence(config, base_dir=tmp_path)
        np.testing.assert_array_equal(seq.phase, [0, 0, 0, 0])
        assert len(assemble(seq).blocks) == 1
        config["generator"]["matrices"] = ["q0.mtx"] + ["q1.mtx"] * 3
        cfg = write_config(tmp_path, config)
        assert main(["koopman", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (f"config error: {tmp_path / 'q1.mtx'}: negativity "
                                           f"violation at matrix 1, row 0, col 1: 1.000e+00\n")

    def test_cli_resolves_files_against_the_config(self, tmp_path, monkeypatch):
        run, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
        run.mkdir()
        elsewhere.mkdir()
        for k in range(2):
            scipy.io.mmwrite(run / f"q{k}.mtx", dense_rate_matrix([[0, 2.0], [0.5, 0]]))
        write_config(run, {"generator": {
            "type": "files",
            "time_grid": {"edges": [0.0, 1.0, 3.0]},
            "matrices": ["q0.mtx", "q1.mtx"],
        }})
        monkeypatch.chdir(elsewhere)
        assert main(["assemble", "--config", "../run/run.json", "--out", "out"]) == 0
        assert (elsewhere / "out" / "jump_matrix.mtx").is_file()

    def test_errors(self, tmp_path):
        with pytest.raises(ajcio.ConfigError):
            ajcio.build_sequence({})
        with pytest.raises(ajcio.ConfigError):
            ajcio.build_sequence({"generator": {"preset": "nope"}})
        with pytest.raises(ajcio.ConfigError):
            ajcio.build_sequence({"generator": {
                "type": "sqra",
                "time_grid": {"t0": 0, "t1": 1, "cells": 2},
                "beta_schedule": [1.0],
            }})
        with pytest.raises(ajcio.ConfigError):
            ajcio.build_sequence({"generator": {
                "type": "files",
                "time_grid": {"edges": [0.0, 1.0]},
                "matrices": ["missing.mtx"],
            }}, base_dir=tmp_path)
        scipy.io.mmwrite(tmp_path / "q2.mtx", np.ones((2, 2)))
        scipy.io.mmwrite(tmp_path / "q3.mtx", np.ones((3, 3)))
        with pytest.raises(ajcio.ConfigError, match=r"^rate matrix .*q3\.mtx is \(3, 3\), "
                                                    r".*q2\.mtx is \(2, 2\)$"):
            ajcio.build_sequence({"generator": {
                "type": "files",
                "time_grid": {"edges": [0.0, 1.0, 2.0]},
                "matrices": ["q2.mtx", "q3.mtx"],
            }}, base_dir=tmp_path)
        scipy.io.mmwrite(tmp_path / "wide.mtx", np.ones((2, 3)))
        with pytest.raises(ajcio.ConfigError, match="wide.mtx is not square"):
            ajcio.build_sequence({"generator": {
                "type": "files",
                "time_grid": {"edges": [0.0, 1.0]},
                "matrices": ["wide.mtx"],
            }}, base_dir=tmp_path)


class TestParsers:
    def test_resolve_state(self):
        assert ajcio.resolve_state("A", 2) == 0
        assert ajcio.resolve_state("B", 2) == 1
        assert ajcio.resolve_state(5, 10) == 5
        with pytest.raises(ajcio.ConfigError):
            ajcio.resolve_state(5, 3)
        with pytest.raises(ajcio.ConfigError):
            ajcio.resolve_state("C", 2)

    def test_parse_set_mixed_forms(self):
        s = ajcio.parse_set([["B", 3], {"states": [0], "blocks": [0, 1]}], 2, 4)
        assert s.cells == {(1, 3), (0, 0), (0, 1)}
        assert ajcio.parse_set(None, 2, 4).cells == frozenset()
        with pytest.raises(ajcio.ConfigError, match="block 4 out of range"):
            ajcio.parse_set([["B", 4]], 2, 4)

    def test_parse_spatial_vector(self):
        for node, n, want in (({"ones": True}, 3, np.ones(3)),
                              ({"uniform": True}, 4, np.full(4, 0.25)),
                              ({"state": "B"}, 2, [0.0, 1.0]),
                              ([0.5, 0.5], 2, [0.5, 0.5])):
            np.testing.assert_array_equal(ajcio.parse_spatial_vector(node, n, "observable"), want)
        with pytest.raises(ajcio.ConfigError):
            ajcio.parse_spatial_vector([1.0], 2, "observable")
        with pytest.raises(ajcio.ConfigError):
            ajcio.parse_spatial_vector({"bogus": 1}, 2, "observable")
        with pytest.raises(ajcio.ConfigError, match="exactly one of .* got 'ones', 'state'"):
            ajcio.parse_spatial_vector({"ones": True, "state": 1}, 2, "observable")
        with pytest.raises(ajcio.ConfigError, match="exactly one of .* got none"):
            ajcio.parse_spatial_vector({}, 2, "observable")
        for form in ({"ones": False}, {"uniform": 1}, {"ones": "yes"}):
            with pytest.raises(ajcio.ConfigError, match="must be true"):
                ajcio.parse_spatial_vector(form, 2, "observable")


class TestCli:
    def test_assemble_reports_dimensions(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"generator": {"preset": "triple-well"}})
        assert main(["assemble", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "N=63 M=6 dimension=378 nnz=4620" in out
        assert (tmp_path / "jump_matrix.mtx").exists()
        assert (tmp_path / "jump_matrix.json").exists()

    def test_assemble_states_the_size_before_it_writes(self, tmp_path, capsys, monkeypatch):
        def full(J, path):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(ajcio, "save_jump_matrix", full)
        cfg = write_config(tmp_path, {"generator": {"preset": "triple-well"}})
        with pytest.raises(OSError, match="No space left"):
            main(["assemble", "--config", cfg, "--out", str(tmp_path)])
        assert capsys.readouterr().out == \
            "N=63 M=6 dimension=378 nnz=4620 sparsity=3.2334%\n"

    def test_assemble_builds_no_explicit_matrix(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "assemble", lambda seq: built.append(assemble(seq)) or built[-1])
        cfg = write_config(tmp_path, {"generator": {"preset": "triple-well", "dt": 1 / 24}})
        assert main(["assemble", "--config", cfg, "--out", str(tmp_path)]) == 0
        J, = built
        assert "matrix" not in vars(J) and "block_cumulative" not in vars(J)
        size = J.indexer.size
        assert (f"nnz={J.matrix.nnz} sparsity={J.matrix.nnz / size ** 2:.4%}"
                in capsys.readouterr().out)

    def test_linspace_edges_write_the_uniform_grids_bytes(self, tmp_path, caplog):
        # edges uniform to rounding give two phases two diagonal blocks,
        # and the outputs of the uniform grid to the byte
        outputs = []
        for time_grid in ({"edges": np.linspace(0, 2, 7).tolist()},
                          {"t0": 0, "t1": 2, "cells": 6}):
            generator = {"type": "sqra", "time_grid": time_grid,
                         "beta_schedule": [1, 1, 1, 10, 10, 10]}
            sets = {"set_a": {"states": [20], "blocks": [0, 5]},
                    "set_b": {"states": [24], "blocks": [0, 5]}}
            out = tmp_path / str(len(outputs))
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="ajc"):
                for command, extra in (("koopman", {}), ("committor", sets)):
                    cfg = write_config(tmp_path, {"generator": generator, **extra})
                    assert main([command, "--config", cfg, "--out", str(out)]) == 0
            assert [m for m in caplog.messages if m.startswith("assemble:")] == 2 * [
                "assemble: N=63 M=6 phases=2 diagonal blocks=2 kernels=dense"]
            outputs.append([(out / name).read_bytes()
                            for name in ("koopman.csv", "committor.csv")])
        assert outputs[0] == outputs[1]

    def test_sample(self, tmp_path):
        cfg = write_config(tmp_path, {
            **TWO_STATE, "initial": {"state": "A"}, "n_trajectories": 20,
        })
        assert main(["sample", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "5"]) == 0
        lines = (tmp_path / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "trajectory,state_index,jump_time"
        assert len(lines) > 20
        hist = (tmp_path / "final_state_histogram.csv").read_text().splitlines()
        counts = [int(r.split(",")[1]) for r in hist[1:]]
        assert sum(counts) == 20

    def test_sample_a_wait_below_half_an_ulp(self, tmp_path):
        # rate 1e17 from t = 0.5: each jump is at the next float after 0.5
        scipy.io.mmwrite(tmp_path / "q0.mtx", dense_rate_matrix([[0, 1e17], [0, 0]]))
        cfg = write_config(tmp_path, {
            "generator": {"type": "files", "time_grid": {"edges": [0.0, 1.0]},
                          "matrices": ["q0.mtx"]},
            "initial": {"state": 0, "time": 0.5}, "n_trajectories": 3})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path), "--seed", "1"]) == 0
        after = repr(math.nextafter(0.5, math.inf))
        assert (tmp_path / "trajectories.csv").read_text().splitlines()[1:] == [
            row for tid in range(3) for row in (f"{tid},0,0.5", f"{tid},1,{after}")]

    def test_propagate_conserves_mass(self, tmp_path):
        cfg = write_config(tmp_path, {
            **TWO_STATE, "initial_density": {"state": "A"},
        })
        assert main(["propagate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "density.csv").read_text().splitlines()
        mass = [float(r.split(",")[1]) for r in rows if not r.startswith(("#", "state"))]
        assert sum(mass) == pytest.approx(1.0, abs=1e-9)

    def test_propagate_writes_the_scan_of_its_density(self, tmp_path):
        # one density is scanned: its activity, synchronized, to the byte
        cfg = write_config(tmp_path, {"generator": {"preset": "triple-well", "dt": 1 / 12},
                                      "initial_density": {"uniform": True}})
        assert main(["propagate", "--config", cfg, "--out", str(tmp_path)]) == 0
        seq = presets.triple_well(1 / 12)
        J = assemble(seq)
        n, last = seq.N, seq.grid.M - 1
        a, _ = jump_activity(J, embed_spacelike(np.full(n, 1.0 / n), J.indexer))
        want = ajcio.write_csv(tmp_path / "want.csv", ["state", "mass"],
                               ajcio.spatial_csv_rows(synchronize(J, a, last)),
                               comments=[f"block={last} edge_time={seq.grid.edges[-1]}"])
        assert (tmp_path / "density.csv").read_bytes() == want.read_bytes()

    def test_koopman_ones(self, tmp_path):
        cfg = write_config(tmp_path, {**TWO_STATE, "observable": {"ones": True}})
        assert main(["koopman", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "koopman.csv").read_text().splitlines()
        vals = [float(r.split(",")[2]) for r in rows if not r.startswith(("#", "state"))]
        assert max(abs(v - 1.0) for v in vals) < 1e-10

    def test_committor_and_coherence(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TWO_STATE, "set_a": [["B", 7]], "set_b": [["A", 7]]})
        assert main(["committor", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "committor.csv").read_text().splitlines()
        assert any(r.startswith("1,7,1.0") for r in rows)
        cfg = write_config(tmp_path, {
            **TWO_STATE, "set_c": {"states": ["A", "B"], "blocks": [0, 7]}, "count_survival": True,
        })
        assert main(["coherence", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "min_slack=" in out and "violation_mass=0" in out

    def test_convergence(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **TWO_STATE, "dt_list": [1.0, 0.5],
        })
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "convergence.csv").read_text()
        assert text.startswith("# loglog_slope=")

    def test_usage_error_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["koopman"]) == 1

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_STATE)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == \
            "usage error: argument --seed: must be an integer >= 0, got '-1'\n"

    def test_a_seed_that_is_no_integer_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_STATE)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path), "--seed", "abc"]) == 1
        assert capsys.readouterr().err == \
            "usage error: argument --seed: must be an integer >= 0, got 'abc'\n"

    def test_seed_on_a_command_that_draws_nothing_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_STATE)
        assert main(["koopman", "--config", cfg, "--out", str(tmp_path), "--seed", "3"]) == 1
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --seed 3\n"
        assert not (tmp_path / "koopman.csv").exists()

    def test_unknown_log_level_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AJC_LOG", "bogus")
        cfg = write_config(tmp_path, TWO_STATE)
        assert main(["koopman", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            "usage error: AJC_LOG must name a logging level such as INFO or DEBUG, got 'bogus'\n"

    def test_config_error_exit_2(self, tmp_path):
        assert main(["assemble", "--config", str(tmp_path / "absent.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["assemble", "--config", str(bad)]) == 2
        cfg = write_config(tmp_path, {"generator": {"preset": "bogus"}})
        assert main(["assemble", "--config", cfg]) == 2
        # no rate is defined before the grid starts
        cfg = write_config(tmp_path, {**TWO_STATE, "initial": {"time": -3.0}})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("case", ["directory", "gzip"])
    def test_an_unreadable_config_exit_2(self, tmp_path, capsys, case):
        cfg = tmp_path / "run.json.gz"
        if case == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(gzip.compress(json.dumps(TWO_STATE).encode()))
        assert main(["koopman", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg}: ") and "Traceback" not in err

    @pytest.mark.parametrize("case", ["a-file", "under-a-file"])
    def test_an_out_that_is_no_directory_exit_1(self, tmp_path, capsys, case):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / ("sub" if case == "under-a-file" else "")
        cfg = write_config(tmp_path, TWO_STATE)
        assert main(["koopman", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --out {out} cannot be made a directory: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, extra, token", [
        ("koopman", {"observable": {"state": "B"}}, "B"),
        ("propagate", {"initial_density": {"state": "A"}}, "A"),
        ("committor", {"set_a": [["A", 0]], "set_b": [[24, 0]]}, "A"),
        ("coherence", {"set_c": {"states": [20, "B"], "blocks": [0, 5]}}, "B"),
        ("sample", {"initial": {"state": "A"}}, "A"),
    ], ids=["koopman", "propagate", "committor", "coherence", "sample"])
    def test_state_names_belong_to_the_two_state_preset(self, tmp_path, capsys, command,
                                                         extra, token):
        cfg = write_config(tmp_path, {"generator": {"preset": "triple-well"}, **extra})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (f"config error: state name {token!r}: only the "
                                           f"two-state preset names its states\n")
        assert list(tmp_path.glob("*.csv")) == []

    def test_a_two_state_files_generator_refuses_state_names(self, tmp_path, capsys):
        for k in range(2):
            scipy.io.mmwrite(tmp_path / f"q{k}.mtx", dense_rate_matrix([[0, 2.0], [0.5, 0]]))
        cfg = write_config(tmp_path, {"generator": {
            "type": "files", "time_grid": {"edges": [0, 1, 2]}, "matrices": ["q0.mtx", "q1.mtx"]},
            "set_a": [["A", 1]], "set_b": [[1, 1]]})
        assert main(["committor", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "state name 'A': only the two-state preset" in capsys.readouterr().err

    def test_files_with_a_negative_rate_exit_2(self, tmp_path, capsys):
        scipy.io.mmwrite(tmp_path / "q0.mtx", dense_rate_matrix([[0, -1.0], [2.0, 0]]))
        scipy.io.mmwrite(tmp_path / "q1.mtx", dense_rate_matrix([[0, 1.0], [1.0, 0]]))
        cfg = write_config(tmp_path, {"generator": {
            "type": "files",
            "time_grid": {"edges": [0.0, 1.0, 2.0]},
            "matrices": ["q0.mtx", "q1.mtx"],
        }})
        for command in ("koopman", "propagate"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == (f"config error: {tmp_path / 'q0.mtx'}: negativity "
                                               f"violation at matrix 0, row 0, col 1: 1.000e+00\n")

    def test_files_with_an_overflowing_row_exit_2(self, tmp_path, capsys):
        # finite rates whose sum, the outbound rate, overflows
        rates = np.array([[0, 1.0, 0], [1e308, 0, 1e308], [1.0, 0, 0]])
        scipy.io.mmwrite(tmp_path / "q0.mtx", sp.csr_matrix(np.minimum(rates, 1.0)))
        scipy.io.mmwrite(tmp_path / "q1.mtx", sp.csr_matrix(rates))
        cfg = write_config(tmp_path, {"generator": {
            "type": "files",
            "time_grid": {"edges": [0.0, 1.0, 2.0]},
            "matrices": ["q0.mtx", "q1.mtx"],
        }})
        assert main(["koopman", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {tmp_path / 'q1.mtx'}: rowsum violation at matrix 1, row 1: inf\n"

    def test_an_overflowing_beta_is_named_in_full(self, tmp_path, capsys):
        # every rate of the beta that overflows, under its source, in order
        pot = presets.triple_well_grid_potential()
        adj, v = pot.adjacency.as_scipy().tocoo(), pot.values
        want = "; ".join(f"sqra rates at beta 1e+300: nonfinite violation at matrix 0, "
                         f"row {i}, col {j}: inf" for i, j in zip(adj.row, adj.col) if v[j] < v[i])
        cfg = write_config(tmp_path, {"generator": {
            "type": "sqra", "beta_schedule": [1e300], "time_grid": {"t0": 0, "t1": 2, "cells": 1}}})
        assert main(["koopman", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {want}\n"

    def test_a_cell_width_whose_square_overflows_exit_2(self, tmp_path):
        # the closed forms hold dt^2: 5e299 squared is refused by the grid,
        # before any solve warns of an overflow
        cfg = write_config(tmp_path, {"generator": {
            "type": "sqra", "beta_schedule": [1, 10], "time_grid": {"t0": 0, "t1": 1e300, "cells": 2}}})
        argv = [sys.executable, "-m", "ajc.cli", "koopman", "--config", cfg, "--out", str(tmp_path)]
        env = dict(os.environ, PYTHONPATH=str(Path(ajc.__file__).resolve().parents[1]))
        env.pop("AJC_LOG", None)
        res = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert res.returncode == 2
        assert res.stderr == ("config error: time_grid: time grid cell width 5e+299 is too wide: "
                              "its square overflows\n")

    def test_a_file_of_no_states_exit_2(self, tmp_path, capsys):
        scipy.io.mmwrite(tmp_path / "q0.mtx", sp.csr_matrix((0, 0)))
        cfg = write_config(tmp_path, {"generator": {
            "type": "files", "time_grid": {"edges": [0.0, 1.0]}, "matrices": ["q0.mtx"]}})
        assert main(["koopman", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (f"config error: rate matrix {tmp_path / 'q0.mtx'}: "
                                           f"a protocol needs at least one state\n")

    def test_a_bad_phase_is_reported_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"generator": {
            "type": "sqra", "beta_schedule": [1.0] + [1e300] * 6,
            "time_grid": {"t0": 0, "t1": 2, "cells": 7}}})
        assert main(["koopman", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        # every one of the 220 rates is an inf or a zero; the zeros are dropped
        assert err.count("sqra rates at beta 1e+300: nonfinite violation at matrix 1,") == 110
        assert err.count("violation") == 110

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_files_with_a_nonfinite_rate_exit_2(self, tmp_path, capsys, rate):
        scipy.io.mmwrite(tmp_path / "q0.mtx", dense_rate_matrix([[0, 1.0], [1.0, 0]]))
        scipy.io.mmwrite(tmp_path / "q1.mtx", dense_rate_matrix([[0, 1.0], [float(rate), 0]]))
        cfg = write_config(tmp_path, {"generator": {
            "type": "files",
            "time_grid": {"edges": [0.0, 1.0, 2.0]},
            "matrices": ["q0.mtx", "q1.mtx"],
        }})
        assert main(["koopman", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "q1.mtx: nonfinite violation" in err and "row 1, col 0" in err
        assert "q0.mtx" not in err

    @pytest.mark.parametrize("command, config, named", [
        ("committor", {**TWO_STATE, "set_A": [["B", 7]], "set_b": [["A", 7]]}, "'set_A'"),
        ("assemble", {**TWO_STATE, "block": 3}, "'block'"),
        ("sample", {**TWO_STATE, "initial": {"stat": "B"}}, "'stat'"),
        ("koopman", {"generator": {"preset": "two-state", "beta_schedule": [1]}},
         "'beta_schedule'"),
        ("koopman", {"generator": {"type": "sqra", "betas": [1] * 6,
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 6}}}, "'betas'"),
        ("koopman", {"generator": {"type": "files", "time_grid": {"edges": [0, 1]},
                                   "matrices": ["q0.mtx"], "matrix": "q0.mtx"}}, "'matrix'"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cell": 1}}}, "'cell'"),
        ("convergence", {"generator": {"preset": "two-state", "dt": 0.5},
                         "dt_list": [1.0, 0.5]}, "'dt'"),
    ])
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, command, config, named):
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err and named in err

    @pytest.mark.parametrize("command, extra, named", [
        ("koopman", {"block": 8}, "block 8 out of range [0, 8)"),
        ("propagate", {"block": "last"}, "block must be a number"),
        ("committor", {"set_a": [["B", 8]], "set_b": [["A", 7]]}, "block 8 out of range"),
        ("committor", {"set_a": [["B", 7]], "set_b": [["A", 7], ["B", 7]]}, "share the cells"),
        ("committor", {"set_a": [["B", 7]], "set_b": [["A", 7]], "tail": "absorb_to_C"},
         "tail must be"),
        ("committor", {"set_a": [["B", 7]], "set_b": [["A", 7]], "tail": 1.5}, "tail must be"),
        ("coherence", {"set_c": {"states": ["A"], "blocks": [0]}}, "list of 2"),
        ("sample", {"horizon": 9.0}, "grid horizon 8.0"),
        ("koopman", {"observable": ["x", 1]}, "list of numbers"),
        ("assemble", {"generator": {"preset": "two-state", "dt": 0}}, "does not divide"),
        ("convergence", {"dt_list": 5}, "nonempty list 'dt_list'"),
        ("convergence", {"dt_list": [1.0, None]}, "dt_list entry must be a number"),
        ("convergence", {"dt_list": [0.5, 1.0, 0.25]}, "dt=1 follows 0.5"),
        ("convergence", {"dt_list": [1.0, 0.3]}, "dt=0.3 does not divide the switch time 4"),
        ("koopman", {"observable": {"ones": True, "state": 1}}, "got 'ones', 'state'"),
        ("koopman", {"block": 2.7}, "block must be an integer, got 2.7"),
        ("propagate", {"block": True}, "block must be a number, got True"),
        ("sample", {"initial": {"state": True}}, "state must be a number, got True"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0, 1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 2.5}}},
         "cells must be an integer, got 2.5"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 1},
                                   "potential": [0.0, 1.0], "nx": 2.5, "ny": 1, "h": 1.0}},
         "nx must be an integer, got 2.5"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": False, "t1": 2, "cells": 1}}},
         "t0 must be a number, got False"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 1},
                                   "potential": [0.0, 1.0], "nx": 2, "ny": 1, "h": True}},
         "h must be a number, got True"),
        ("committor", {"set_a": [["B", 7]], "set_b": [["A", 7]], "tail": True}, "tail must be"),
        ("sample", {"n_trajectories": -3}, "n_trajectories must be positive, got -3"),
        ("sample", {"n_trajectories": 1.5}, "n_trajectories must be an integer, got 1.5"),
        ("coherence", {"set_c": [["A", 0]], "count_survival": "no"},
         "count_survival must be true or false, got 'no'"),
        ("koopman", {"observable": [float("nan"), 1.0]}, "observable must be finite"),
        ("propagate", {"initial_density": [1e400, 0.0]}, "initial_density must be finite"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1e300],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 1}}},
         "sqra rates at beta 1e+300: nonfinite violation"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 1},
                                   "potential": [float("nan"), 1.0], "nx": 2, "ny": 1, "h": 1.0}},
         "potential must be finite: entry 0 is nan"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"edges": [False, 2.0]}}},
         "time_grid edges must be a list of numbers, got [False, 2.0]"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"edges": ["0", "2"]}}},
         "time_grid edges must be a list of numbers, got ['0', '2']"),
        ("convergence", {"dt_list": [1, 1]}, "dt_list must be strictly descending: dt=1 follows 1"),
        ("convergence", {"dt_list": [2, 1, 1]}, "dt=1 follows 1"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 1},
                                   "potential": [0.0, 1.0], "nx": -1, "ny": -2, "h": 1.0}},
         "sqra potential: grid sizes nx and ny must be positive, got nx=-1, ny=-2"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 1},
                                   "potential": [], "nx": 0, "ny": 0, "h": 1.0}},
         "sqra potential: grid sizes nx and ny must be positive, got nx=0, ny=0"),
        ("committor", {"set_a": [["B", 7]], "set_b": {"states": [1], "blocks": [7, 0]}},
         "set B blocks [7, 0] are reversed"),
        ("coherence", {"set_c": {"states": [0], "blocks": [5, 2]}},
         "set C blocks [5, 2] are reversed"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 1},
                                   "potential": [0.0, 1.0, 2.0, 3.0], "nx": 2, "ny": 2,
                                   "h": float("inf")}},
         "sqra potential: cell size h must be positive and finite, got h=inf"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 1},
                                   "potential": [0.0, 1.0, 2.0, 3.0], "nx": 2, "ny": 2,
                                   "h": float("nan")}},
         "sqra potential: cell size h must be positive and finite, got h=nan"),
        ("committor", {"set_a": [["B", 7]], "set_b": [["A", 7]], "tail": "0.5"},
         "a number in [0, 1], got '0.5'"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"edges": [0, 1], "cells": 3}}},
         "not both: got 'cells', 'edges'"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"edges": [0, 1], "t0": 5}}},
         "not both: got 'edges', 't0'"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1, 10],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 2},
                                   "nx": 5, "h": 3.0}},
         "built-in triple-well potential key 'h', 'nx'; allowed: beta_schedule"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1, 10],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 2},
                                   "potential": "triple-well", "ny": 2}},
         "built-in triple-well potential key 'ny'; allowed: beta_schedule"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1, 10],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 2},
                                   "potential": "double-well"}},
         "sqra potential must be 'triple-well' or a list of numbers, got 'double-well'"),
        # grids whose edges numpy refuses at once, so nothing is allocated
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 1e15}}},
         "time_grid: 1e+15 cells are more than numpy can allocate"),
        ("koopman", {"generator": {"preset": "two-state", "dt": 1e-300}},
         "preset 'two-state': dt=1e-300: 8e+300 cells are more than numpy can allocate"),
        # a dt so small that the cell count is infinite
        ("koopman", {"generator": {"preset": "two-state", "dt": 1e-320}},
         "preset 'two-state': dt=1e-320: inf cells are more than numpy can allocate"),
        ("koopman", {"generator": {"preset": "triple-well", "dt": 1e-320}},
         "preset 'triple-well': dt=1e-320: inf cells are more than numpy can allocate"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1, 10],
                                   "time_grid": {"t0": 0, "t1": float("inf"), "cells": 2}}},
         "time_grid: t1 must be finite, got inf"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1, 10],
                                   "time_grid": {"t0": -float("inf"), "t1": 1, "cells": 2}}},
         "time_grid: t0 must be finite, got -inf"),
        # a type that is no string cannot name a generator
        ("koopman", {"generator": {"type": ["sqra"]}},
         "generator needs a 'preset' or a known 'type'"),
        ("koopman", {"generator": {"type": {}}}, "generator needs a 'preset' or a known 'type'"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 1},
                                   "potential": [0.0, 1.0, 2.0, 3.0], "nx": 2, "ny": 2,
                                   "h": 1e300}},
         "sqra potential: cell size h=1e+300 is too large: its square overflows"),
        ("koopman", {"generator": 5}, "generator must be a JSON object, got 5"),
        ("sample", {"initial": 5}, "initial must be a JSON object, got 5"),
        ("koopman", {"generator": {"type": "sqra", "time_grid": {"t0": 0, "t1": 2, "cells": 1}}},
         "sqra generator needs 'beta_schedule'"),
        ("koopman", {"observable": [[1, 2], 3]},
         "observable must be a list of numbers, got [[1, 2], 3]"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                   "time_grid": {"t0": 0, "t1": 2}}},
         "time_grid needs 'edges' or 't0'/'t1'/'cells': missing 'cells'"),
        ("koopman", {"generator": {"type": "sqra", "beta_schedule": [1.0, -1.0],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 2}}},
         "beta_schedule entries must be positive, got [1.0, -1.0]"),
        ("koopman", {"generator": {"type": "files", "matrices": ["q0.mtx"],
                                   "time_grid": {"t0": 0, "t1": 2, "cells": 2}}},
         "need one matrix file per time cell"),
        ("convergence", {"generator": {"type": "sqra", "beta_schedule": [1.0],
                                       "time_grid": {"t0": 0, "t1": 2, "cells": 1}},
                         "dt_list": [1.0]},
         "convergence requires a 'two-state' or 'triple-well' preset"),
    ])
    def test_malformed_value_exit_2(self, tmp_path, capsys, command, extra, named):
        cfg = write_config(tmp_path, {**TWO_STATE, **extra})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("count", [1e300, sys.maxsize + 1, 10 ** 400],
                             ids=["1e300", "maxsize-plus-one", "beyond-float"])
    def test_more_trajectories_than_a_list_holds_exit_2(self, tmp_path, capsys, monkeypatch,
                                                        count):
        # refused before the first trajectory: such a config is never run
        def never(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(cli, "sample_trajectory", never)
        cfg = write_config(tmp_path, {**TWO_STATE, "n_trajectories": count})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"n_trajectories must be at most {sys.maxsize}, got" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "koopman_solve", broken)
        cfg = write_config(tmp_path, TWO_STATE)
        with pytest.raises(ValueError, match="internal"):
            main(["koopman", "--config", cfg, "--out", str(tmp_path)])

    def test_convergence_solver_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "convergence_study", broken)
        cfg = write_config(tmp_path, {**TWO_STATE, "dt_list": [1.0, 0.5]})
        with pytest.raises(ValueError, match="internal"):
            main(["convergence", "--config", cfg, "--out", str(tmp_path)])

    def test_readme_configs_pass(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for k in range(2):
            scipy.io.mmwrite(tmp_path / f"q{k}.mtx", dense_rate_matrix([[0, 2.0], [0.5, 0]]))
        configs = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(configs) == 3
        for n, text in enumerate(configs):
            cfg = write_config(tmp_path, json.loads(text), f"readme{n}.json")
            assert main(["assemble", "--config", cfg, "--out", str(tmp_path / str(n))]) == 0

    def test_readme_states_the_size_rule_and_border_limit(self):
        readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
        assert f"up to {galerkin._DENSE_MAX} states these are dense" in readme
        assert f"above {galerkin._DENSE_MAX} states they are sparse" in readme
        assert f"up to {operators._BORDER_MAX} per block on sparse records" in readme
        assert "on dense records every masked block is solved on an LU of its free cells" in readme

    def test_info_log_reports_sizes_and_factorizations(self, tmp_path):
        cfg = write_config(tmp_path, {"generator": {"preset": "triple-well"}})
        argv = [sys.executable, "-m", "ajc.cli", "koopman", "--config", cfg, "--out", str(tmp_path)]
        env = dict(os.environ, PYTHONPATH=str(Path(ajc.__file__).resolve().parents[1]))
        err = subprocess.run(argv, env={**env, "AJC_LOG": "INFO"}, capture_output=True,
                             text=True, check=True).stderr
        assert "assemble: N=63 M=6 phases=2 diagonal blocks=2" in err
        assert ("solve_backward: 6 blocks solved against 2 LU factorizations built, 0 reused; "
                "0 cells by 0 transfer runs with 0 squarings, 6 by the per-cell step; "
                "0 borders of 0 fixed cells, 0 masked factorizations") in err
        env.pop("AJC_LOG", None)
        quiet = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        assert quiet.stderr == ""
        cfg = write_config(tmp_path, {**TWO_STATE, "n_trajectories": 3})
        argv = [sys.executable, "-m", "ajc.cli", "sample", "--config", cfg, "--out", str(tmp_path)]
        err = subprocess.run(argv, env={**env, "AJC_LOG": "INFO"}, capture_output=True,
                             text=True, check=True).stderr
        assert re.search(r"sample: 3 trajectories, \d+ jumps in \d+\.\d{3} s "
                         r"\(\d+ jumps/s\)", err)

    def test_commands_load_only_the_scipy_modules_they_run(self, tmp_path):
        # a fresh interpreter, since this one has imported all of scipy already
        tw = {"generator": {"preset": "triple-well"}}
        side = 13  # 169 states, above the dense size rule
        assert side * side > galerkin._DENSE_MAX
        grid = {"generator": {"type": "sqra", "time_grid": {"t0": 0, "t1": 2, "cells": 2},
                              "beta_schedule": [1, 10], "nx": side, "ny": side, "h": 0.3,
                              "potential": np.sin(np.arange(side * side)).tolist()}}
        sample = ["sample", "--config", write_config(tmp_path, {
            **tw, "initial": {"state": 0}, "n_trajectories": 5}, "s.json"), "--seed", "7"]
        runs = [sample + ["--out", "out"],
                ["coherence", "--config", write_config(tmp_path, {**tw, "set_c": [[20, 0]]},
                                                       "c.json"), "--out", "out"],
                ["koopman", "--config", write_config(tmp_path, tw, "k.json"), "--out", "out"],
                ["assemble", "--config", write_config(tmp_path, tw, "a.json"), "--out", "out"],
                ["koopman", "--config", write_config(tmp_path, grid, "g.json"), "--out", "out"]]
        script = ("import json, sys\n"
                  "import ajc.cli\n"
                  "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                  "seen = [loaded()]\n"
                  f"for argv in {runs!r}:\n"
                  "    assert ajc.cli.main(argv) == 0\n"
                  "    seen.append(loaded())\n"
                  "print(json.dumps(seen))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(ajc.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                             capture_output=True, text=True, check=True).stdout
        seen = [set(s) for s in json.loads(out.splitlines()[-1])]
        after_import, after_sample, after_coherence, after_koopman = seen[:4]
        assert after_import == after_sample == after_coherence == set()
        assert "scipy.linalg" in after_koopman and "scipy.sparse" not in after_koopman
        after_assemble, after_grid = seen[4:]
        assert {"scipy.io", "scipy.sparse"} <= after_assemble
        assert "scipy.sparse.linalg" not in after_assemble
        assert "scipy.sparse.linalg" in after_grid
        # the fresh process samples the bytes this one does
        assert main(sample + ["--out", str(tmp_path / "here")]) == 0
        digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest(tmp_path / "out" / "trajectories.csv") == \
            digest(tmp_path / "here" / "trajectories.csv")

    @pytest.mark.parametrize("command, config, key", [
        ("committor", {"set_a": [], "set_b": []}, "set_a"),
        ("committor", {"set_b": [["A", 7]]}, "set_a"),
        ("coherence", {"set_c": []}, "set_c"),
    ], ids=["committor", "committor-no-set_a", "coherence"])
    def test_an_empty_target_set_exits_2(self, tmp_path, capsys, command, config, key):
        cfg = write_config(tmp_path, {**TWO_STATE, **config})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} is empty")
        assert list(tmp_path.glob("*.csv")) == []

    def test_coherence_logs_no_solve(self, tmp_path, monkeypatch, caplog):
        # the pull of the indicator is the backward scan that solves nothing
        monkeypatch.setenv("AJC_LOG", "INFO")
        cfg = write_config(tmp_path, {"generator": {"preset": "triple-well"},
                                      "set_c": {"states": [20, 19, 21], "blocks": [0, 5]}})
        with caplog.at_level(logging.INFO, logger="ajc"):
            assert main(["coherence", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert caplog.messages == [
            "assemble: N=63 M=6 phases=2 diagonal blocks=2 kernels=dense"]

    def test_a_refused_stiff_cycle_exits_3(self, tmp_path, capsys):
        scipy.io.mmwrite(tmp_path / "q0.mtx", dense_rate_matrix(STIFF_CYCLE))
        cfg = write_config(tmp_path, {"generator": {
            "type": "files", "time_grid": {"edges": [0.0, 1.0]}, "matrices": ["q0.mtx"]}})
        assert main(["propagate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("solver error: diagonal block residual ")
        assert not (tmp_path / "density.csv").exists()

    def test_outputs_are_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, {
            **TWO_STATE, "initial": {"state": "A"}, "n_trajectories": 10,
        })
        texts = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert main(["sample", "--config", cfg, "--out", str(out),
                         "--seed", "11"]) == 0
            texts.append((out / "trajectories.csv").read_bytes())
        assert texts[0] == texts[1]


class TestCsvRows:
    @staticmethod
    def csv_writer_bytes(path, header, rows, comments=()):
        with open(path, "w", newline="") as fh:
            for line in comments:
                fh.write(f"# {line}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return path.read_bytes()

    def test_rows_are_the_bytes_of_csv_writer(self, tmp_path):
        # the pinned configs' solves, and values whose repr is unusual
        J = assemble(presets.triple_well(1 / 24))
        n, m = J.indexer.N, J.indexer.M
        special = np.array([-0.0, 1e-300, 1e300, np.inf, -np.inf, np.nan, 5e-324, 0.1, 1 / 3])
        spacetime = [koopman_solve(J, np.arange(n) % 5.0, 35).values,
                     np.resize(special, J.indexer.size)]
        spatial = [synchronize(J, jump_activity(J, embed_spacelike(np.full(n, 1 / n),
                                                                   J.indexer))[0], 30),
                   special]
        header, comments = ["state", "block", "value"], ["terminal_block=35", "tail=0.5"]
        for v in spacetime:
            want = self.csv_writer_bytes(tmp_path / "want.csv", header, zip(
                np.tile(np.arange(n), m).tolist(), np.repeat(np.arange(m), n).tolist(),
                v.tolist()), comments)
            got = ajcio.write_csv(tmp_path / "got.csv", header,
                                  ajcio.spacetime_csv_rows(v, J.indexer), comments)
            assert got.read_bytes() == want
        for v in spatial:
            want = self.csv_writer_bytes(tmp_path / "want.csv", ["state", "mass"],
                                         enumerate(v.tolist()))
            got = ajcio.write_csv(tmp_path / "got.csv", ["state", "mass"],
                                  ajcio.spatial_csv_rows(v))
            assert got.read_bytes() == want
        assert b"-0.0\r\n" in got.read_bytes() and b",nan\r\n" in got.read_bytes()
        # the CLI's other tables: trajectories, the final-state histogram,
        # coherence and convergence, with the columns cmd_sample,
        # cmd_coherence and cmd_convergence pass
        states = [np.array([3, 0, 2]), np.array([1]), np.array([4, 4 + n])]
        times = [np.array([0.0, 5e-324, 0.1]), np.array([-0.0]), np.array([1e300, np.inf])]
        want = self.csv_writer_bytes(tmp_path / "want.csv", ["trajectory", "state_index",
                                                             "jump_time"],
                                     [(tid, i, t) for tid, (s, w) in enumerate(zip(states, times))
                                      for i, t in zip(s.tolist(), w.tolist())])
        got = ajcio.write_csv(tmp_path / "got.csv", ["trajectory", "state_index", "jump_time"],
                              ajcio.csv_rows(np.repeat(np.arange(3), [len(s) for s in states]),
                                             np.concatenate(states), np.concatenate(times)))
        assert got.read_bytes() == want
        counts = np.bincount([2, 0, 2, 6], minlength=n)
        want = self.csv_writer_bytes(tmp_path / "want.csv", ["state_index", "count"],
                                     enumerate(counts.tolist()))
        got = ajcio.write_csv(tmp_path / "got.csv", ["state_index", "count"],
                              ajcio.spatial_csv_rows(counts))
        assert got.read_bytes() == want
        header = ["min_slack", "violation_mass", "count_survival"]
        for row in ((-0.0, np.nan, True), (-np.inf, 5e-324, False), (1 / 3, np.inf, True)):
            want = self.csv_writer_bytes(tmp_path / "want.csv", header, [row])
            got = ajcio.write_csv(tmp_path / "got.csv", header,
                                  ajcio.csv_rows(*([value] for value in row)))
            assert got.read_bytes() == want
        header, comments = ["dt", "epsilon_2norm", "epsilon_frobenius"], ["loglog_slope=1.0309"]
        rows = [(1 / 3, 0.1, -0.0), (1 / 6, np.nan, np.inf), (1 / 12, 5e-324, -np.inf)]
        want = self.csv_writer_bytes(tmp_path / "want.csv", header, rows, comments)
        got = ajcio.write_csv(tmp_path / "got.csv", header, ajcio.csv_rows(*zip(*rows)),
                              comments)
        assert got.read_bytes() == want
        # rows as bench/workloads.py passes them, each time as its repr
        rows = [(0, 3, repr(0.0)), (0, 1, repr(5e-324)), (1, 2, repr(-0.0))]
        want = self.csv_writer_bytes(tmp_path / "want.csv", header, rows)
        assert ajcio.write_csv(tmp_path / "got.csv", header, rows).read_bytes() == want

    @pytest.mark.parametrize("size", [0, 1, 2047, 2048, 2049, 6145])
    def test_rows_across_chunks(self, size):
        # the text is formatted 2,048 rows at a time; every size around a
        # chunk's end gives the one-join text
        v = np.random.default_rng(size).standard_normal(size)
        assert ajcio.spatial_csv_rows(v) == "".join(f"{i},{x!r}\r\n"
                                                    for i, x in enumerate(v.tolist()))
        for n in (1, 7, 64):
            idx = galerkin.SpaceTimeIndexer(n, -(-size // n))
            w = np.resize(v, idx.size)
            assert ajcio.spacetime_csv_rows(w, idx) == "".join(
                f"{f % n},{f // n},{x!r}\r\n" for f, x in enumerate(w.tolist()))


class TestPinnedOutputs:
    # sha256 of each output of the triple well at dt = 1/24, recorded before
    # J's (N, M) closed-form tables were dropped for its block records; the
    # sparse run puts every record on CSR kernels, so both branches of
    # JumpMatrix.block_rows and of the solves are pinned.  The dense
    # committor and the three sparse solves were renewed when SuperLU's
    # supernode settings and the border's P = W W[c]^-1 moved their last bits,
    # and the dense committor again when dense blocks stopped being bordered
    CONFIGS = {
        "assemble": {},
        "koopman": {"observable": [i % 5 for i in range(63)], "block": 35},
        "committor": {"set_a": [{"states": [19, 20, 21], "blocks": [0, 47]}],
                      "set_b": [{"states": [24], "blocks": [24, 47]}, [23, 10]]},
        "propagate": {"initial_density": {"uniform": True}, "block": 30},
    }
    EXPORT = {
        "jump_matrix.mtx": "db7ee8885a146a94b7a3acd4be82ffc92fcaa5d0b70dd78935042b3daa7afa62",
        "jump_matrix.json": "d6db8c86a55ade3acbe6903e88af770af4099a7b4f7d399caf0fad363e4f3ae5",
    }
    SOLVES = {
        "dense": {
            "koopman.csv": "4a40b59dd2fd0e0453bdffc050ce729d7ecbeff5b7b275ec3a63c419d82bf3d3",
            "committor.csv": "aaf5505545cd95db1f16ab989f1b7b403d8157f3778f6ff1b0fb2b84270e07f5",
            "density.csv": "21a503c9b1acf0aadc9704c99eec36e7d13d18a4efaa77611dccd4532bf44a5c",
        },
        "sparse": {
            "koopman.csv": "928d63acb9d92b3165d4d8b567bcc1468b2aaf218fc0560234910ee6fedd6b0b",
            "committor.csv": "e6b1a385791b0789b8cb94c055088479a9c529dcfac40bef020758b537be3632",
            "density.csv": "92c9316011e9b2b271e9a721feb1d73313213d88551da1c89ab51791b3e5673a",
        },
    }

    @pytest.mark.parametrize("kernels", ["dense", "sparse"])
    def test_output_bytes(self, kernels, tmp_path, monkeypatch, capsys):
        if kernels == "sparse":
            monkeypatch.setattr(galerkin, "_DENSE_MAX", 0)
        for command, extra in self.CONFIGS.items():
            cfg = write_config(tmp_path, {"generator": {"preset": "triple-well", "dt": 1 / 24},
                                          **extra}, name=f"{command}.json")
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in (*self.EXPORT, *self.SOLVES[kernels])}
        assert got == {**self.EXPORT, **self.SOLVES[kernels]}
