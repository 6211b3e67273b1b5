import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import ajc

ROOT = Path(__file__).resolve().parents[1]


SOURCES = [p for p in (ROOT / "src" / "ajc").glob("*.py") if p.name != "__init__.py"]


def names_used() -> set:
    """Every name that src/ajc, but for its __init__, or bench/ loads or imports."""
    used = set()
    for path in SOURCES + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_has_a_caller():
    # a public name only the tests use belongs in the tests; a name the
    # benchmark calls is in use
    assert sorted(set(ajc.__all__) - names_used()) == []


def test_every_private_helper_has_a_caller():
    # no helper that only a test uses, for the module-level private functions
    # and classes; methods are exempt, since argparse calls cli._Parser.error
    private = {node.name for path in SOURCES for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    assert private and sorted(private - names_used()) == []


def test_invalid_protocol_is_public():
    # the error every RateMatrixSequence construction can raise
    with pytest.raises(ajc.InvalidProtocol) as info:
        ajc.RateMatrixSequence(ajc.TimeGrid(np.array([0.0, 1.0])),
                               (sp.csr_matrix(np.array([[0.0, -1.0], [1.0, 0.0]])),))
    assert type(info.value) is ajc.generator.InvalidProtocol
    assert "InvalidProtocol" in ajc.__all__
