"""Tolerances: every name a report prints is read by the code, and overrides are scoped."""

import ast
from pathlib import Path

import pytest

import qreplica
from qreplica import config
from qreplica.errors import InputError

PACKAGE = Path(qreplica.__file__).parent


def _config_reads() -> set[str]:
    """Attribute names read as ``config.<name>`` anywhere in the package but config.py."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "config":
                names.add(node.attr)
    return names


def test_every_reported_tolerance_is_read():
    # MAX_DIM is reported through config.max_dim(), which reads the environment.
    expected = {"max_dim" if name == "MAX_DIM" else name for name in config.snapshot()}
    assert expected - _config_reads() == set()


def test_overrides_last_one_with_block():
    defaults = config.snapshot()
    with config.overridden([("NO_CLONE_GAP", 0.5), ("NORM_TOL", 1e-3)]):
        assert (config.NO_CLONE_GAP, config.NORM_TOL) == (0.5, 1e-3)
    assert config.snapshot() == defaults


def test_unknown_name_is_refused_and_earlier_overrides_are_undone():
    defaults = config.snapshot()
    known = ", ".join(name for name in defaults if name != "MAX_DIM")
    message = f"unknown tolerance 'NOPE'; known names: {known}"
    with pytest.raises(InputError) as excinfo:
        with config.overridden([("NO_CLONE_GAP", 0.5), ("NOPE", 1.0)]):
            pass
    assert str(excinfo.value) == message
    assert config.snapshot() == defaults
