"""The benchmark's output checks (benchmark/checks.py) read StepResult
contacts by length, truthiness and per-contact attributes; a change to how
contacts are stored must fail here rather than at benchmark time."""
import importlib.util
import sys
from pathlib import Path

import pytest

from diffcontact import simulator
from diffcontact.cli import load_scene

CHECKS_PY = Path(__file__).resolve().parents[1] / "benchmark" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    """benchmark/checks.py loaded read-only: no bytecode cache is written."""
    spec = importlib.util.spec_from_file_location("benchmark_checks", CHECKS_PY)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _first_step(scene):
    model, state, params = load_scene(scene)
    return simulator.step(model, state, None, params)


def test_checks_read_a_contact_step(checks):
    """cube_slide's first step: four sliding corners pass the contact
    checks, the cone self-test rejects its corrupted impulse, and the
    signature lists (pair, feature, mode) per contact."""
    res = _first_step("cube_slide")
    assert res.contacts
    assert checks.check_step_result(res) == []
    assert checks.self_test_cone(res) is True
    sig = checks.contact_signature(res)
    assert len(sig) == len(res.contacts) == 4
    assert sig == tuple((f.pair, f.feature, m) for f, m in zip(res.contacts, res.solution.modes))
    assert len({feature for _, feature, _ in sig}) == 4
    assert all(pair == (0, 1) for pair, _, _ in sig)


def test_checks_read_a_contact_free_step(checks):
    res = _first_step("free_fall")
    assert not res.contacts and res.solution is None
    assert checks.check_step_result(res) == []
    assert checks.contact_signature(res) == ()
