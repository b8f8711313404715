"""The benchmark tracer wraps library functions by module attribute name
(benchmark/tracing.py); a refactor that drops or renames one of those names
must fail here rather than break `benchmark/run.py --trace 1`."""
import importlib.util
import sys
from pathlib import Path

import pytest

from diffcontact import derivatives, simulator
from diffcontact.cli import load_scene

TRACING_PY = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """benchmark/tracing.py loaded read-only: no bytecode cache is written."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_names_exist(tracing):
    targets = [(module, attr) for module, attr, _ in tracing.SPANS]
    targets += [(simulator, "step"), (derivatives, "step_jacobian")]
    missing = [f"{module.__name__}.{attr}" for module, attr in targets
               if not callable(getattr(module, attr, None))]
    assert not missing, missing


def _traced_step_and_jacobian(tracing):
    """The tracer and step result of one traced step and its Jacobian
    (theta="all") on cube_slide."""
    model, state, params = load_scene("cube_slide")
    patches = tracing.Patches()
    tracer = tracing.Tracer()
    try:
        tracer.install(patches)
        res = simulator.step(model, state, None, params)
        derivatives.step_jacobian(model, state, None, params, res, theta="all")
    finally:
        patches.restore()
    return tracer, res


def test_traced_step_jacobian_builds_no_dynamics(tracing):
    """Under the installed tracer, a step and its Jacobian run compute_dynamics
    once between them: the Jacobian reuses the step's."""
    tracer, _ = _traced_step_and_jacobian(tracing)
    assert tracer.calls("dynamics.compute_dynamics") == 1
    assert tracer.calls("model.compute_kinematics") == 1
    assert tracer.calls("derivatives.step_jacobian") == 1


def test_traced_step_and_jacobian_build_the_contact_layer_once(tracing):
    """The step builds the contact Jacobian once and the Jacobian builds the
    contact packs once. The packs read the frame Jacobians through their
    own helper, so the contact_jacobian span times the step alone."""
    tracer, res = _traced_step_and_jacobian(tracing)
    assert res.contacts
    assert tracer.calls("simulator.contact_jacobian") == 1
    assert tracer.calls("derivatives.contact_packs") == 1


def test_traced_step_records_one_narrow_phase_span_per_pair(tracing):
    """detect_contacts calls narrow_phase through the simulator namespace, so
    the tracer's collision.narrow_phase span sees every declared pair."""
    model, state, params = load_scene("cube_slide")
    patches = tracing.Patches()
    tracer = tracing.Tracer()
    try:
        tracer.install(patches)
        simulator.step(model, state, None, params)
    finally:
        patches.restore()
    assert model.pairs
    assert tracer.calls("collision.narrow_phase") == len(model.pairs)


def test_traced_chain12_step_records_one_narrow_phase_span(tracing):
    """chain12's four pairs are one kind, so the traced step's
    collision.narrow_phase span fires once, not once per pair."""
    model, state, params = load_scene("chain12")
    patches = tracing.Patches()
    tracer = tracing.Tracer()
    try:
        tracer.install(patches)
        res = simulator.step(model, state, None, params)
    finally:
        patches.restore()
    assert len(model.pairs) == len(res.contacts) == 4
    assert tracer.calls("collision.narrow_phase") == 1
