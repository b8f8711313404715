"""End-to-end CLI coverage: scene loading and validation errors, the
simulate/jacobian/fdcheck/solve-inverse/dump subcommands, CSV
determinism, and exit codes."""
import csv
import dataclasses
import importlib.resources
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from diffcontact.cli import SceneError, bundled_scenes, load_scene, main, scene_from_dict
from diffcontact.simulator import SimParams, step

GRAVITY = 9.81


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def minimal_scene(**over):
    doc = {
        "name": "tmp",
        "bodies": [
            {
                "name": "ball",
                "mass": 1.0,
                "inertia_diag": [0.004, 0.004, 0.004],
                "joint": {"kind": "free", "parent": -1},
            }
        ],
        "geometries": [
            {"body": "ball", "shape": "sphere", "params": {"radius": 0.1}},
            {"body": -1, "shape": "halfspace",
             "params": {"normal": [0, 0, 1], "offset": 0.0}},
        ],
        "pairs": [{"a": 0, "b": 1, "mu": 0.5}],
        "initial": {"q": [0, 0, 0.5, 0, 0, 0, 1], "v": [0, 0, 0, 0, 0, 0]},
    }
    doc.update(over)
    return doc


def test_bundled_scene_catalog():
    names = bundled_scenes()
    assert names == sorted(names)
    for expected in ("cube_on_plane", "cube_slide", "chain12", "fourleg",
                     "sphere_drop", "free_fall"):
        assert expected in names


@pytest.mark.parametrize("name", ["cube_on_plane", "cube_slide", "chain12",
                                  "fourleg", "sphere_drop", "free_fall"])
def test_bundled_scenes_load_and_dump(name, capsys, tmp_path):
    model, state, params = load_scene(name)
    assert state.q.shape == (model.nq,) and state.v.shape == (model.nv,)

    code, out, _ = run(["dump", "--scene", name], capsys)
    assert code == 0
    doc = json.loads(out)
    # the dumped document is normalized and loads back to the same state
    model2, state2, params2 = scene_from_dict(doc)
    assert model2.nq == model.nq and model2.nv == model.nv
    np.testing.assert_array_equal(state2.q, state.q)
    np.testing.assert_array_equal(state2.v, state.v)
    assert params2 == params


def test_simulate_free_fall_matches_closed_form(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(
        ["simulate", "--scene", "free_fall", "--steps", "5", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert "simulated 5 steps" in out
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "step"
    data = rows[1:]
    assert len(data) == 5
    dt = 1e-3
    z = 1.0
    for k, row in enumerate(data, start=1):
        vz = -k * dt * GRAVITY
        z += dt * vz
        assert int(row[0]) == k
        assert abs(float(row[1]) - 0.5 * k * dt) < 1e-12  # x = v_x t
        assert abs(float(row[3]) - z) < 1e-12
        assert abs(float(row[13]) - vz) < 1e-12  # v_z column: 1+nq+5
        assert int(row[15]) == 0  # n_contacts
        assert float(row[14]) == 0.0  # residual placeholder without contacts


def test_simulate_csv_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            ["simulate", "--scene", "cube_slide", "--steps", "40", "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_reports_contacts(capsys):
    code, out, _ = run(["simulate", "--scene", "cube_on_plane", "--steps", "3"], capsys)
    assert code == 0
    assert "contacts at end: 4" in out


def test_jacobian_command_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "jac.csv"
    code, out, _ = run(
        ["jacobian", "--scene", "cube_slide", "--theta", "v", "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert "step jacobian" in out and "modes" in out
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    # header + dv (6) + dq (6) + dlam (12) rows for the four-corner patch
    assert rows[0][:3] == ["block", "theta", "row"]
    blocks = {r[0] for r in rows[1:]}
    assert blocks == {"dv", "dq", "dlam"}
    dv_rows = [r for r in rows[1:] if r[0] == "dv"]
    assert len(dv_rows) == 6 and all(len(r) == 3 + 6 for r in dv_rows)


@pytest.mark.parametrize("scene", ["cube_slide", "sphere_drop", "chain12"])
def test_fdcheck_passes_at_default_tolerance(scene, capsys):
    code, out, _ = run(["fdcheck", "--scene", scene], capsys)
    assert code == 0, out
    assert "worst" in out


def test_fdcheck_and_jacobian_take_the_mu_block(capsys):
    code, out, _ = run(["fdcheck", "--scene", "chain12", "--theta", "mu"], capsys)
    assert code == 0, out
    assert "dv/mu" in out and "dv/q" not in out
    code, out, _ = run(["jacobian", "--scene", "chain12", "--theta", "mu"], capsys)
    assert code == 0
    assert "dv/mu: shape (12, 4)" in out


def test_fdcheck_fails_at_unreachable_tolerance(capsys):
    code, out, _ = run(["fdcheck", "--scene", "cube_slide", "--tol", "1e-13"], capsys)
    assert code == 1
    assert "worst" in out


def test_fdcheck_skips_redundant_impulse_blocks(capsys):
    # four coplanar corners: impulse non-unique, dlam comparison meaningless
    code, out, _ = run(["fdcheck", "--scene", "cube_on_plane"], capsys)
    assert code == 0, out
    assert "skipped (redundant active patch" in out


def test_unknown_scene_exits_2(capsys):
    code, out, err = run(["simulate", "--scene", "no_such_scene"], capsys)
    assert code == 2
    assert "scene not found" in err


def test_schema_violation_reports_json_path(tmp_path, capsys):
    bad = minimal_scene()
    bad["bodies"][0]["joint"]["kind"] = "flying"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["simulate", "--scene", str(path)], capsys)
    assert code == 2
    assert "bodies[0]" in err and "flying" in err


def test_unknown_body_name_in_geometry(tmp_path, capsys):
    bad = minimal_scene()
    bad["geometries"][0]["body"] = "missing"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["simulate", "--scene", str(path)], capsys)
    assert code == 2
    assert "missing" in err


def test_unsupported_pair_names_shapes(tmp_path, capsys):
    bad = minimal_scene()
    bad["geometries"][0] = {"body": -1, "shape": "halfspace",
                            "params": {"normal": [0, 0, 1], "offset": 0.0}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["simulate", "--scene", str(path)], capsys)
    assert code == 2
    assert "unsupported shape combination" in err
    assert "Halfspace" in err


def test_wrong_initial_state_length(tmp_path, capsys):
    bad = minimal_scene()
    bad["initial"]["q"] = [0, 0, 0.5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["simulate", "--scene", str(path)], capsys)
    assert code == 2
    assert "nq=7" in err


def _zero_normal(doc):
    doc["geometries"][1]["params"]["normal"] = [0, 0, 0]


def _nan_normal(doc):
    doc["geometries"][1]["params"]["normal"] = [float("nan"), 0, 1]


def _zero_joint_axis(doc):
    doc["bodies"].append({"mass": 1.0, "inertia_diag": [0.01, 0.01, 0.01],
                          "joint": {"kind": "revolute", "parent": 0, "axis": [0, 0, 0]}})
    doc["initial"] = {"q": [0, 0, 0.5, 0, 0, 0, 1, 0], "v": [0] * 7}


def _negative_radius(doc):
    doc["geometries"][0]["params"]["radius"] = -0.1


def _flat_box(doc):
    doc["geometries"][0] = {"body": "ball", "shape": "box",
                            "params": {"half_extents": [0.1, 0.0, 0.1]}}


def _non_unit_quaternion(doc):
    doc["initial"]["q"] = [0, 0, 0.5, 0, 0, 0, 2]


@pytest.mark.parametrize("corrupt, words", [
    (_zero_normal, "params.normal"),
    (_nan_normal, "halfspace normal"),
    (_zero_joint_axis, "joint.axis"),
    (_negative_radius, "sphere radius"),
    (_flat_box, "half extents"),
    (_non_unit_quaternion, "quaternion"),
])
def test_invalid_scene_values_exit_2(tmp_path, capsys, corrupt, words):
    """Values the schema admits but the model cannot use are reported as an
    error with exit code 2, not a traceback or a silent NaN."""
    bad = minimal_scene()
    corrupt(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["simulate", "--scene", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and words in err


def _sphere_without_radius(doc):
    doc["geometries"][0]["params"] = {}


def _revolute_without_axis(doc):
    doc["bodies"].append({"mass": 1.0, "inertia_diag": [0.01, 0.01, 0.01],
                          "joint": {"kind": "revolute", "parent": 0}})


def _pair_out_of_range(doc):
    doc["pairs"][0]["b"] = 2


def _repeated_pair(doc):
    doc["pairs"].append({"a": 1, "b": 0, "mu": 0.9})


@pytest.mark.parametrize("corrupt, words", [
    (_sphere_without_radius, "shape 'sphere' is missing parameter 'radius'"),
    (_revolute_without_axis, "bodies[1].joint: revolute joint needs an axis"),
    (_pair_out_of_range, "pairs[0]: geometry index out of range"),
    (_repeated_pair, "pairs[1]: geometries 0 and 1 are already paired by pairs[0]"),
])
def test_scene_loader_rejects_incomplete_or_repeated_entries(tmp_path, capsys, corrupt, words):
    """Entries the schema admits but the loader or the model rejects raise
    SceneError from the loader, and the CLI exits 2 with the same words."""
    bad = minimal_scene()
    corrupt(bad)
    with pytest.raises(SceneError, match=re.escape(words)):
        scene_from_dict(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["simulate", "--scene", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and words in err


def test_pair_order_normalized(tmp_path):
    """Pairs may be written in either geometry order; loading canonicalizes
    to the supported (shape_a, shape_b) orientation."""
    doc = minimal_scene()
    doc["pairs"] = [{"a": 1, "b": 0, "mu": 0.5}]  # halfspace first
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(doc))
    model, _, _ = load_scene(str(path))
    assert model.pairs[0].geom_a == 0 and model.pairs[0].geom_b == 1


def test_solve_inverse_requires_target(capsys):
    code, _, err = run(
        ["solve-inverse", "--scene", "cube_slide", "--problem", "estimate-v0"],
        capsys,
    )
    assert code == 2
    assert "--target" in err


@pytest.mark.parametrize("problem, target", [
    ("invdyn", ""),
    ("invdyn", "0,0,0,0,0,zero\n"),
    ("invdyn", "0,0,0\n"),
    ("estimate-v0", "1," + ",".join(["nan?"] * 20) + "\n"),
    ("invdyn", None),
], ids=["invdyn-empty", "invdyn-non-numeric", "invdyn-short", "estimate-v0-non-numeric",
        "invdyn-missing"])
def test_solve_inverse_bad_target_exits_2(tmp_path, capsys, problem, target):
    """An empty, short, non-numeric or missing (None) target file is
    reported as an error with exit code 2, not a traceback."""
    path = tmp_path / "target.csv"
    if target is not None:
        path.write_text(target)
    code, _, err = run(["solve-inverse", "--scene", "cube_slide", "--problem", problem,
                        "--target", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_solve_inverse_invdyn_fourleg(tmp_path, capsys):
    trace_csv = tmp_path / "trace.csv"
    code, out, _ = run(
        ["solve-inverse", "--scene", "fourleg", "--problem", "invdyn",
         "--out", str(trace_csv)],
        capsys,
    )
    assert code == 0
    assert "converged=True" in out
    err_line = next(l for l in out.splitlines() if "|v+ - v*|" in l)
    assert float(err_line.split("=")[-1]) <= 1e-5
    # torque line: one entry per actuated leg, each carrying 1/4 of the weight
    tq_line = next(l for l in out.splitlines() if l.startswith("actuation torques:"))
    torques = [float(x) for x in tq_line.split(":")[1].split()]
    assert len(torques) == 4
    np.testing.assert_allclose(torques, -GRAVITY, atol=1e-6)
    with open(trace_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "objective", "grad_norm", "step_norm",
                       "damping", "accepted"]
    objectives = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-18 for a, b in zip(objectives, objectives[1:]))


def test_solve_inverse_estimate_v0_roundtrip(tmp_path, capsys):
    target_csv = tmp_path / "target.csv"
    code, _, _ = run(
        ["simulate", "--scene", "cube_slide", "--steps", "10",
         "--out", str(target_csv)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["solve-inverse", "--scene", "cube_slide", "--problem", "estimate-v0",
         "--target", str(target_csv)],
        capsys,
    )
    assert code == 0
    assert "estimate-v0: horizon 10" in out
    obj_line = next(l for l in out.splitlines() if "objective" in l)
    assert float(obj_line.rsplit(" ", 1)[-1]) < 1e-12


@pytest.mark.parametrize("argv, words", [
    (["simulate", "--scene", "free_fall", "--steps", "0"], "--steps: must be > 0"),
    (["simulate", "--scene", "free_fall", "--steps", "-2"], "--steps: must be > 0"),
    (["solve-inverse", "--scene", "cube_slide", "--problem", "invdyn", "--horizon", "-3"],
     "--horizon: must be >= 0"),
    (["solve-inverse", "--scene", "cube_slide", "--problem", "invdyn", "--max-iters", "0"],
     "--max-iters: must be > 0"),
    (["fdcheck", "--scene", "chain12", "--eps", "0"], "--eps: must be > 0"),
    (["fdcheck", "--scene", "chain12", "--tol", "nan"], "--tol: must be > 0"),
    (["bench", "--scene", "chain12"], "invalid choice: 'bench'"),
])
def test_bad_flags_exit_2_before_running(argv, words, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and words in err and "Traceback" not in err


def test_readme_scene_example_loads():
    """The JSON example of the README's "Scene files" section is a valid
    scene: a free box resting on the ground plane, sliding along x."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Scene files"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    model, state, params = scene_from_dict(json.loads(block))
    assert (model.nq, model.nv, len(model.geometries)) == (7, 6, 2)
    assert [(p.geom_a, p.geom_b, p.mu) for p in model.pairs] == [(0, 1, 0.6)]
    assert state.v[3] == 1.0 and params.dt == 0.001
    assert len(step(model, state, None, params).contacts) == 4


def test_scene_params_are_exactly_sim_params():
    """scene_from_dict hands the schema's params straight to SimParams, so
    the two must name the same fields."""
    schema = json.loads(
        importlib.resources.files("diffcontact").joinpath("scene_schema.json").read_text())
    assert set(schema["properties"]["params"]["properties"]) == {
        f.name for f in dataclasses.fields(SimParams)}


def test_sim_log_env_sets_level(monkeypatch, capsys):
    monkeypatch.setenv("SIM_LOG", "debug")
    root_level = {}
    orig = logging.basicConfig

    def spy(**kwargs):
        root_level.update(kwargs)
        orig(**kwargs)

    monkeypatch.setattr(logging, "basicConfig", spy)
    run(["simulate", "--scene", "free_fall", "--steps", "1"], capsys)
    assert root_level.get("level") == logging.DEBUG


def test_scene_error_is_value_error():
    assert issubclass(SceneError, ValueError)
    with pytest.raises(SceneError):
        scene_from_dict({"bodies": []})
