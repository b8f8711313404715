"""Command line front end: scene files, simulation, Jacobian dumps,
finite-difference checking and the inverse problems.

Scenes are JSON documents validated against the shipped schema
(scene_schema.json). All outputs are CSV and deterministic for fixed inputs.
SIM_LOG={error|warn|info|debug} controls logging verbosity.
"""
from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import logging
import math
import os
import sys

import numpy as np

from . import collision as co
from .collision import Box, Halfspace, Sphere
from .derivatives import step_jacobian
from .fd import fd_step_jacobian
from .inverse import GnSettings, estimate_initial_conditions, inverse_dynamics_contact
from .model import BodyInertia, FrictionPair, Geometry, JointSpec, KinematicModel
from .simulator import SimParams, SimState, rollout, step, trajectory_header, trajectory_rows
from .spatial import Placement, quat_to_rotation

log = logging.getLogger("diffcontact")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class SceneError(ValueError):
    pass


def _configure_logging():
    level = _LOG_LEVELS.get(os.environ.get("SIM_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_schema() -> dict:
    text = importlib.resources.files("diffcontact").joinpath("scene_schema.json").read_text()
    return json.loads(text)


def _placement_from(doc) -> Placement:
    if not doc:
        return Placement.identity()
    t = np.asarray(doc.get("translation", (0.0, 0.0, 0.0)), dtype=float)
    quat = np.asarray(doc.get("quaternion_xyzw", (0.0, 0.0, 0.0, 1.0)), dtype=float)
    return Placement(quat_to_rotation(quat), t)


def _shape_from(kind: str, params: dict):
    try:
        if kind == "sphere":
            return Sphere(float(params["radius"]))
        if kind == "box":
            return Box(np.asarray(params["half_extents"], dtype=float))
        normal = np.asarray(params["normal"], dtype=float)
        normal = normal / np.linalg.norm(normal)
        return Halfspace(normal, float(params.get("offset", 0.0)))
    except KeyError as exc:
        raise SceneError(f"shape '{kind}' is missing parameter {exc}") from exc
    except ValueError as exc:
        raise SceneError(f"shape '{kind}': {exc}") from exc


def scene_from_dict(doc: dict):
    """Build (model, state, params) from a parsed scene document."""
    import jsonschema

    try:
        jsonschema.validate(doc, _load_schema())
    except jsonschema.ValidationError as exc:
        raise SceneError(f"scene schema violation at {exc.json_path}: {exc.message}") from exc

    names = {}
    joints, inertias = [], []
    for i, body in enumerate(doc["bodies"]):
        if "name" in body:
            names[body["name"]] = i
        jd = body["joint"]
        axis = np.asarray(jd["axis"], dtype=float) if "axis" in jd else None
        if jd["kind"] in ("revolute", "prismatic"):
            if axis is None:
                raise SceneError(f"bodies[{i}].joint: {jd['kind']} joint needs an axis")
            axis = axis / np.linalg.norm(axis)
        joints.append(JointSpec(jd["kind"], int(jd["parent"]),
                                _placement_from(jd.get("placement")), axis))
        inertias.append(BodyInertia(
            mass=float(body["mass"]),
            com=np.asarray(body.get("com", (0.0, 0.0, 0.0)), dtype=float),
            inertia=np.diag(np.asarray(body["inertia_diag"], dtype=float)),
        ))

    geometries = []
    for i, gd in enumerate(doc.get("geometries", [])):
        body = gd["body"]
        if isinstance(body, str):
            if body not in names:
                raise SceneError(f"geometries[{i}]: unknown body name '{body}'")
            body = names[body]
        geometries.append(Geometry(int(body), _shape_from(gd["shape"], gd["params"]),
                                   _placement_from(gd.get("placement"))))

    pairs = []
    for i, pd in enumerate(doc.get("pairs", [])):
        a, b, mu = int(pd["a"]), int(pd["b"]), float(pd["mu"])
        if not (0 <= a < len(geometries) and 0 <= b < len(geometries)):
            raise SceneError(f"pairs[{i}]: geometry index out of range")
        if not co.pair_supported(geometries[a].shape, geometries[b].shape):
            if co.pair_supported(geometries[b].shape, geometries[a].shape):
                a, b = b, a
            else:
                raise SceneError(
                    f"pairs[{i}]: unsupported shape combination "
                    f"({type(geometries[a].shape).__name__}, {type(geometries[b].shape).__name__})"
                )
        pairs.append(FrictionPair(a, b, mu))

    try:
        model = KinematicModel(
            joints, inertias, geometries, pairs,
            gravity=tuple(doc.get("gravity", (0.0, 0.0, -9.81))),
            actuated=doc.get("actuated"),
            name=doc.get("name", ""),
        )
        initial = doc.get("initial", {})
        q = np.asarray(initial.get("q", model.neutral_configuration()), dtype=float)
        v = np.asarray(initial.get("v", np.zeros(model.nv)), dtype=float)
        if q.shape != (model.nq,) or v.shape != (model.nv,):
            raise SceneError(f"initial state must have nq={model.nq}, nv={model.nv} entries")
        model.check_configuration(q)
    except ValueError as exc:
        raise SceneError(str(exc)) from exc

    return model, SimState(q, v), SimParams(**doc.get("params", {}))


def load_scene(path: str):
    """Load a scene JSON file or a bundled scene by name."""
    doc = _read_scene_doc(path)
    return scene_from_dict(doc)


def _read_scene_doc(path: str) -> dict:
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    name = path if path.endswith(".json") else path + ".json"
    resource = importlib.resources.files("diffcontact").joinpath("scenes", name)
    if resource.is_file():
        return json.loads(resource.read_text())
    raise SceneError(f"scene not found: {path} (not a file, not a bundled scene)")


def bundled_scenes():
    root = importlib.resources.files("diffcontact").joinpath("scenes")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])


def cmd_simulate(args) -> int:
    model, state, params = load_scene(args.scene)
    results = rollout(model, state, None, args.steps, params)
    rows = trajectory_rows(results)
    if args.out:
        _write_csv(args.out, trajectory_header(model), rows)
        log.info("wrote %d steps to %s", len(rows), args.out)
    final = results[-1].state
    print(f"simulated {args.steps} steps of '{args.scene}'")
    print("final q:", " ".join(f"{x:.10g}" for x in final.q))
    print("final v:", " ".join(f"{x:.10g}" for x in final.v))
    print(f"contacts at end: {len(results[-1].contacts)}")
    return 0


_BLOCK_ORDER = ("dv", "dq", "dlam")


def _jacobian_rows(jac):
    rows = []
    for blk in _BLOCK_ORDER:
        for t, mat in getattr(jac, blk).items():
            for i in range(mat.shape[0]):
                rows.append([blk, t, i] + [float(x) for x in mat[i]])
    return rows


def cmd_jacobian(args) -> int:
    model, state, params = load_scene(args.scene)
    res = step(model, state, None, params)
    jac = step_jacobian(model, state, None, params, res, theta=args.theta)
    rows = _jacobian_rows(jac)
    if args.out:
        _write_csv(args.out, ["block", "theta", "row", "values..."], rows)
        log.info("wrote jacobian to %s", args.out)
    n = len(res.contacts)
    modes = [m.value for m in res.solution.modes] if res.solution else []
    print(f"step jacobian for '{args.scene}': {n} contacts, modes {modes}")
    for blk in _BLOCK_ORDER:
        for t, mat in getattr(jac, blk).items():
            if mat.size:
                print(f"  {blk}/{t}: shape {mat.shape}, max |entry| {np.abs(mat).max():.6g}")
    if jac.rank_deficient:
        print("  note: redundant active contact set; impulse derivative from least squares")
    return 0


def _block_errors(jac, fd):
    errs = {}
    for blk in _BLOCK_ORDER:
        amat, fmat = getattr(jac, blk), getattr(fd, blk)
        for t in amat:
            if amat[t].size == 0:
                continue
            denom = max(1.0, float(np.abs(fmat[t]).max()))
            errs[f"{blk}/{t}"] = float(np.abs(amat[t] - fmat[t]).max()) / denom
    return errs


def cmd_fdcheck(args) -> int:
    model, state, params = load_scene(args.scene)
    res = step(model, state, None, params)
    jac = step_jacobian(model, state, None, params, res, theta=args.theta)
    fd = fd_step_jacobian(model, state, None, params, theta=args.theta, eps=args.eps,
                          base=res)
    errs = _block_errors(jac, fd)
    if jac.rank_deficient:
        # lambda is non-unique on redundant patches; only its effect on v is
        dropped = [k for k in errs if k.startswith("dlam/")]
        for k in dropped:
            print(f"{k:8s} skipped (redundant active patch, impulse non-unique)")
            del errs[k]
    worst = max(errs.values()) if errs else 0.0
    for key, err in errs.items():
        print(f"{key:8s} max rel err {err:.3e}")
    print(f"worst    {worst:.3e}  (eps {args.eps:g}, tol {args.tol:g})")
    if jac.boundary or jac.ambiguous:
        print("warning: state near a contact-feature or mode boundary; "
              "FD comparison may be unreliable here")
    return 0 if worst < args.tol else 1


def _read_target(path, count: int, start: int = 0):
    """Floats [start, start + count) of the last data row of a target CSV
    (after a "step" header row, if any), and the number of data rows. A v*
    row (start 0) holds exactly count values, a trajectory row (start 1,
    after the step index) at least 1 + count; anything else, no data row
    or a non-numeric entry raises SceneError, as does a file that cannot be opened."""
    try:
        with open(path) as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise SceneError(f"target file {path}: {exc.strerror}") from exc
    if rows and rows[0][0] == "step":
        rows = rows[1:]
    if not rows:
        raise SceneError(f"target file {path} holds no data rows")
    last = rows[-1]
    if len(last) < start + count or (start == 0 and len(last) != count):
        raise SceneError(f"target row holds {len(last)} values, expected "
                         f"{'at least ' if start else ''}{start + count}")
    try:
        return np.asarray([float(x) for x in last[start : start + count]]), len(rows)
    except ValueError as exc:
        raise SceneError(f"target file {path}: {exc}") from exc


def cmd_solve_inverse(args) -> int:
    model, state, params = load_scene(args.scene)
    settings = GnSettings(max_iters=args.max_iters)
    if args.problem in ("estimate-v0", "estimate-impulse"):
        if not args.target:
            print("error: --target trajectory CSV required for estimation problems",
                  file=sys.stderr)
            return 2
        target_q, rows = _read_target(args.target, model.nq, start=1)
        horizon = args.horizon or rows
        kind = "v0" if args.problem == "estimate-v0" else "tau0"
        theta, trace = estimate_initial_conditions(
            model, state, target_q, horizon, params, kind, settings,
            jacobian=args.jacobian, fd_eps=args.eps)
        label = "v0" if kind == "v0" else "impulse"
        print(f"{args.problem}: horizon {horizon}, {trace.iterations} iterations, "
              f"objective {trace.objective[-1]:.6e}")
        print(f"estimated {label}:", " ".join(f"{x:.10g}" for x in theta))
    else:
        v_target = state.v.copy()
        if args.target:
            v_target = _read_target(args.target, model.nv)[0]
        theta, trace = inverse_dynamics_contact(model, state, v_target, params, settings)
        res = step(model, state, model.selection_matrix().T @ theta, params)
        err = float(np.linalg.norm(res.state.v - v_target))
        print(f"invdyn: {trace.iterations} iterations, |v+ - v*| = {err:.6e}")
        print("actuation torques:", " ".join(f"{x:.10g}" for x in theta))
    print(f"converged={trace.converged} stalled={trace.stalled} "
          f"wall={trace.wall_time:.3f}s")
    if args.out:
        head, body = trace.rows()
        _write_csv(args.out, head, body)
    return 0 if trace.converged or not trace.stalled else 1


def cmd_dump(args) -> int:
    doc = _read_scene_doc(args.scene)
    model, state, params = scene_from_dict(doc)
    doc.setdefault("initial", {})
    doc["initial"]["q"] = [float(x) for x in state.q]
    doc["initial"]["v"] = [float(x) for x in state.v]
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _bounded(kind, zero_ok: bool = False):
    """argparse type: a finite `kind` (int or float) above zero, or at
    least zero with zero_ok; anything else exits 2 with a usage error."""
    def parse(text):
        x = kind(text)  # argparse reports a ValueError as "invalid <kind> value"
        if not (math.isfinite(x) and (x >= 0 if zero_ok else x > 0)):
            raise argparse.ArgumentTypeError(f"must be {'>= 0' if zero_ok else '> 0'}, got {text}")
        return x
    parse.__name__ = kind.__name__
    return parse


def main(argv=None) -> int:
    _configure_logging()
    parser = argparse.ArgumentParser(
        prog="diffcontact",
        description="Differentiable rigid-body contact simulation on the "
                    "unrelaxed frictional-contact complementarity problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scene(p):
        p.add_argument("--scene", required=True,
                       help="scene JSON path or bundled name "
                            f"({', '.join(bundled_scenes())})")

    p = sub.add_parser("simulate", help="roll out a scene and export CSV")
    add_scene(p)
    p.add_argument("--steps", type=_bounded(int), default=100)
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("jacobian", help="analytic step derivatives")
    add_scene(p)
    p.add_argument("--theta", choices=("q", "v", "tau", "mu", "all"), default="all")
    p.add_argument("--out", help="jacobian CSV path")
    p.set_defaults(fn=cmd_jacobian)

    p = sub.add_parser("fdcheck", help="compare analytic vs central differences")
    add_scene(p)
    p.add_argument("--theta", choices=("q", "v", "tau", "mu", "all"), default="all")
    p.add_argument("--eps", type=_bounded(float), default=1e-6)
    p.add_argument("--tol", type=_bounded(float), default=1e-4)
    p.set_defaults(fn=cmd_fdcheck)

    p = sub.add_parser("solve-inverse", help="Gauss-Newton inverse problems")
    add_scene(p)
    p.add_argument("--problem", choices=("estimate-v0", "estimate-impulse", "invdyn"),
                   required=True)
    p.add_argument("--target", help="trajectory CSV (estimation) or v* row (invdyn)")
    p.add_argument("--horizon", type=_bounded(int, zero_ok=True), default=0,
                   help="steps to fit; 0 takes the target's row count")
    p.add_argument("--jacobian", choices=("analytic", "fd"), default="analytic")
    p.add_argument("--eps", type=_bounded(float), default=1e-6)
    p.add_argument("--max-iters", type=_bounded(int), default=100)
    p.add_argument("--out", help="GN trace CSV path")
    p.set_defaults(fn=cmd_solve_inverse)

    p = sub.add_parser("dump", help="validate and echo a normalized scene")
    add_scene(p)
    p.set_defaults(fn=cmd_dump)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
