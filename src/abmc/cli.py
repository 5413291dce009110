"""Command-line front door.

    abmc <command> [spec.json] [--preset NAME] [--seed N] [--json|--text] [--bounds K]

Problem specs are JSON (schema-validated, unknown fields rejected with
JSON-pointer paths); reports are deterministic given spec + seed, with the
timing field excluded from the report hash.  Exit codes: 0 all-pass, 1 a
certified failure, 2 spec or usage error.  ABMC_MAX_DIM caps catalog sizes;
`ext` degrees must be integers in [1, MAX_EXT_DEGREE] (64), the seed an
integer >= 0 and the bounds an integer >= 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .catalog import CatalogBounds, Sampler, module_catalog
from .cotorsion import (
    CotorsionError,
    check_orthogonality,
    class_member,
    gp_example,
    gp_test,
    is_hereditary,
    is_thick,
    ring_injective_dimension,
    special_precover,
    special_preenvelope,
)
from .chains import complex_catalog, verify_induced_pair
from .homology import ext, free_presentation, hom_group, is_projective
from .linalg import LinalgError, Mat
from .model import (
    LiftProblem,
    ModelStructureError,
    classify_with_weq,
    factorize,
    is_weak_equivalence,
    lift,
    monoidal_check,
    stable_hom,
)
from .modules import (
    ModuleError,
    Morphism,
    SES,
    cyclic_z_module,
    free_module,
    is_pure,
    trivial_module,
)
from .presets import (
    PRESET_NAMES,
    PresetError,
    algebra_f2c2,
    algebra_z,
    algebra_zc2,
    gillespie_suite,
    gorenstein_model_structure,
    model_structure_for,
    purity_suite,
    qf_model_structure,
)
from .report import Report
from .serialize import (
    SchemaError,
    algebra_from_json,
    algebra_to_json,
    module_from_json,
    module_to_json,
    morphism_from_json,
)

COMMANDS = (
    "ext",
    "hom",
    "factorize",
    "lift",
    "classify",
    "weq",
    "stable-hom",
    "check-pair",
    "thick",
    "hereditary",
    "gorenstein",
    "gillespie-verify",
    "monoidal-check",
    "catalog",
)

MAX_EXT_DEGREE = 64

SPEC_FIELDS = {"format", "command", "preset", "algebra", "arguments", "seed", "bounds"}


class UsageError(ValueError):
    pass


def max_dim_cap() -> int:
    try:
        return int(os.environ.get("ABMC_MAX_DIM", "8"))
    except ValueError:
        return 8


def _int_in(value, pointer: str, lo: int, hi: Optional[int] = None) -> int:
    """`value` if it is an int (not a bool) in [lo, hi]; else SchemaError at `pointer`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lo or (hi is not None and value > hi):
        wanted = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise SchemaError(pointer, f"expected an integer {wanted}")
    return value


def load_spec(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"spec file not found: {path}")
    except json.JSONDecodeError as e:
        raise UsageError(f"spec file is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise SchemaError("/", "expected an object")
    for k in obj:
        if k not in SPEC_FIELDS:
            raise SchemaError(f"/{k}", "unknown field")
    if "format" in obj and obj["format"] != 1:
        raise SchemaError("/format", "expected format 1")
    return obj


def preset_bundle(name: str) -> dict:
    """Fully materialized problem-spec bundle for a shipped preset."""
    if name == "qf-f2c2":
        return {
            "format": 1,
            "preset": name,
            "command": "check-pair",
            "algebra": algebra_to_json(algebra_f2c2()),
            "arguments": {"catalog_max_dim": 4},
            "seed": 0,
            "bounds": 4,
        }
    if name == "gorenstein-zc2":
        return {
            "format": 1,
            "preset": name,
            "command": "gorenstein",
            "algebra": algebra_to_json(algebra_zc2()),
            "arguments": {"d": 1},
            "seed": 0,
            "bounds": 4,
        }
    if name == "gillespie-proj-f2c2":
        return {
            "format": 1,
            "preset": name,
            "command": "gillespie-verify",
            "algebra": algebra_to_json(algebra_f2c2()),
            "arguments": {"max_length": 4, "max_dim": 3},
            "seed": 0,
            "bounds": 3,
        }
    if name == "purity-z":
        return {
            "format": 1,
            "preset": name,
            "command": "check-pair",
            "algebra": algebra_to_json(algebra_z()),
            "arguments": {"purity_bound": 64},
            "seed": 0,
            "bounds": 4,
        }
    raise UsageError(f"unknown preset {name!r}; shipped: {', '.join(PRESET_NAMES)}")


def _model_structure(spec: dict):
    preset = spec.get("preset")
    if preset in ("qf-f2c2", "gorenstein-zc2"):
        return model_structure_for(preset)
    raise UsageError(
        "this command needs --preset qf-f2c2 or gorenstein-zc2 (model structure commands)"
    )


def _args(spec: dict) -> dict:
    args = spec.get("arguments", {}) or {}
    if not isinstance(args, dict):
        raise SchemaError("/arguments", "expected an object")
    return args


def run_command(spec: dict, report: Report):
    cmd = spec["command"]
    args = _args(spec)
    seed = report.seed

    if cmd == "ext":
        deg = _int_in(args.get("degree", 1), "/arguments/degree", 1, MAX_EXT_DEGREE)
        m = module_from_json(args["m"], "/arguments/m")
        n = module_from_json(args["n"], "/arguments/n")
        g = ext(m, n, deg)
        report.add(
            f"Ext^{deg}",
            True,
            {"invariants": list(g.invariants), "zero": g.is_zero},
        )
        return

    if cmd == "hom":
        m = module_from_json(args["m"], "/arguments/m")
        n = module_from_json(args["n"], "/arguments/n")
        h = hom_group(m, n)
        report.add("Hom", True, {"invariants": list(h.invariants)})
        return

    if cmd == "factorize":
        mode = args.get("mode", "cof_then_acyclic_fib")
        if mode not in ("cof_then_acyclic_fib", "acyclic_cof_then_fib"):
            raise SchemaError("/arguments/mode", "expected cof_then_acyclic_fib or acyclic_cof_then_fib")
        ms = _model_structure(spec)
        f = morphism_from_json(args["f"], "/arguments/f")
        fac = factorize(ms, f, mode)
        report.add(
            f"factorize[{mode}]",
            True,
            {
                "route": fac.verification["route"],
                "first_cokernel": fac.verification["first_cokernel"],
                "second_kernel": fac.verification["second_kernel"],
            },
        )
        return

    if cmd == "lift":
        ms = _model_structure(spec)
        problem = LiftProblem(
            morphism_from_json(args["i"], "/arguments/i"),
            morphism_from_json(args["p"], "/arguments/p"),
            morphism_from_json(args["top"], "/arguments/top"),
            morphism_from_json(args["bottom"], "/arguments/bottom"),
        )
        h = lift(ms, problem)
        report.add("lift", True, {"matrix": list(h.matrix.entries)})
        return

    if cmd == "classify":
        ms = _model_structure(spec)
        f = morphism_from_json(args["f"], "/arguments/f")
        c = classify_with_weq(ms, f)
        report.add("classify", True, c.describe())
        return

    if cmd == "weq":
        ms = _model_structure(spec)
        f = morphism_from_json(args["f"], "/arguments/f")
        v, _ = is_weak_equivalence(ms, f)
        report.add("weak_equivalence", True, v.describe())
        return

    if cmd == "stable-hom":
        ms = _model_structure(spec)
        m = module_from_json(args["m"], "/arguments/m")
        n = module_from_json(args["n"], "/arguments/n")
        s = stable_hom(ms, m, n)
        report.add("stable_hom", True, {"invariants": list(s.invariants)})
        return

    if cmd == "check-pair":
        preset = spec.get("preset")
        if preset == "purity-z":
            _run_purity(report, seed)
            return
        ms = _model_structure(spec)
        for tag, pair in (("cw_f", ms.pair_cw_f), ("c_fw", ms.pair_c_fw)):
            dfam = [m for m in ms.catalog if class_member(pair.left, m).holds]
            efam = [m for m in ms.catalog if class_member(pair.right, m).holds]
            orth = check_orthogonality(dfam, efam, i_max=1)
            report.add(f"orthogonality[{tag}]", orth.passed, {"cells": len(orth.cells)})
            cover_fail = env_fail = 0
            for m in ms.catalog:
                try:
                    special_precover(pair, m)
                except CotorsionError:
                    cover_fail += 1
                try:
                    special_preenvelope(pair, m)
                except CotorsionError:
                    env_fail += 1
            report.add(
                f"approximations[{tag}]",
                cover_fail == 0 and env_fail == 0,
                {"precover_failures": cover_fail, "preenvelope_failures": env_fail},
            )
        return

    if cmd == "thick":
        ms = _model_structure(spec)
        pool = [m for m in ms.catalog if not m.is_zero]
        sampler = Sampler(pool, seed, tag="thick")
        sample = [sampler.ses() for _ in range(20)]
        sample += [free_presentation(m) for m in pool]
        rep = is_thick(ms.acyclic, sample)
        report.add("thickness", rep.passed, rep.describe())
        return

    if cmd == "hereditary":
        ms = _model_structure(spec)
        for tag, pair in (("cw_f", ms.pair_cw_f), ("c_fw", ms.pair_c_fw)):
            dfam = [m for m in ms.catalog if class_member(pair.left, m).holds]
            efam = [m for m in ms.catalog if class_member(pair.right, m).holds]
            rep = is_hereditary(pair, dfam, efam, i_max=3, seed=seed)
            report.add(f"hereditary[{tag}]", rep.passed, {"higher_ext_cells": len(rep.orthogonality.cells)})
        return

    if cmd == "gorenstein":
        n_examples = _int_in(args.get("examples", 10), "/arguments/examples", 1, 1000)
        ms = gorenstein_model_structure()
        alg = ms.algebra
        d = ring_injective_dimension(alg)
        report.add("ring_injective_dimension", d == 1, {"value": d})
        t = trivial_module(alg)
        v = gp_test(t, 1)
        report.add(
            "gp_test[trivial]",
            v.status == "yes_relative" and not is_projective(t),
            v.describe(),
        )
        sampler = Sampler([m for m in ms.catalog if not m.is_zero], seed, tag="gp")
        bad = 0
        for _ in range(n_examples):
            g = gp_example(sampler.module(), 1)
            if not gp_test(g, 1).holds:
                bad += 1
        report.add("gp_examples", bad == 0, {"checked": n_examples, "failures": bad})
        return

    if cmd == "gillespie-verify":
        suite = gillespie_suite(
            max_dim=_int_in(args.get("max_dim", 3), "/arguments/max_dim", 1, max_dim_cap()),
            max_length=_int_in(args.get("max_length", 4), "/arguments/max_length", 1, 8),
            seed=seed,
        )
        catalog = complex_catalog(
            suite.module_catalog, suite.max_length, seed=seed, random_count=8
        )
        dfam = [free_module(suite.algebra, 1), free_module(suite.algebra, 2)]
        efam = [m for m in suite.module_catalog if not m.is_zero][:4]
        rep = verify_induced_pair(suite.base_pair, catalog, (dfam, efam), seed=seed)
        report.add("induced_pair", rep.passed, rep.describe())
        return

    if cmd == "monoidal-check":
        ms = _model_structure(spec)
        rep = monoidal_check(ms, list(ms.catalog), seed=seed)
        report.add("monoidal", rep.passed, {"unit": rep.unit, "flatness": rep.flatness})
        return

    if cmd == "catalog":
        if "algebra" not in spec:
            raise UsageError("catalog needs an algebra (spec file or preset)")
        alg = algebra_from_json(spec["algebra"], "/algebra")
        bound = report.bounds if report.bounds is not None else 3
        cap = max_dim_cap()
        if bound > cap:
            raise UsageError(f"bound {bound} exceeds ABMC_MAX_DIM cap {cap}")
        entries = module_catalog(
            alg,
            CatalogBounds(
                max_dim=bound if not alg.base.is_field else bound,
                max_invariant=bound,
                max_free_rank=min(bound, 2),
                entry_bound=1,
            ),
        )
        report.add(
            "catalog",
            True,
            [
                {"module": module_to_json(e.module), "provenance": e.provenance}
                for e in entries
            ],
        )
        return

    raise UsageError(f"unknown command {cmd!r}; known: {', '.join(COMMANDS)}")


def _run_purity(report: Report, seed: int):
    suite = purity_suite()
    pool = [m for m in suite.module_catalog if not m.is_zero]
    sampler = Sampler(pool, seed, tag="purity")
    failures = 0
    checked = 0
    for _ in range(10):
        s = sampler.split_ses()
        rep = is_pure(s, suite.bound)
        checked += 1
        if not rep.pure:
            failures += 1
    report.add("split_ses_pure", failures == 0, {"checked": checked})
    alg = suite.algebra
    z = free_module(alg, 1)
    m2 = cyclic_z_module(alg, 2)
    s = SES(Morphism(z, z, Mat.from_rows([[2]])), Morphism(z, m2, Mat.from_rows([[1]])))
    rep = is_pure(s, suite.bound)
    report.add(
        "times_two_not_pure",
        (not rep.pure) and rep.witness == 2,
        {"witness": rep.witness},
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="abmc",
        description="cotorsion pairs, abelian model structures, and chain-level checks at desk scale",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", nargs="?", help="problem spec JSON file")
    parser.add_argument("--preset", choices=PRESET_NAMES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--bounds", type=int, default=None)
    out = parser.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true", dest="as_json")
    out.add_argument("--text", action="store_true", dest="as_text")
    ns = parser.parse_args(argv)

    started = time.monotonic()
    try:
        spec = load_spec(ns.spec)
        if ns.preset:
            bundle = preset_bundle(ns.preset)
            merged = dict(bundle)
            merged.update({k: v for k, v in spec.items() if k != "format"})
            merged["preset"] = ns.preset
            spec = merged
        if "command" not in spec or ns.command != spec.get("command", ns.command):
            spec["command"] = ns.command
        if ns.seed is not None:
            spec["seed"] = ns.seed
        if ns.bounds is not None:
            spec["bounds"] = ns.bounds
        spec.setdefault("seed", 0)
        bounds = spec.get("bounds")
        report = Report(
            command=spec["command"],
            seed=_int_in(spec["seed"], "/seed", 0),
            bounds=None if bounds is None else _int_in(bounds, "/bounds", 1),
            preset=spec.get("preset"),
        )
        run_command(spec, report)
    except (UsageError, SchemaError, PresetError, KeyError) as e:
        msg = f"spec error: {e}" if not isinstance(e, KeyError) else f"spec error: missing argument {e}"
        print(msg, file=sys.stderr)
        return 2
    except (ModuleError, LinalgError, CotorsionError, ModelStructureError) as e:
        print(f"computation rejected the input: {e}", file=sys.stderr)
        return 2
    report.timing_ms = int((time.monotonic() - started) * 1000)
    text = report.to_text() if ns.as_text or not ns.as_json else report.to_json()
    print(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
