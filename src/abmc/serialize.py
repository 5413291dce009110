"""Versioned JSON schemas for algebras, modules and morphisms.

Format version 1.  All matrices are row-major integer arrays; prime-field
entries are integers in [0, p).  Validation errors carry a JSON-pointer-style
path to the offending field, and unknown fields are rejected.
"""

from __future__ import annotations

from typing import Any

from .linalg import BaseRing, Mat, ZZ
from .modules import Algebra, Module, Morphism, make_algebra

FORMAT = 1


class SchemaError(ValueError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _expect_keys(obj: dict, required: set, optional: set, ptr: str):
    if not isinstance(obj, dict):
        raise SchemaError(ptr, "expected an object")
    for k in obj:
        if k not in required and k not in optional:
            raise SchemaError(f"{ptr}/{k}", "unknown field")
    for k in required:
        if k not in obj:
            raise SchemaError(f"{ptr}/{k}", "missing field")


def _check_format(obj: dict, ptr: str):
    if obj.get("format") != FORMAT:
        raise SchemaError(f"{ptr}/format", f"expected format {FORMAT}")


def _int_list(v: Any, ptr: str) -> list[int]:
    if not isinstance(v, list) or not all(isinstance(x, int) for x in v):
        raise SchemaError(ptr, "expected a list of integers")
    return v


# -- base ring ----------------------------------------------------------------


def base_ring_to_json(r: BaseRing) -> dict:
    return {"kind": "Z"} if not r.is_field else {"kind": "F", "p": r.p}


def base_ring_from_json(obj: Any, ptr: str = "/base") -> BaseRing:
    _expect_keys(obj, {"kind"}, {"p"}, ptr)
    if obj["kind"] == "Z":
        return ZZ
    if obj["kind"] == "F":
        if "p" not in obj:
            raise SchemaError(f"{ptr}/p", "missing field")
        return BaseRing(obj["p"])
    raise SchemaError(f"{ptr}/kind", "expected 'Z' or 'F'")


# -- algebra ------------------------------------------------------------------


def algebra_to_json(a: Algebra) -> dict:
    out = {
        "format": FORMAT,
        "kind": "algebra",
        "base": base_ring_to_json(a.base),
        "rank": a.rank,
        "mult": [[list(v) for v in row] for row in a.mult],
        "unit": list(a.unit),
    }
    if a.labels:
        out["labels"] = list(a.labels)
    return out


def algebra_from_json(obj: Any, ptr: str = "") -> Algebra:
    _expect_keys(obj, {"format", "kind", "base", "rank", "mult", "unit"}, {"labels"}, ptr or "/")
    _check_format(obj, ptr)
    if obj["kind"] != "algebra":
        raise SchemaError(f"{ptr}/kind", "expected 'algebra'")
    base = base_ring_from_json(obj["base"], f"{ptr}/base")
    n = obj["rank"]
    mult = obj["mult"]
    if not isinstance(mult, list) or len(mult) != n:
        raise SchemaError(f"{ptr}/mult", f"expected {n} rows")
    for i, row in enumerate(mult):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{ptr}/mult/{i}", f"expected {n} entries")
        for j, v in enumerate(row):
            _int_list(v, f"{ptr}/mult/{i}/{j}")
    unit = _int_list(obj["unit"], f"{ptr}/unit")
    labels = obj.get("labels")
    return make_algebra(base, mult, unit, labels)


# -- module --------------------------------------------------------------------


def module_to_json(m: Module) -> dict:
    return {
        "format": FORMAT,
        "kind": "module",
        "algebra": algebra_to_json(m.algebra),
        "orders": list(m.orders),
        "actions": [list(a.entries) for a in m.actions],
    }


def module_from_json(obj: Any, ptr: str = "", algebra: Algebra | None = None) -> Module:
    _expect_keys(obj, {"format", "kind", "orders", "actions"}, {"algebra"}, ptr or "/")
    _check_format(obj, ptr)
    if obj["kind"] != "module":
        raise SchemaError(f"{ptr}/kind", "expected 'module'")
    if algebra is None:
        if "algebra" not in obj:
            raise SchemaError(f"{ptr}/algebra", "missing field")
        algebra = algebra_from_json(obj["algebra"], f"{ptr}/algebra")
    orders = tuple(_int_list(obj["orders"], f"{ptr}/orders"))
    g = len(orders)
    actions = []
    acts = obj["actions"]
    if not isinstance(acts, list) or len(acts) != algebra.rank:
        raise SchemaError(f"{ptr}/actions", f"expected {algebra.rank} matrices")
    for k, flat in enumerate(acts):
        ent = _int_list(flat, f"{ptr}/actions/{k}")
        if len(ent) != g * g:
            raise SchemaError(f"{ptr}/actions/{k}", f"expected {g * g} entries")
        actions.append(Mat(g, g, tuple(ent)))
    return Module(algebra, orders, tuple(actions))


# -- morphism --------------------------------------------------------------------


def morphism_from_json(obj: Any, ptr: str = "", algebra: Algebra | None = None) -> Morphism:
    _expect_keys(obj, {"format", "kind", "src", "dst", "matrix"}, set(), ptr or "/")
    _check_format(obj, ptr)
    if obj["kind"] != "morphism":
        raise SchemaError(f"{ptr}/kind", "expected 'morphism'")
    src = module_from_json(obj["src"], f"{ptr}/src", algebra)
    dst = module_from_json(obj["dst"], f"{ptr}/dst", algebra)
    ent = _int_list(obj["matrix"], f"{ptr}/matrix")
    if len(ent) != dst.gens * src.gens:
        raise SchemaError(f"{ptr}/matrix", f"expected {dst.gens * src.gens} entries")
    return Morphism(src, dst, Mat(dst.gens, src.gens, tuple(ent)))
