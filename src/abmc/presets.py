"""Shipped presets: the quasi-Frobenius structure on F2[C2]-modules, the
Gorenstein-projective structure on Z[C2]-modules, the chain-level suite for
the (projectives, everything) pair, and the purity testbed over Z.

Preset model structures validate once per process and are cached; the
declared catalogs and seeds are recorded on the objects they produce.

The Gorenstein-injective side over Z[G] is refused by construction: its
preenvelopes need non-finitely-generated injectives, so only the field-base
duality route ships (see make_model_structure presets).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import BaseRing, Mat, ZZ
from .modules import (
    Algebra,
    Module,
    base_algebra,
    cyclic_group_algebra,
    cyclic_z_module,
    direct_sum,
    free_module,
    trivial_module,
    zero_module,
)
from .homology import free_presentation
from .catalog import CatalogBounds, Sampler, catalog_modules
from .cotorsion import (
    CotorsionPair,
    FamilySpec,
    all_modules,
    gorenstein_projective,
    pd_at_most,
    projectives,
)
from .model import ModelStructure, make_model_structure

PRESET_NAMES = ("qf-f2c2", "gorenstein-zc2", "gillespie-proj-f2c2", "purity-z")


class PresetError(ValueError):
    pass


@lru_cache(maxsize=None)
def algebra_f2c2() -> Algebra:
    return cyclic_group_algebra(BaseRing(2), 2)


@lru_cache(maxsize=None)
def algebra_zc2() -> Algebra:
    return cyclic_group_algebra(ZZ, 2)


@lru_cache(maxsize=None)
def algebra_z() -> Algebra:
    return base_algebra(ZZ)


def sign_module_zc2() -> Module:
    zc2 = algebra_zc2()
    return Module(zc2, (0,), (Mat.identity(1), Mat.from_rows([[-1]])))


@lru_cache(maxsize=None)
def qf_catalog(max_dim: int = 4) -> tuple[Module, ...]:
    return tuple(catalog_modules(algebra_f2c2(), CatalogBounds(max_dim=max_dim)))


@lru_cache(maxsize=None)
def zc2_catalog() -> tuple[Module, ...]:
    """Curated deterministic Z[C2] universe for sweeps and validation."""
    zc2 = algebra_zc2()
    triv = trivial_module(zc2)
    sign = sign_module_zc2()
    reg = free_module(zc2, 1)
    mods = [
        zero_module(zc2),
        triv,
        sign,
        reg,
        cyclic_z_module(zc2, 2),
        cyclic_z_module(zc2, 3),
        cyclic_z_module(zc2, 4),
        Module(zc2, (3,), (Mat.identity(1), Mat.from_rows([[-1]]))),  # Z/3 sign
        direct_sum(triv, sign).module,
        direct_sum(triv, reg).module,
        direct_sum(cyclic_z_module(zc2, 2), reg).module,
    ]
    return tuple(mods)


@lru_cache(maxsize=None)
def z_catalog(max_invariant: int = 4) -> tuple[Module, ...]:
    return tuple(
        catalog_modules(
            algebra_z(),
            CatalogBounds(max_dim=2, max_invariant=max_invariant, max_free_rank=2),
        )
    )


def _validation_ses_sample(modules, seed: int, count: int = 12):
    pool = [m for m in modules if not m.is_zero]
    sampler = Sampler(pool, seed, tag="validation")
    sample = [sampler.ses() for _ in range(count)]
    sample += [free_presentation(m) for m in pool]
    return sample


@lru_cache(maxsize=None)
def qf_model_structure(max_dim: int = 4, seed: int = 0) -> ModelStructure:
    """C = F = everything, W = projectives (= injectives) over F2[C2]."""
    alg = algebra_f2c2()
    catalog = qf_catalog(max_dim)
    pair_cw_f = CotorsionPair(
        projectives(alg), all_modules(alg), "free_presentation", "identity"
    )
    pair_c_fw = CotorsionPair(
        all_modules(alg), projectives(alg), "identity", "injective_duality"
    )
    return make_model_structure(
        "QF(F2[C2])",
        all_modules(alg),
        all_modules(alg),
        projectives(alg),
        pair_cw_f,
        pair_c_fw,
        catalog,
        ses_sample=_validation_ses_sample(catalog, seed),
    )


@lru_cache(maxsize=None)
def gorenstein_model_structure(seed: int = 0) -> ModelStructure:
    """C = Gorenstein projectives, F = everything, W = pd <= 1 over Z[C2].

    The pair (C n W, F) is declared as (projectives, everything): Gorenstein
    projectives of finite projective dimension are projective, a coincidence
    the validation sweeps exercise rather than assume.  Membership in C is
    decided exactly, by Ext^1(M, Z[C2]) = 0 (Z[C2] has self-injective
    dimension 1), not by the witness sweep of `gp_test`.
    """
    alg = algebra_zc2()
    catalog = zc2_catalog()
    d = 1
    pair_cw_f = CotorsionPair(
        projectives(alg), all_modules(alg), "free_presentation", "identity"
    )
    pair_c_fw = CotorsionPair(
        gorenstein_projective(alg, d),
        pd_at_most(alg, d),
        "gp_syzygy_pushout",
        "gp_coinduction_pullback",
    )
    return make_model_structure(
        "Gorenstein-projective(Z[C2])",
        gorenstein_projective(alg, d),
        all_modules(alg),
        pd_at_most(alg, d),
        pair_cw_f,
        pair_c_fw,
        catalog,
        ses_sample=_validation_ses_sample(catalog, seed),
    )


@dataclass(frozen=True)
class GillespieSuite:
    algebra: Algebra
    base_pair: CotorsionPair
    module_catalog: tuple[Module, ...]
    max_length: int
    seed: int


@lru_cache(maxsize=None)
def gillespie_suite(max_dim: int = 3, max_length: int = 4, seed: int = 0) -> GillespieSuite:
    alg = algebra_f2c2()
    pair = CotorsionPair(
        projectives(alg), all_modules(alg), "free_presentation", "identity"
    )
    return GillespieSuite(
        alg,
        pair,
        tuple(catalog_modules(alg, CatalogBounds(max_dim=max_dim))),
        max_length,
        seed,
    )


@dataclass(frozen=True)
class PuritySuite:
    algebra: Algebra
    module_catalog: tuple[Module, ...]
    bound: int
    seed: int


@lru_cache(maxsize=None)
def purity_suite(bound: int = 64, seed: int = 0) -> PuritySuite:
    return PuritySuite(algebra_z(), z_catalog(), bound, seed)


def model_structure_for(name: str) -> ModelStructure:
    if name == "qf-f2c2":
        return qf_model_structure()
    if name == "gorenstein-zc2":
        return gorenstein_model_structure()
    raise PresetError(f"preset {name!r} does not define a module model structure")
