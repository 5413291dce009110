"""Cotorsion pairs and abelian model structures over finitely generated
modules, with chain-complex promotion and brute-force verification at desk
scale."""

import sys

from . import homology
from .linalg import BaseRing, Mat, ZZ, smith_normal_form, solve_linear
from .modules import (
    Algebra,
    Module,
    Morphism,
    SES,
    base_algebra,
    cyclic_group_algebra,
    cyclic_z_module,
    direct_sum,
    free_module,
    group_algebra,
    identity,
    is_pure,
    kernel,
    cokernel,
    make_algebra,
    pullback,
    pushout,
    tensor_diagonal,
    trivial_module,
    upper_triangular_algebra,
    zero_module,
    zero_morphism,
)
from .homology import (
    ExtGroup,
    HomGroup,
    ext,
    free_presentation,
    hom_group,
    is_injective,
    is_projective,
    is_split,
    proj_dim_at_most,
    syzygy,
)
from .cotorsion import (
    ClassDescriptor,
    CotorsionPair,
    FamilySpec,
    Verdict,
    check_orthogonality,
    class_member,
    gp_example,
    gp_test,
    is_hereditary,
    is_thick,
    orthogonal_closure,
    ring_injective_dimension,
    special_precover,
    special_preenvelope,
)
from .model import (
    Factorization,
    LiftProblem,
    MapClass,
    ModelStructure,
    classify_map,
    factorize,
    is_weak_equivalence,
    lift,
    make_model_structure,
    monoidal_check,
    pushout_product,
    stable_hom,
)
from .chains import (
    ChainComplex,
    ChainMap,
    chain_ext1,
    cycles,
    dg_member,
    disk,
    homology_at,
    is_exact,
    null_homotopy,
    sphere,
    suspension,
    tilde_member,
    verify_induced_pair,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level cache of abmc: the lru_caches of its imported
    submodules and the table of free resolutions."""
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != __name__:
            continue
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                obj.cache_clear()
    homology._RESOLUTIONS.clear()
