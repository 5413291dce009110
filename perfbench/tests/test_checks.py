"""The benchmark's checks reject corrupted results.

Each test feeds a checker one real abmc result, which must pass, and a copy
with one deliberate fault, which must be rejected.  Run from the repository
root with ``python3 -m pytest perfbench/tests -q``.
"""

from types import SimpleNamespace

import pytest

from abmc.chains import chain_maps_basis, disk, null_homotopy, sphere
from abmc.homology import ext, hom_group
from abmc.linalg import Mat
from abmc.model import factorize, is_weak_equivalence, lift, LiftProblem, pushout_product, stable_hom
from abmc.modules import direct_sum, free_module, identity, trivial_module, zero_morphism
from abmc.presets import (
    algebra_f2c2,
    algebra_zc2,
    gorenstein_model_structure,
    qf_model_structure,
    sign_module_zc2,
)
from abmc.catalog import Sampler

import oracles
import workloads


def flipped(f, i=0, j=0, by=1):
    """f with entry (i, j) changed, bypassing Morphism validation."""
    entries = list(f.matrix.entries)
    entries[i * f.matrix.cols + j] += by
    return SimpleNamespace(src=f.src, dst=f.dst, matrix=Mat(f.matrix.rows, f.matrix.cols, tuple(entries)))


@pytest.fixture(scope="module")
def qf():
    return qf_model_structure()


@pytest.fixture(scope="module")
def f2c2():
    alg = algebra_f2c2()
    return SimpleNamespace(alg=alg, k=trivial_module(alg), r=free_module(alg, 1))


def test_f2c2_decomposition(f2c2):
    kr = direct_sum(f2c2.k, direct_sum(f2c2.r, f2c2.r).module).module
    assert oracles.f2c2_type(f2c2.k) == (1, 0)
    assert oracles.f2c2_type(kr) == (1, 2)
    assert oracles.hom_dim(kr, f2c2.k) == len(hom_group(kr, f2c2.k).invariants) == 3


def test_factorization_check_rejects_flipped_entry(qf):
    f = Sampler([m for m in qf.catalog if not m.is_zero], 11, tag="crit4").morphism()
    fac = factorize(qf, f, "cof_then_acyclic_fib")
    assert oracles.check_f2_factorization(f, fac.first, fac.second) == []
    # flip an entry of first in a row that second does not kill
    second = oracles.f2(fac.second.matrix)
    row = next(i for i in range(second.shape[1]) if second[:, i].any())
    bad = oracles.check_f2_factorization(f, flipped(fac.first, row, 0), fac.second)
    assert any("composite" in p for p in bad)


def test_factorization_check_rejects_non_injective_first(f2c2):
    k, r = f2c2.k, f2c2.r
    f = zero_morphism(k, r)
    problems = oracles.check_f2_factorization(f, zero_morphism(k, r), identity(r))
    assert problems == ["first factor is not injective"]


def test_weak_equivalence_oracle(f2c2, qf):
    k, r = f2c2.k, f2c2.r
    into_sum = direct_sum(k, r).i1
    assert oracles.f2c2_weak_equivalence(into_sum)
    assert is_weak_equivalence(qf, into_sum)[0].holds
    assert not oracles.f2c2_weak_equivalence(zero_morphism(k, k))
    assert oracles.check_weak_equivalence(zero_morphism(k, k), True) != []


def test_classification_check_rejects_wrong_verdict(f2c2):
    i = direct_sum(f2c2.k, f2c2.r).i1  # split mono with projective cokernel
    right = {"cofibration": True, "fibration": False,
             "acyclic_cofibration": True, "acyclic_fibration": False}
    assert oracles.check_qf_classification(i, right) == []
    wrong = dict(right, acyclic_cofibration=False)
    assert oracles.check_qf_classification(i, wrong) != []


def test_lift_check_rejects_flipped_entry(qf, f2c2):
    k, r = f2c2.k, f2c2.r
    i = direct_sum(k, r).i1
    s = direct_sum(k, k)
    p = s.p1
    top = zero_morphism(k, s.module)
    bottom = zero_morphism(i.dst, k)
    h = lift(qf, LiftProblem(i, p, top, bottom))
    assert oracles.check_f2_lift(i, p, top, bottom, h) == []
    assert oracles.check_f2_lift(i, p, top, bottom, flipped(h)) != []


def test_group_dimensions_reject_wrong_invariants(qf, f2c2):
    k, r = f2c2.k, f2c2.r
    m = direct_sum(k, r).module
    hom, e, st = hom_group(m, k).invariants, ext(m, k, 1).invariants, stable_hom(qf, m, k).invariants
    assert oracles.check_f2_groups(m, k, hom, e, st) == []
    assert oracles.check_f2_groups(m, k, hom + (2,), e, st) != []
    assert oracles.check_f2_groups(m, k, hom, (), st) != []
    assert oracles.check_f2_groups(m, k, hom, e, (4,)) != []


def test_pushout_product_check_rejects_wrong_dimension(f2c2):
    k, r = f2c2.k, f2c2.r
    i = direct_sum(k, r).i1
    j = direct_sum(k, k).i1
    pp = pushout_product(i, j)
    assert oracles.check_pushout_product(i, j, pp) == []
    wrong_src = SimpleNamespace(src=SimpleNamespace(gens=pp.src.gens - 1), dst=pp.dst, matrix=pp.matrix)
    assert any("source dimension" in p for p in oracles.check_pushout_product(i, j, wrong_src))
    not_mono = SimpleNamespace(src=pp.src, dst=pp.dst, matrix=Mat.zeros(pp.matrix.rows, pp.matrix.cols))
    assert oracles.check_pushout_product(i, j, not_mono) == ["pushout-product is not of full column rank"]


def test_group_cohomology_closed_form():
    alg = algebra_zc2()
    t = trivial_module(alg)
    for name, coeff in (("trivial", t), ("sign", sign_module_zc2()), ("regular", free_module(alg, 1))):
        for degree in (1, 2):
            want = oracles.group_cohomology_c2(name, degree)
            assert oracles.check_invariants(ext(t, coeff, degree).invariants, want, name) == []
    assert oracles.check_invariants(ext(t, t, 1).invariants, (2,), "odd degree") != []


def test_z_composite_check_rejects_wrong_map():
    gor = gorenstein_model_structure()
    f = Sampler([m for m in gor.catalog if not m.is_zero], 13, tag="crit4").morphism()
    fac = factorize(gor, f, "acyclic_cof_then_fib")
    assert oracles.check_z_composite(f, fac.first, fac.second) == []
    assert oracles.check_z_composite(flipped(f), fac.first, fac.second) != []
    # an entry changed by a multiple of the target's order is the same map
    order = f.dst.orders[0]
    if order:
        assert oracles.check_z_composite(flipped(f, by=order), fac.first, fac.second) == []


def test_null_homotopy_check_rejects_flipped_entry(f2c2):
    r = f2c2.r
    x = disk(1, r)
    f = chain_maps_basis(x, x)[0]
    h = null_homotopy(f)
    assert h is not None
    assert oracles.check_null_homotopy(f, h) == []
    n, s = next((n, s) for n, s in h.parts if s.matrix.rows and s.matrix.cols)
    corrupted = SimpleNamespace(part=lambda m: flipped(s) if m == n else h.part(m))
    assert oracles.check_null_homotopy(f, corrupted) != []


def test_null_homotopy_check_rejects_a_false_none(f2c2):
    """None claims that no null homotopy exists; the oracle solves d s + s d = f
    itself, so a None for a map of a contractible disk is rejected."""
    x = disk(1, f2c2.r)
    f = chain_maps_basis(x, x)[0]
    assert oracles.f2_null_homotopic(f)
    assert oracles.check_null_homotopy(f, None) != []
    y = sphere(0, f2c2.k)
    g = chain_maps_basis(y, y)[0]
    assert null_homotopy(g) is None
    assert not oracles.f2_null_homotopic(g)
    assert oracles.check_null_homotopy(g, None) == []


def test_null_homotopy_check_rejects_a_non_module_map(f2c2):
    """A homotopy whose s_n fails to commute with T is rejected even where
    d s + s d = f still holds: on sphere(0, R) -> sphere(1, R) the zero map is
    bounded by any F2-linear s_0, equivariant or not."""
    x, y = sphere(0, f2c2.r), sphere(1, f2c2.r)
    zero = SimpleNamespace(src=x, dst=y, part=lambda n: zero_morphism(x.entry(n), y.entry(n)))
    s0 = SimpleNamespace(src=f2c2.r, dst=f2c2.r, matrix=Mat(2, 2, (1, 0, 0, 0)))
    h = SimpleNamespace(part=lambda n: s0 if n == 0 else zero_morphism(x.entry(n), y.entry(n + 1)))
    assert oracles.check_null_homotopy(zero, h) == ["s_0 does not commute with the group action"]


def test_exactness_and_dg_tilde_agreement(f2c2):
    assert oracles.f2_is_exact(disk(1, f2c2.k))
    assert not oracles.f2_is_exact(sphere(0, f2c2.k))
    assert oracles.check_dg_exact_is_tilde(True, True, True, "left") == []
    assert oracles.check_dg_exact_is_tilde(True, True, False, "left") != []
    assert oracles.check_dg_exact_is_tilde(False, True, True, "right") != []


def test_batches_are_ordered_by_seed_only():
    """The same seed gives the same batch; another seed reorders it."""
    def inputs(seed):
        return [op.run.__defaults__ for op in workloads.build("gorenstein-zc2", seed)]

    a, b, c = inputs(5), inputs(5), inputs(0)
    assert a == b
    assert a != c and len(a) == len(c) and all(x in c for x in a)


def test_tracer_counts_catch_a_missed_binding():
    """Traced calls of a cached function equal its cache lookups, unless
    something calls the unwrapped cache; the tracer reports that."""
    import abmc.homology as homology
    import layertrace

    tracer = layertrace.Tracer()
    tracer.install()
    k = trivial_module(algebra_f2c2())
    tracer.reset()
    tracer.active = True
    homology.hom_group(k, k)
    homology.ext(k, k, 1)
    tracer.active = False
    assert tracer.binding_problems() == []
    assert tracer.calls["homology.hom"] == 1
    tracer.active = True
    tracer.wrapped[("abmc.homology", "ext")](k, k, 2)  # a call that bypasses the wrapper
    tracer.active = False
    assert tracer.binding_problems() == ["homology.ext: 1 traced calls, 2 cache lookups"]
