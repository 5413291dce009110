import pytest

from abmc.linalg import BaseRing, Mat, ZZ
from abmc.modules import (
    Module,
    Morphism,
    SES,
    base_algebra,
    cyclic_group_algebra,
    cyclic_z_module,
    direct_sum,
    free_module,
    identity,
    trivial_module,
    upper_triangular_algebra,
    zero_module,
)
from abmc.homology import free_presentation, is_injective, is_projective, ext, syzygy
from abmc.catalog import CatalogBounds, catalog_modules, Sampler
from abmc.cotorsion import (
    ApproxSES,
    CotorsionPair,
    FamilySpec,
    NoProviderError,
    ProviderFailedError,
    RetractDatum,
    all_modules,
    check_orthogonality,
    class_member,
    explicit_class,
    gorenstein_projective,
    gp_example,
    gp_test,
    INTEGER_BASE_SELF_INJ_DIM,
    injectives,
    is_hereditary,
    is_thick,
    iwanaga_consistency,
    orthogonal_closure,
    pd_at_most,
    projectives,
    right_orth_of,
    ring_injective_dimension,
    self_injective_dimension,
    special_precover,
    special_preenvelope,
    zero_class,
)

F2 = BaseRing(2)


@pytest.fixture(scope="module")
def zz_alg():
    return base_algebra(ZZ)


@pytest.fixture(scope="module")
def f2c2():
    return cyclic_group_algebra(F2, 2)


@pytest.fixture(scope="module")
def zc2():
    return cyclic_group_algebra(ZZ, 2)


@pytest.fixture(scope="module")
def f2_catalog(f2c2):
    return catalog_modules(f2c2, CatalogBounds(max_dim=4))


def sign_module(zc2):
    return Module(zc2, (0,), (Mat.identity(1), Mat.from_rows([[-1]])))


# -- membership ----------------------------------------------------------------


def test_member_projectives(f2c2):
    assert class_member(projectives(f2c2), free_module(f2c2, 2)).status == "yes"
    assert class_member(projectives(f2c2), trivial_module(f2c2)).status == "no"


def test_member_zero(zz_alg):
    assert class_member(zero_class(zz_alg), zero_module(zz_alg)).status == "yes"
    assert class_member(zero_class(zz_alg), cyclic_z_module(zz_alg, 2)).status == "no"


def test_member_pd_at_most(zz_alg):
    v = class_member(pd_at_most(zz_alg, 1), cyclic_z_module(zz_alg, 2))
    assert v.status == "yes"


def test_member_right_orth_with_witness(f2c2):
    k = trivial_module(f2c2)
    v = class_member(right_orth_of([k]), k)
    assert v.status == "no"
    assert v.certificate["ext1"] == [2]


def test_member_explicit_is_literal(f2c2):
    k = trivial_module(f2c2)
    c = explicit_class([k])
    assert class_member(c, k).status == "yes"
    assert class_member(c, free_module(f2c2, 1)).status == "no"


# -- orthogonality -------------------------------------------------------------


def test_orthogonality_frees_vs_anything(zc2):
    rep = check_orthogonality(
        [free_module(zc2, 1), free_module(zc2, 2)],
        [trivial_module(zc2), cyclic_z_module(zc2, 2)],
        i_max=2,
    )
    assert rep.passed


def test_orthogonality_triv_vs_free_zc2(zc2):
    rep = check_orthogonality([trivial_module(zc2)], [free_module(zc2, 1)], i_max=1)
    assert rep.passed


def test_orthogonality_k_k_fails(f2c2):
    rep = check_orthogonality([trivial_module(f2c2)], [trivial_module(f2c2)], i_max=1)
    assert not rep.passed
    assert rep.failures()[0].invariants == (2,)


def test_right_closure_of_k_is_frees(f2c2, f2_catalog):
    k = trivial_module(f2c2)
    closure = orthogonal_closure([k], "right", f2_catalog)
    expected = [m for m in f2_catalog if m.is_zero or is_projective(m)]
    assert closure == expected
    assert len(closure) == 3  # 0, F2[C2], F2[C2]^2


def test_left_closure_is_projectives(f2c2, f2_catalog):
    closure = orthogonal_closure(f2_catalog, "left", f2_catalog)
    expected = [m for m in f2_catalog if m.is_zero or is_projective(m)]
    assert closure == expected


def test_closure_of_zero_generator(f2c2, f2_catalog):
    closure = orthogonal_closure([zero_module(f2c2)], "right", f2_catalog)
    assert closure == list(f2_catalog)


def test_closure_antitone(f2c2, f2_catalog):
    k = trivial_module(f2c2)
    small = orthogonal_closure([k, free_module(f2c2, 1)], "right", f2_catalog)
    big = orthogonal_closure([k], "right", f2_catalog)
    assert set(id(m) for m in small) <= set(id(m) for m in big)


# -- approximations ------------------------------------------------------------


def qf_pairs(f2c2):
    cw_f = CotorsionPair(
        projectives(f2c2), all_modules(f2c2), "free_presentation", "identity"
    )
    c_fw = CotorsionPair(
        all_modules(f2c2), projectives(f2c2), "identity", "injective_duality"
    )
    return cw_f, c_fw


def test_precover_free_presentation(f2c2):
    pair, _ = qf_pairs(f2c2)
    a = special_precover(pair, trivial_module(f2c2))
    assert a.side == "precover"
    assert a.ses.right == trivial_module(f2c2)
    assert a.outer_verified


def test_precover_identity_admissible(f2c2):
    _, pair = qf_pairs(f2c2)
    a = special_precover(pair, trivial_module(f2c2))
    assert a.ses.left.is_zero


def test_preenvelope_socle(f2c2):
    _, pair = qf_pairs(f2c2)
    k = trivial_module(f2c2)
    a = special_preenvelope(pair, k)
    # 0 -> k -> F2[C2] -> k -> 0
    assert a.ses.middle.gens == 2
    assert a.ses.right.gens == 1
    assert a.outer_verified


def test_preenvelope_trivial_when_in_right_class(f2c2):
    pair, _ = qf_pairs(f2c2)  # right class = everything
    a = special_preenvelope(pair, trivial_module(f2c2))
    assert a.ses.right.is_zero


def test_preenvelope_no_provider_over_z(zz_alg):
    pair = CotorsionPair(
        all_modules(zz_alg), injectives(zz_alg), "identity", "injective_duality"
    )
    with pytest.raises(NoProviderError):
        special_preenvelope(pair, cyclic_z_module(zz_alg, 2))


def gorenstein_pair(zc2):
    return CotorsionPair(
        gorenstein_projective(zc2, 1),
        pd_at_most(zc2, 1),
        "gp_syzygy_pushout",
        "gp_coinduction_pullback",
    )


def test_gorenstein_precover_z2_triv(zc2):
    pair = gorenstein_pair(zc2)
    x = cyclic_z_module(zc2, 2)
    a = special_precover(pair, x)
    assert a.ses.right == x
    assert a.outer_verified
    # middle passes the GP test, left term has finite projective dimension
    assert a.memberships["middle_in_left"]["status"] in ("yes", "yes_relative")
    assert a.memberships["left_term_in_right"]["status"] == "yes"


def test_gorenstein_precover_middle_is_decided_gp(zc2):
    a = special_precover(gorenstein_pair(zc2), cyclic_z_module(zc2, 2))
    assert a.memberships["middle_in_left"] == {
        "status": "yes",
        "certificate": {"route": "ext_vs_regular", "degrees": [1, 1]},
    }


def test_gorenstein_precover_of_projective_is_identity(zc2):
    pair = gorenstein_pair(zc2)
    a = special_precover(pair, free_module(zc2, 1))
    assert a.ses.left.is_zero


def test_gorenstein_preenvelope(zc2):
    pair = gorenstein_pair(zc2)
    x = trivial_module(zc2)
    a = special_preenvelope(pair, x)
    assert a.outer_verified
    assert a.ses.left == x


# -- thickness -----------------------------------------------------------------


def test_thick_projectives_f2c2(f2c2, f2_catalog):
    sampler = Sampler([m for m in f2_catalog if not m.is_zero], seed=3, tag="thick")
    sample = [sampler.ses() for _ in range(20)]
    sample += [free_presentation(m) for m in f2_catalog if not m.is_zero]
    rep = is_thick(projectives(f2c2), sample)
    assert rep.passed


def test_thick_fails_over_z(zz_alg):
    z = free_module(zz_alg, 1)
    m2 = cyclic_z_module(zz_alg, 2)
    bad = SES(Morphism(z, z, Mat.from_rows([[2]])), Morphism(z, m2, Mat.from_rows([[1]])))
    rep = is_thick(projectives(zz_alg), [bad])
    assert not rep.passed
    assert rep.failures[0]["kind"] == "two_of_three"


def test_thick_all_class(zz_alg):
    z = free_module(zz_alg, 1)
    m2 = cyclic_z_module(zz_alg, 2)
    s = SES(Morphism(z, z, Mat.from_rows([[2]])), Morphism(z, m2, Mat.from_rows([[1]])))
    rep = is_thick(all_modules(zz_alg), [s])
    assert rep.passed


def test_thick_retract_check(f2c2):
    k = trivial_module(f2c2)
    r = free_module(f2c2, 1)
    b = direct_sum(r, k)
    rep = is_thick(
        projectives(f2c2),
        [],
        [RetractDatum(b.i1, b.p1), RetractDatum(b.i2, b.p2)],
    )
    # k is a retract of F2[C2] + k which is not projective, so no constraint;
    # F2[C2] retract of the same: fine.  Build a failing case: k inside k + k.
    assert rep.passed
    b2 = direct_sum(free_module(f2c2, 1), zero_module(f2c2))
    rep2 = is_thick(projectives(f2c2), [], [RetractDatum(b2.i1, b2.p1)])
    assert rep2.passed


# -- hereditarity ---------------------------------------------------------------


def test_hereditary_projectives_all(zc2):
    pair = CotorsionPair(projectives(zc2), all_modules(zc2), "free_presentation", "identity")
    dfam = [free_module(zc2, 1), free_module(zc2, 2)]
    efam = [trivial_module(zc2), cyclic_z_module(zc2, 2), free_module(zc2, 1)]
    rep = is_hereditary(pair, dfam, efam, i_max=3, seed=5)
    assert rep.passed


def test_hereditary_broken_explicit_pair(f2c2):
    # deliberately broken: left class {k} is not closed under kernels of epis
    k = trivial_module(f2c2)
    r = free_module(f2c2, 1)
    pair = CotorsionPair(explicit_class([k, r]), explicit_class([k, r]))
    rep = is_hereditary(pair, [k, r], [k, r], i_max=1, seed=1, samples=40)
    assert not rep.passed


# -- Gorenstein operations -------------------------------------------------------


def test_ring_inj_dim_qf(f2c2):
    assert ring_injective_dimension(f2c2) == 0


def test_ring_inj_dim_triangular():
    tri = upper_triangular_algebra(F2)
    assert ring_injective_dimension(tri) == 1


def test_ring_inj_dim_zc2_table(zc2):
    assert ring_injective_dimension(zc2) == 1


def test_iwanaga_consistency_zc2(zc2):
    mods = [
        trivial_module(zc2),
        sign_module(zc2),
        free_module(zc2, 1),
        cyclic_z_module(zc2, 2),
        cyclic_z_module(zc2, 4),
    ]
    assert iwanaga_consistency(zc2, mods, d=1) == []


def test_gp_test_triv_zc2(zc2):
    v = gp_test(trivial_module(zc2), 1)
    assert v.status == "yes_relative"
    assert v.family == FamilySpec()
    assert not is_projective(trivial_module(zc2))


def test_gp_test_free(zc2):
    assert gp_test(free_module(zc2, 2), 1).status == "yes"


def test_gp_test_qf_everything_passes(f2c2):
    for m in [trivial_module(f2c2), free_module(f2c2, 1)]:
        assert gp_test(m, 0).holds


def test_gp_example_passes_gp_test(zc2):
    sampler = Sampler(
        [trivial_module(zc2), cyclic_z_module(zc2, 2), cyclic_z_module(zc2, 3), sign_module(zc2)],
        seed=11,
        tag="gp",
    )
    for _ in range(6):
        n = sampler.module()
        g = gp_example(n, 1)
        assert gp_test(g, 1).holds


def test_sign_module_is_gp_not_projective(zc2):
    s = sign_module(zc2)
    assert gp_test(s, 1).holds
    assert not is_projective(s)


# -- exact Gorenstein projectivity against the witness sweep ----------------------


def _gp_agreement(alg, d, mods):
    """Statuses of class_member on mods; asserts agreement with gp_test."""
    statuses = []
    for m in mods:
        decided = class_member(gorenstein_projective(alg, d), m)
        swept = gp_test(m, d)
        assert decided.holds == swept.holds, m
        if decided.holds:
            assert decided.status == "yes"
            assert decided.certificate == {"route": "ext_vs_regular", "degrees": [1, d]}
        else:
            assert decided.describe() == swept.describe()
        statuses.append(decided.status)
    return statuses


def test_gp_decided_agrees_with_sweep_zc2_syzygies(zc2):
    from abmc.presets import zc2_catalog

    mods = [
        syzygy(m, i) for m in zc2_catalog() for i in range(3) if not syzygy(m, i).is_zero
    ]
    statuses = _gp_agreement(zc2, 1, mods)
    assert len(mods) == 27
    assert statuses.count("yes") == 22 and statuses.count("no") == 5


def test_gp_decided_agrees_with_sweep_qf(f2c2, f2_catalog):
    assert self_injective_dimension(f2c2) == 0
    statuses = _gp_agreement(f2c2, 0, [m for m in f2_catalog if not m.is_zero])
    assert set(statuses) == {"yes"}


def test_gp_decided_agrees_with_sweep_triangular():
    tri = upper_triangular_algebra(F2)
    one, nil = Mat.identity(1), Mat.zeros(1, 1)
    s1 = Module(tri, (0,), (one, nil, nil))  # simple projective A e11
    s2 = Module(tri, (0,), (nil, one, nil))  # simple injective
    # A e22 on the basis (e22, e12): projective and injective
    p2 = Module(
        tri,
        (0, 0),
        (Mat.from_rows([[0, 0], [0, 1]]), Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[0, 0], [1, 0]])),
    )
    mods = [s1, s2, p2, free_module(tri, 1)]
    assert [is_projective(m) for m in mods] == [True, False, True, True]
    assert [is_injective(m) for m in mods] == [False, True, True, False]
    assert self_injective_dimension(tri) == 1
    assert _gp_agreement(tri, 1, mods) == ["yes", "no", "yes", "yes"]


@pytest.fixture
def no_group_algebra_entry(monkeypatch):
    monkeypatch.delitem(INTEGER_BASE_SELF_INJ_DIM, "group_algebra")
    self_injective_dimension.cache_clear()
    yield
    self_injective_dimension.cache_clear()


def test_gp_falls_back_to_sweep_without_table_entry(zc2, no_group_algebra_entry):
    assert self_injective_dimension(zc2) is None
    for m in [trivial_module(zc2), free_module(zc2, 1), cyclic_z_module(zc2, 2), sign_module(zc2)]:
        assert class_member(gorenstein_projective(zc2, 1), m) == gp_test(m, 1)
    assert class_member(gorenstein_projective(zc2, 1), trivial_module(zc2)).status == "yes_relative"
