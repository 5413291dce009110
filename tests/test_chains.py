import itertools
import random

import pytest

from abmc.linalg import Mat, ZZ
from abmc.modules import (
    Morphism,
    base_algebra,
    cyclic_z_module,
    free_module,
    identity,
    trivial_module,
    zero_module,
)
from abmc.homology import ext
from abmc.catalog import CatalogBounds, catalog_modules
from abmc.cotorsion import CotorsionPair, ProviderFailedError, all_modules, projectives
from abmc.chains import (
    ChainClassSpec,
    chain_enough_injectives_pushout,
    chain_ext1,
    chain_identity,
    chain_map,
    chain_maps_basis,
    complex_catalog,
    complex_cokernel,
    complex_direct_sum,
    complex_from_entries,
    cycles,
    dg_member,
    disk,
    homology_at,
    is_exact,
    null_homotopy,
    random_complex,
    sphere,
    suspension,
    tilde_member,
    verify_induced_pair,
    zero_complex,
)
from abmc.presets import algebra_f2c2, algebra_z, gillespie_suite


@pytest.fixture(scope="module")
def f2c2():
    return algebra_f2c2()


@pytest.fixture(scope="module")
def suite():
    return gillespie_suite(max_dim=3, max_length=4, seed=0)


@pytest.fixture(scope="module")
def proj_pair(f2c2):
    return CotorsionPair(
        projectives(f2c2), all_modules(f2c2), "free_presentation", "identity"
    )


# -- complexes -----------------------------------------------------------------


def test_disk_is_exact(f2c2):
    d = disk(1, trivial_module(f2c2))
    assert is_exact(d)


def test_sphere_homology():
    alg = algebra_z()
    s = sphere(0, cyclic_z_module(alg, 2))
    assert homology_at(s, 0).orders == (2,)
    assert not is_exact(s)


def test_suspension_of_sphere(f2c2):
    k = trivial_module(f2c2)
    assert suspension(sphere(0, k)) == sphere(1, k)


def test_double_suspension_signs(f2c2):
    k = trivial_module(f2c2)
    d = disk(1, k)
    ss = suspension(suspension(d))
    assert ss.lo == d.lo + 2 and ss.hi == d.hi + 2
    assert ss.diff(3).matrix == d.diff(1).matrix  # two sign flips cancel


def test_mult_by_two_complex():
    alg = algebra_z()
    z = free_module(alg, 1)
    c = complex_from_entries(alg, 0, [z, z], [Morphism(z, z, Mat.from_rows([[2]]))])
    assert homology_at(c, 0).orders == (2,)
    assert homology_at(c, 1).is_zero


def test_cycles_of_sphere(f2c2):
    k = trivial_module(f2c2)
    z, _ = cycles(sphere(0, k), 0)
    assert z.gens == k.gens


def test_d_squared_enforced(f2c2):
    k = trivial_module(f2c2)
    with pytest.raises(Exception):
        complex_from_entries(
            f2c2, 0, [k, k, k], [identity(k), identity(k)]
        )


def test_exactness_socle_complex(f2c2):
    # 0 -> F2[C2] -(1+g)-> F2[C2] -> 0 has homology k at the bottom
    r = free_module(f2c2, 1)
    mult = Morphism(r, r, Mat.from_rows([[1, 1], [1, 1]]))
    c = complex_from_entries(f2c2, 0, [r, r], [mult])
    assert not is_exact(c)
    assert homology_at(c, 0).gens == 1


def _assert_cokernel_projection_is_chain_map(f):
    quot, q = complex_cokernel(f)
    y = f.dst
    for n in range(y.lo, y.hi + 2):
        assert (quot.diff(n) @ q.part(n)).matrix == (q.part(n - 1) @ y.diff(n)).matrix
    for n in y.degrees():
        assert (q.part(n) @ f.part(n)).is_zero
    return quot


def test_complex_cokernel_projection_is_chain_map(suite):
    rng = random.Random(5)
    mods = [m for m in suite.module_catalog if not m.is_zero]
    nonzero_d = 0
    for _ in range(6):
        x, y = random_complex(mods, rng, 3), random_complex(mods, rng, 3)
        for f in chain_maps_basis(x, y)[:4]:
            quot = _assert_cokernel_projection_is_chain_map(f)
            nonzero_d += any(not quot.diff(n).is_zero for n in range(quot.lo + 1, quot.hi + 1))
    assert nonzero_d


def test_complex_cokernel_projection_is_chain_map_z():
    alg = algebra_z()
    for m in (free_module(alg, 1), cyclic_z_module(alg, 8)):
        d = disk(1, m)
        twice = chain_map(d, d, {n: Morphism(m, m, Mat.from_rows([[2]])) for n in d.degrees()})
        quot = _assert_cokernel_projection_is_chain_map(twice)
        assert quot.entry(0).orders == (2,) and not quot.diff(1).is_zero


# -- null homotopies -------------------------------------------------------------


def test_identity_on_disk_nullhomotopic(f2c2):
    d = disk(1, trivial_module(f2c2))
    h = null_homotopy(chain_identity(d))
    assert h is not None
    assert all(
        h.boundary().part(n).matrix == chain_identity(d).part(n).matrix
        for n in d.degrees()
    )


def test_identity_on_sphere_not_nullhomotopic():
    alg = algebra_z()
    s = sphere(0, cyclic_z_module(alg, 2))
    assert null_homotopy(chain_identity(s)) is None


def test_maps_from_disks_nullhomotopic(f2c2, suite):
    rng = random.Random(5)
    mods = [m for m in suite.module_catalog if not m.is_zero]
    for _ in range(6):
        m = rng.choice(mods)
        d = disk(rng.randint(1, 3), m)
        x = random_complex(mods, rng, 4)
        for f in chain_maps_basis(d, x):
            assert null_homotopy(f) is not None


def test_nullhomotopy_absence_by_enumeration(f2c2):
    # dim <= 2 instance: exhaust the finite space of degreewise maps and
    # cross-check the solver's absence verdict
    k = trivial_module(f2c2)
    s = sphere(0, k)
    f = chain_identity(s)
    assert null_homotopy(f) is None
    # window [0,0] against itself: homotopies would need s_n into degree 1 = 0,
    # so the only candidate is zero, and indeed ds+sd = 0 != id
    assert not f.is_zero


def test_nullhomotopy_exhaustive_two_term(f2c2):
    # complex 0 -> k -> k(+)k with zero differential vs identity-ish map
    k = trivial_module(f2c2)
    from abmc.modules import direct_sum

    kk = direct_sum(k, k).module
    x = complex_from_entries(f2c2, 0, [k, kk], [Morphism(kk, k, Mat.zeros(1, 2))])
    f = chain_identity(x)
    got = null_homotopy(f)
    # brute force: all s_0: k -> kk (candidates are 2x1 matrices over F2,
    # action is trivial so all 4 are valid morphisms)
    found = None
    for a, b in itertools.product(range(2), repeat=2):
        s0 = Mat.from_columns([[a, b]])
        # f_0 = d_1 s_0 = 0 must equal id_k: impossible
        if Mat.zeros(1, 1) + Mat.zeros(1, 1) == Mat.identity(1):
            found = s0
    assert found is None
    assert got is None


# -- tilde and dg classes ----------------------------------------------------------


def test_disk_in_tilde_left(f2c2, proj_pair):
    d = disk(2, free_module(f2c2, 1))
    v = tilde_member(ChainClassSpec(proj_pair, "tilde_left"), d)
    assert v.holds


def test_sphere_not_in_tilde(f2c2, proj_pair):
    s = sphere(0, trivial_module(f2c2))
    v = tilde_member(ChainClassSpec(proj_pair, "tilde_left"), s)
    assert v.status == "no"
    assert v.certificate["reason"] == "not exact"


def test_socle_complex_not_tilde(f2c2, proj_pair):
    r = free_module(f2c2, 1)
    mult = Morphism(r, r, Mat.from_rows([[1, 1], [1, 1]]))
    c = complex_from_entries(f2c2, 0, [r, r], [mult])
    v = tilde_member(ChainClassSpec(proj_pair, "tilde_left"), c)
    assert v.status == "no"


def test_disk_tilde_with_nonprojective_cycles(f2c2, proj_pair):
    # disks are exact with cycles = the entry: entry k is not projective
    d = disk(1, trivial_module(f2c2))
    v = tilde_member(ChainClassSpec(proj_pair, "tilde_left"), d)
    assert v.status == "no"
    v2 = tilde_member(ChainClassSpec(proj_pair, "tilde_right"), d)
    assert v2.holds  # right class is everything


def test_dg_membership_sphere_on_free(f2c2, proj_pair, suite):
    witnesses = tuple(
        c
        for c in complex_catalog(suite.module_catalog, 3, seed=1, random_count=4)
        if tilde_member(ChainClassSpec(proj_pair, "tilde_right"), c).holds
    )
    spec = ChainClassSpec(proj_pair, "dg_left", witnesses)
    v = dg_member(spec, sphere(0, free_module(f2c2, 1)))
    assert v.status == "yes_relative"


def test_dg_membership_fails_degreewise(f2c2, proj_pair):
    spec = ChainClassSpec(proj_pair, "dg_left", ())
    v = dg_member(spec, sphere(0, trivial_module(f2c2)))
    assert v.status == "no"
    assert "entry" in v.certificate


# -- chain Ext -----------------------------------------------------------------


def test_chain_ext_disk_reduction_matches():
    alg = algebra_z()
    m2 = cyclic_z_module(alg, 2)
    y = sphere(0, m2)
    x = disk(1, m2)
    res = chain_ext1(y, x)
    assert res.invariants == (2,)  # reduces to Ext^1(Z/2, Z/2)


def test_chain_ext_routes_agree_disk(f2c2, suite):
    rng = random.Random(17)
    mods = [m for m in suite.module_catalog if not m.is_zero]
    for _ in range(6):
        y = random_complex(mods, rng, 3)
        m = rng.choice(mods)
        n = rng.randint(y.lo, y.hi + 1)
        x = disk(n + 1, m)
        oracle = ext(y.entry(n), m, 1).invariants if y.entry(n).gens else ()
        via_disk = chain_ext1(y, x, route="disk")
        assert via_disk.invariants == oracle
        via_res = chain_ext1(y, x, route="resolution")
        assert via_res.invariants == oracle


def exact_complexes_f2c2():
    alg = algebra_f2c2()
    k = trivial_module(alg)
    r = free_module(alg, 1)
    socle = Morphism(k, r, Mat.from_columns([[1, 1]]))
    mult = Morphism(r, r, Mat.from_rows([[1, 1], [1, 1]]))
    aug = Morphism(r, k, Mat.from_rows([[1, 1]]))
    return [
        complex_from_entries(alg, 0, [k, r, k], [aug, socle]),
        complex_from_entries(alg, 0, [k, r, r, k], [aug, mult, socle]),
        disk(1, k),
        disk(2, r),
    ]


def test_chain_ext_routes_agree_sphere(f2c2, suite):
    # the sphere reduction holds for exact inputs split against the sphere
    # entry; under those hypotheses all three routes must agree
    from abmc.chains import _degreewise_split

    rng = random.Random(19)
    mods = [m for m in suite.module_catalog if not m.is_zero]
    tried = 0
    for y in exact_complexes_f2c2():
        assert is_exact(y)
        for n in range(y.lo, y.hi + 2):
            for m in (trivial_module(f2c2), free_module(f2c2, 1)):
                x = sphere(n, m)
                if not _degreewise_split(y, x):
                    continue
                tried += 1
                z, _ = cycles(y, n - 1)
                oracle = ext(z, m, 1).invariants if z.gens else ()
                assert chain_ext1(y, x, route="sphere").invariants == oracle
                assert chain_ext1(y, x, route="resolution").invariants == oracle
                assert chain_ext1(y, x, route="homotopy").invariants == oracle
    assert tried >= 6


def test_chain_ext_sphere_reduction_z_anchor():
    # 0 -> Z -2-> Z -> Z/2 -> 0 against S^1(Z/2): the reduction lands on the
    # cycles one degree below the sphere and equals Ext^1(Z/2, Z/2) = Z/2
    alg = algebra_z()
    z = free_module(alg, 1)
    m2 = cyclic_z_module(alg, 2)
    y = complex_from_entries(
        alg,
        0,
        [m2, z, z],
        [Morphism(z, m2, Mat.from_rows([[1]])), Morphism(z, z, Mat.from_rows([[2]]))],
    )
    x = sphere(1, m2)
    assert chain_ext1(y, x, route="resolution").invariants == (2,)
    assert chain_ext1(y, x, route="homotopy").invariants == (2,)
    assert chain_ext1(y, x).invariants == (2,)


def test_chain_ext_zero_for_disk_on_projective(f2c2):
    y = disk(1, free_module(f2c2, 1))
    x = sphere(0, trivial_module(f2c2))
    assert chain_ext1(y, x, route="resolution").is_zero


def test_homotopy_route_on_split_case(f2c2):
    # both complexes degreewise projective over QF algebra: degreewise split
    r = free_module(f2c2, 1)
    y = sphere(0, r)
    x = sphere(1, r)
    res = chain_ext1(y, x)
    assert res.route == "homotopy"
    res2 = chain_ext1(y, x, route="resolution")
    assert res.invariants == res2.invariants


# -- induced pair -----------------------------------------------------------------


def test_verify_induced_pair_projectives(f2c2, proj_pair, suite):
    catalog = complex_catalog(suite.module_catalog, suite.max_length, seed=suite.seed, random_count=6)
    dfam = [free_module(f2c2, 1), free_module(f2c2, 2)]
    efam = [m for m in suite.module_catalog if not m.is_zero][:4]
    rep = verify_induced_pair(proj_pair, catalog, (dfam, efam), seed=0)
    assert rep.hereditary_passed
    assert rep.passed, rep.describe()


# -- chain preenvelopes ------------------------------------------------------------


def test_chain_preenvelope_trivial_for_exact(f2c2, proj_pair):
    d = disk(1, trivial_module(f2c2))  # exact, cycles in All = tilde_right
    rec = chain_enough_injectives_pushout(proj_pair, d)
    assert rec.memberships["route"] == "already_in_tilde_right"


def test_chain_preenvelope_disk_route(f2c2):
    # over (All, Projectives): disks on non-injective entries take the disk route
    alg = algebra_f2c2()
    pair = CotorsionPair(all_modules(alg), projectives(alg), "identity", "injective_duality")
    d = disk(1, trivial_module(alg))
    rec = chain_enough_injectives_pushout(pair, d)
    assert rec.memberships["route"] in ("already_in_tilde_right", "disk")


def test_chain_preenvelope_sphere_on_projective(f2c2, proj_pair):
    p = free_module(f2c2, 1)
    rec = chain_enough_injectives_pushout(proj_pair, sphere(0, p))
    assert rec.memberships["route"] == "disk_sum"
    # 0 -> S^0(P) -> D^1(P) -> S^1(P) -> 0
    assert rec.quotient.entry(1).gens == p.gens


def test_chain_preenvelope_sphere_on_k_fails_certified(f2c2, proj_pair):
    # Bounded windows admit no such preenvelope for S^0(k) over the
    # (projectives, everything) pair: an exact bounded middle forces the
    # quotient to have odd Euler characteristic, impossible degreewise-free
    # over F2[C2].  The recipe must fail with a certificate, not pass.
    k = trivial_module(f2c2)
    with pytest.raises(ProviderFailedError) as exc:
        chain_enough_injectives_pushout(proj_pair, sphere(0, k))
    assert exc.value.stage == "quotient_in_dg_left"
