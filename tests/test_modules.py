from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from abmc.homology import hom_group
from abmc.linalg import BaseRing, Mat, ZZ
from abmc.modules import (
    AlgebraError,
    ModuleError,
    SES,
    base_algebra,
    cyclic_group_algebra,
    cyclic_z_module,
    direct_sum,
    factor_through_mono,
    free_module,
    from_pushout,
    identity,
    into_pullback,
    is_epic,
    is_monic,
    is_pure,
    kernel,
    cokernel,
    make_algebra,
    module_from_presentation,
    morphism_equal,
    Morphism,
    MorphismSystem,
    Module,
    pullback,
    pushout,
    restrict_to_base,
    tensor_diagonal,
    tensor_morphisms,
    trivial_module,
    upper_triangular_algebra,
    zero_module,
    zero_morphism,
)

F2 = BaseRing(2)
F3 = BaseRing(3)


@pytest.fixture(scope="module")
def zz_alg():
    return base_algebra(ZZ)


@pytest.fixture(scope="module")
def f2c2():
    return cyclic_group_algebra(F2, 2)


@pytest.fixture(scope="module")
def zc2():
    return cyclic_group_algebra(ZZ, 2)


def z_cyclic(alg, n):
    return cyclic_z_module(alg, n)


def z_free(alg, r=1):
    return free_module(alg, r)


# -- algebras ----------------------------------------------------------------


def test_group_algebra_f2c2(f2c2):
    assert f2c2.rank == 2
    assert f2c2.is_group_algebra
    # g * g = 1
    assert f2c2.mult[1][1] == (1, 0)


def test_rank_one_integers(zz_alg):
    assert zz_alg.rank == 1
    assert zz_alg.mult[0][0] == (1,)


def test_unit_violation_rejected():
    with pytest.raises(AlgebraError):
        make_algebra(ZZ, [[[0]]], [1])


def test_associativity_violation_rejected():
    # e0 acts as unit, e1*e1 = e0 but e1*e0 = 0 breaks unitality/associativity
    with pytest.raises(AlgebraError):
        make_algebra(
            ZZ,
            [
                [[1, 0], [0, 1]],
                [[0, 0], [1, 0]],
            ],
            [1, 0],
        )


def test_opposite_involution(f2c2):
    assert f2c2.opposite.opposite == f2c2


# -- free modules and canonical forms ---------------------------------------


def test_free_module_regular(f2c2):
    r = free_module(f2c2, 1)
    assert r.gens == 2
    assert r.orders == (0, 0)
    # g action swaps the basis of the regular representation
    assert r.actions[1] == Mat.from_rows([[0, 1], [1, 0]])


def test_free_module_z(zz_alg):
    z = free_module(zz_alg, 1)
    assert z.orders == (0,)


def test_free_module_zc2_rank2(zc2):
    m = free_module(zc2, 2)
    assert m.gens == 4
    g = m.actions[1]
    assert g @ g == Mat.identity(4)


def test_canonicalization_z():
    alg = base_algebra(ZZ)
    # Z^2 / <(2, 0), (0, 3)>  canonicalizes to Z/6
    rel = Mat.from_rows([[2, 0], [0, 3]])
    m, proj, sect = module_from_presentation(alg, rel, [Mat.identity(2)])
    assert m.orders == (6,)
    assert m.reduce_vector(proj @ sect) == Mat.identity(1)


def test_canonicalization_field(f2c2):
    # regular module mod the socle (1+g): quotient is the trivial module
    rel = Mat.from_rows([[1, 1]])
    m, _, _ = module_from_presentation(f2c2, rel, list(free_module(f2c2, 1).actions))
    assert m.orders == (0,)
    assert m.actions[1] == Mat.identity(1)


def test_invalid_orders_rejected(zz_alg):
    with pytest.raises(ModuleError):
        Module(zz_alg, (4, 2), (Mat.identity(2),))
    with pytest.raises(ModuleError):
        Module(zz_alg, (1,), (Mat.identity(1),))


def test_action_relation_violation(zc2):
    # torsion generator mapped into a free coordinate is rejected
    with pytest.raises(ModuleError):
        Module(zc2, (2, 0), (Mat.identity(2), Mat.from_rows([[1, 0], [1, 1]])))


# -- construction checks -----------------------------------------------------
# F2[C2] and Z[C2] have the unit as a basis vector, so only their non-unit
# actions are checked against the table; the triangular algebra's unit
# e11 + e22 is not a basis vector, so all of its actions are.


F2C2 = cyclic_group_algebra(F2, 2)
ZC2 = cyclic_group_algebra(ZZ, 2)
TRI = upper_triangular_algebra(F2)


def _m(*rows):
    return Mat.from_rows(rows)


def _tri_simple(k):
    # the simple module S_k: e_kk acts as 1, everything else as 0
    return Module(TRI, (0,), tuple(_m([int(i == k)]) for i in range(3)))


TABLE_BREAKS = {
    # g acts nilpotently, so g * g = 1 fails at (1, 1)
    "f2c2": lambda: Module(F2C2, (0, 0), (Mat.identity(2), _m([0, 1], [0, 0]))),
    # g acts as 2 on Z, so g * g acts as 4, not 1
    "zc2": lambda: Module(ZC2, (0,), (_m([1]), _m([2]))),
    # e12 * e11 = 0 fails, though e11 + e22 acts as 1
    "tri": lambda: Module(TRI, (0,), (_m([1]), _m([0]), _m([1]))),
}

UNIT_BREAKS = {
    # 1 and g both act as the same idempotent: the table holds, the unit does not
    "f2c2": lambda: Module(F2C2, (0, 0), (_m([1, 0], [0, 0]),) * 2),
    "zc2": lambda: Module(ZC2, (4,), (_m([0]), _m([0]))),
    # e11 + e22 acts as 2 = 0; e11 * e22 = 0 fails too, and the unit is reported
    "tri": lambda: Module(TRI, (0,), (_m([1]), _m([1]), _m([0]))),
}

NON_COMMUTING = {
    # trivial module into the regular one at the basis vector 1, which g moves
    "f2c2": lambda: Morphism(trivial_module(F2C2), free_module(F2C2, 1), _m([1], [0])),
    "zc2": lambda: Morphism(trivial_module(ZC2), free_module(ZC2, 1), _m([1], [0])),
    "tri": lambda: Morphism(_tri_simple(0), _tri_simple(1), _m([1])),
}

RELATION_BREAKS = {
    # 2 kills the source generator but not its image
    "z2_to_z": lambda: Morphism(cyclic_z_module(ZC2, 2), trivial_module(ZC2), _m([1])),
    "z2_to_z4": lambda: Morphism(cyclic_z_module(ZC2, 2), cyclic_z_module(ZC2, 4), _m([1])),
}


@pytest.mark.parametrize("case", sorted(TABLE_BREAKS))
def test_module_breaking_the_table_rejected(case):
    with pytest.raises(ModuleError, match="multiplication table"):
        TABLE_BREAKS[case]()


@pytest.mark.parametrize("case", sorted(UNIT_BREAKS))
def test_module_with_non_identity_unit_rejected(case):
    with pytest.raises(ModuleError, match="unit does not act"):
        UNIT_BREAKS[case]()


@pytest.mark.parametrize("case", sorted(NON_COMMUTING))
def test_morphism_not_commuting_rejected(case):
    with pytest.raises(ModuleError, match="does not commute"):
        NON_COMMUTING[case]()


@pytest.mark.parametrize("case", sorted(RELATION_BREAKS))
def test_z_morphism_breaking_a_relation_rejected(case):
    with pytest.raises(ModuleError, match="relation violation"):
        RELATION_BREAKS[case]()


def test_empty_matrix_shape_still_checked(f2c2, zc2):
    zero, r = zero_module(f2c2), free_module(f2c2, 1)
    assert Morphism(zero, r, Mat.zeros(2, 0)).matrix == Mat.zeros(2, 0)
    for src, dst, m in ((zero, r, Mat.zeros(0, 0)), (r, zero, Mat.zeros(0, 0)), (zero, zero, Mat.zeros(0, 3))):
        with pytest.raises(ModuleError, match="does not match"):
            Morphism(src, dst, m)
    with pytest.raises(ModuleError, match="different algebras"):
        Morphism(zero, zero_module(zc2), Mat.zeros(0, 0))


def test_zero_module_shared_per_algebra(f2c2, zc2):
    assert zero_module(f2c2) is zero_module(f2c2)
    assert zero_module(f2c2) == Module(f2c2, (), (Mat.zeros(0, 0),) * 2)
    assert zero_module(zc2).algebra is zc2


def test_non_unit_basis():
    assert cyclic_group_algebra(F2, 3).non_unit_basis == (1, 2)
    assert base_algebra(ZZ).non_unit_basis == ()
    assert upper_triangular_algebra(F2).non_unit_basis == (0, 1, 2)


# -- reduction: stored matrices equal the per-entry formula -----------------


def reference_reduce(m: Mat, orders, ring: BaseRing) -> Mat:
    ent = []
    for i in range(m.rows):
        d = orders[i]
        for x in m.row(i):
            x = ring.reduce(x)
            ent.append(x % d if d else x)
    return Mat(m.rows, m.cols, tuple(ent))


Z_ORDERS = [(), (0,), (2,), (6,), (2, 4, 0), (3, 0, 0), (2, 2, 6), (5, 0), (0, 0)]


@st.composite
def reduction_cases(draw):
    ring = draw(st.sampled_from([F2, F3, ZZ]))
    if ring.is_field:
        orders = (0,) * draw(st.integers(0, 3))
    else:
        orders = draw(st.sampled_from(Z_ORDERS))
    g = len(orders)
    ints = st.integers(-40, 40)

    def rand(rows, cols):
        return [[draw(ints) for _ in range(cols)] for _ in range(rows)]

    def killed():
        # row i a multiple of what its reduction kills: p, d_i, or nothing (Z, d_i = 0)
        mods = [ring.p or d for d in orders]
        return Mat.from_rows([[mods[i] * x for x in r] for i, r in enumerate(rand(g, g))], cols=g)

    sign = draw(st.sampled_from([1, -1]))
    actions = (Mat.identity(g) + killed(), Mat.identity(g).scale(sign) + killed())
    # a map M -> M: entry (i, j) must be killed by d_j modulo d_i
    f = [
        [0 if dj and not di else x * (di // gcd(di, dj) if dj else 1) for dj, x in zip(orders, r)]
        for di, r in zip(orders, rand(g, g))
    ]
    c = draw(st.integers(0, 4))
    loose = Mat.from_rows(rand(g, c), cols=c)
    return ring, orders, actions, Mat.from_rows(f, cols=g), loose


@settings(max_examples=150, deadline=None)
@given(reduction_cases())
def test_reduction_matches_per_entry_formula(case):
    ring, orders, actions, f, loose = case
    m = Module(cyclic_group_algebra(ring, 2), orders, actions)
    # stored actions, a stored morphism and a free-standing reduction
    for stored, given_ in zip(m.actions, actions):
        assert stored == reference_reduce(given_, orders, ring)
    assert Morphism(m, m, f).matrix == reference_reduce(f, orders, ring)
    assert m._reduce_matrix(loose) == reference_reduce(loose, orders, ring)


# -- kernels and cokernels ---------------------------------------------------


def test_kernel_times_two(zz_alg):
    z = z_free(zz_alg)
    f = Morphism(z, z, Mat.from_rows([[2]]))
    K, incl = kernel(f)
    assert K.is_zero


def test_kernel_identity(f2c2):
    r = free_module(f2c2, 1)
    K, _ = kernel(identity(r))
    assert K.is_zero


def test_kernel_augmentation(f2c2):
    # augmentation F2[C2] -> k kills 1+g; kernel is 1-dimensional
    r = free_module(f2c2, 1)
    k = trivial_module(f2c2)
    aug = Morphism(r, k, Mat.from_rows([[1, 1]]))
    K, incl = kernel(aug)
    assert K.gens == 1
    assert tuple(incl.matrix.col(0)) == (1, 1)
    # the socle carries the trivial action
    assert K.actions[1] == Mat.identity(1)


def test_cokernel_times_two(zz_alg):
    z = z_free(zz_alg)
    f = Morphism(z, z, Mat.from_rows([[2]]))
    C, q = cokernel(f)
    assert C.orders == (2,)
    assert is_epic(q)


def test_cokernel_of_zero_map(zz_alg):
    m = z_cyclic(zz_alg, 4)
    C, q = cokernel(zero_morphism(zero_module(zz_alg), m))
    assert C.orders == m.orders
    assert is_monic(q) and is_epic(q)


def test_cokernel_socle_inclusion(f2c2):
    r = free_module(f2c2, 1)
    k = trivial_module(f2c2)
    socle = Morphism(k, r, Mat.from_columns([[1, 1]]))
    C, q = cokernel(socle)
    assert C.gens == 1
    assert C.actions[1] == Mat.identity(1)  # trivial action on the quotient


def test_kernel_universality(f2c2):
    r = free_module(f2c2, 1)
    k = trivial_module(f2c2)
    aug = Morphism(r, k, Mat.from_rows([[1, 1]]))
    K, incl = kernel(aug)
    h = Morphism(k, r, Mat.from_columns([[1, 1]]))
    assert (aug @ h).is_zero
    lift = factor_through_mono(incl, h)
    assert lift is not None
    assert morphism_equal(incl @ lift, h)


def test_factor_through_mono_with_torsion(zz_alg):
    # k: Z/4 -> Z/2 + Z/8, 1 -> (1, 2), out of a source Z/2 + Z/4
    K = z_cyclic(zz_alg, 4)
    B = Module(zz_alg, (2, 8), (Mat.identity(2),))
    T = Module(zz_alg, (2, 4), (Mat.identity(2),))
    k = Morphism(K, B, Mat.from_rows([[1], [2]]))
    assert is_monic(k)
    h = Morphism(T, B, Mat.from_rows([[0, 1], [4, 6]]))  # t1 -> k(2), t2 -> k(3)
    x = factor_through_mono(k, h)
    assert x is not None and morphism_equal(k @ x, h)
    # brute force over every 1 x 2 matrix mod 4: exactly one morphism factors h
    found = []
    for e in ((u, v) for u in range(4) for v in range(4)):
        try:
            y = Morphism(T, K, Mat.from_rows([list(e)]))
        except ModuleError:
            continue
        if (k @ y).matrix == h.matrix:
            found.append(y)
    assert found == [x]
    # (1, 0) has order 2 but lies outside the image {0, (1, 2), (0, 4), (1, 6)}
    outside = Morphism(T, B, Mat.from_rows([[1, 0], [0, 0]]))
    assert factor_through_mono(k, outside) is None
    # for a non-monic k the relation rows decide: x = 1 solves Z -> Z/2 on
    # matrices, but the only morphism Z/2 -> Z is zero
    m2 = z_cyclic(zz_alg, 2)
    onto = Morphism(z_free(zz_alg), m2, Mat.identity(1))
    assert factor_through_mono(onto, identity(m2)) is None


def _zero_lattice_reference(src, dst):
    """Zero-morphism matrices of one block, flattened row-major."""
    n, m = dst.gens, src.gens
    cols = []
    for i, d in enumerate(dst.orders):
        if not d:
            continue
        for j in range(m):
            col = [0] * (n * m)
            col[i * m + j] = d
            cols.append(col)
    return Mat.from_columns(cols, rows=n * m)


@pytest.mark.parametrize("a,b", [(0, 1), (7, -3)])
def test_morphism_system_two_blocks(zz_alg, a, b):
    T = Module(zz_alg, (2, 4), (Mat.identity(2),))
    K = z_cyclic(zz_alg, 4)
    B = Module(zz_alg, (2, 8), (Mat.identity(2),))
    sys = MorphismSystem({a: (T, K), b: (K, B)})
    assert sys.total == 2 + 2
    g = Morphism(T, K, Mat.from_rows([[2, 3]]))
    k = Morphism(K, B, Mat.from_rows([[1], [2]]))
    mats = {a: g.matrix, b: k.matrix}
    assert sys.split(sys.flatten(mats)) == mats
    # zero columns: each block's own zero lattice, placed at its offset
    want = []
    for n in sorted(sys.blocks):
        z = _zero_lattice_reference(*sys.blocks[n])
        off = sys.offsets[n]
        for j in range(z.cols):
            want.append([0] * off + list(z.col(j)) + [0] * (sys.total - off - z.rows))
    assert sys.zero_columns() == Mat.from_columns(want, rows=sys.total)
    # k X_a + X_b g = 3 (k g), both unknowns morphisms
    for n in (a, b):
        sys.add_relations(n)
        sys.add_commutation(n)
    h = (k @ g).scale(3)
    sys.add_equation([(a, k.matrix, None), (b, None, g.matrix)], B, T, h.matrix)
    sol = sys.solve(ZZ)
    assert sol is not None
    xa, xb = Morphism(T, K, sol[a]), Morphism(K, B, sol[b])
    assert (k @ xa + xb @ g).matrix == h.matrix


# -- SES validation ----------------------------------------------------------


def test_ses_z_mod2(zz_alg):
    z = z_free(zz_alg)
    m2 = z_cyclic(zz_alg, 2)
    s = SES(Morphism(z, z, Mat.from_rows([[2]])), Morphism(z, m2, Mat.from_rows([[1]])))
    assert s.left.orders == (0,) and s.right.orders == (2,)


def test_ses_rejects_non_exact(zz_alg):
    z = z_free(zz_alg)
    m4 = z_cyclic(zz_alg, 4)
    with pytest.raises(ModuleError):
        SES(Morphism(z, z, Mat.from_rows([[4]])), Morphism(z, m4, Mat.from_rows([[2]])))


# -- biproducts, pullbacks, pushouts ------------------------------------------


def test_direct_sum_identities(f2c2):
    k = trivial_module(f2c2)
    r = free_module(f2c2, 1)
    b = direct_sum(k, r)
    assert morphism_equal(b.p1 @ b.i1, identity(k))
    assert morphism_equal(b.p2 @ b.i2, identity(r))
    assert (b.p1 @ b.i2).is_zero
    assert (b.p2 @ b.i1).is_zero


def test_direct_sum_with_zero(zz_alg):
    m = z_cyclic(zz_alg, 3)
    b = direct_sum(m, zero_module(zz_alg))
    assert b.module.orders == m.orders


def test_direct_sum_canonical_form(zz_alg):
    b = direct_sum(z_cyclic(zz_alg, 2), z_cyclic(zz_alg, 4))
    assert b.module.orders == (2, 4)
    b2 = direct_sum(z_cyclic(zz_alg, 2), z_cyclic(zz_alg, 3))
    assert b2.module.orders == (6,)
    assert morphism_equal(b2.p1 @ b2.i1, identity(z_cyclic(zz_alg, 2)))


def test_pullback_of_reductions(zz_alg):
    z = z_free(zz_alg)
    m2 = z_cyclic(zz_alg, 2)
    red = Morphism(z, m2, Mat.from_rows([[1]]))
    pb = pullback(red, red)
    assert pb.module.orders == (0, 0)  # rank-2 free module
    assert morphism_equal(red @ pb.to_x, red @ pb.to_y)


def test_pullback_along_identity(zz_alg):
    m = z_cyclic(zz_alg, 4)
    g = Morphism(z_free(zz_alg), m, Mat.from_rows([[1]]))
    pb = pullback(identity(m), g)
    assert pb.module.orders == g.src.orders
    assert is_monic(pb.to_y) and is_epic(pb.to_y)


def test_pullback_of_zero_is_kernel(zz_alg):
    z = z_free(zz_alg)
    m2 = z_cyclic(zz_alg, 2)
    f = Morphism(z, m2, Mat.from_rows([[1]]))
    zero_in = zero_morphism(zero_module(zz_alg), m2)
    pb = pullback(f, zero_in)
    K, _ = kernel(f)
    assert pb.module.orders == K.orders


def test_pullback_universal(zz_alg):
    z = z_free(zz_alg)
    m2 = z_cyclic(zz_alg, 2)
    red = Morphism(z, m2, Mat.from_rows([[1]]))
    pb = pullback(red, red)
    u = Morphism(z, z, Mat.from_rows([[3]]))
    v = Morphism(z, z, Mat.from_rows([[1]]))
    w = into_pullback(pb, u, v)
    assert morphism_equal(pb.to_x @ w, u)
    assert morphism_equal(pb.to_y @ w, v)


def test_pushout_times_two(zz_alg):
    z = z_free(zz_alg)
    po = pushout(Morphism(z, z, Mat.from_rows([[2]])), zero_morphism(z, zero_module(zz_alg)))
    assert po.module.orders == (2,)


def test_pushout_along_identity(zz_alg):
    m = z_cyclic(zz_alg, 6)
    g = Morphism(z_free(zz_alg), m, Mat.from_rows([[1]]))
    po = pushout(identity(g.src), g)
    assert po.module.orders == m.orders


def test_pushout_along_zero(zz_alg):
    a = z_cyclic(zz_alg, 2)
    b = z_cyclic(zz_alg, 3)
    po = pushout(zero_morphism(zero_module(zz_alg), a), zero_morphism(zero_module(zz_alg), b))
    assert po.module.orders == (6,)


def test_pushout_preserves_mono(f2c2):
    # pushout of a mono is mono
    k = trivial_module(f2c2)
    r = free_module(f2c2, 1)
    socle = Morphism(k, r, Mat.from_columns([[1, 1]]))
    po = pushout(socle, identity(k))
    assert is_monic(po.from_y)


def test_pushout_universal(zz_alg):
    z = z_free(zz_alg)
    m = z_cyclic(zz_alg, 2)
    po = pushout(Morphism(z, z, Mat.from_rows([[2]])), zero_morphism(z, zero_module(zz_alg)))
    u = Morphism(z, m, Mat.from_rows([[1]]))
    v = zero_morphism(zero_module(zz_alg), m)
    w = from_pushout(po, u, v)
    assert morphism_equal(w @ po.from_x, u)


def _pushout_cases():
    """(f, g, targets): F2[C2] with socle legs, Z and Z[C2] with torsion targets."""
    f2c2 = cyclic_group_algebra(F2, 2)
    k, r = trivial_module(f2c2), free_module(f2c2, 1)
    socle = Morphism(k, r, Mat.from_columns([[1, 1]]))
    yield socle, socle, [k, r, direct_sum(k, r).module]
    zz = base_algebra(ZZ)
    z = z_free(zz)
    twice = Morphism(z, z, Mat.from_rows([[2]]))
    to_z4 = Morphism(z, z_cyclic(zz, 4), Mat.from_rows([[1]]))
    yield twice, to_z4, [z_cyclic(zz, 2), z_cyclic(zz, 4), z_cyclic(zz, 8)]
    zc2 = cyclic_group_algebra(ZZ, 2)
    z_triv, reg = trivial_module(zc2), free_module(zc2, 1)
    norm = Morphism(z_triv, reg, Mat.from_columns([[1, 1]]))
    to_z4 = Morphism(z_triv, z_cyclic(zc2, 4), Mat.from_rows([[1]]))
    yield norm, to_z4, [z_cyclic(zc2, 2), z_cyclic(zc2, 4), direct_sum(reg, z_cyclic(zc2, 2)).module]


@pytest.mark.parametrize("case", range(3))
def test_from_pushout_triangles(case):
    f, g, targets = list(_pushout_cases())[case]
    po = pushout(f, g)
    checked = 0
    for t in targets:
        for s in hom_group(po.module, t).basis:
            u, v = s @ po.from_x, s @ po.from_y
            w = from_pushout(po, u, v)
            assert morphism_equal(w @ po.from_x, u)
            assert morphism_equal(w @ po.from_y, v)
            assert morphism_equal(w, s)  # the arrow out of a pushout is unique
            checked += 1
    assert checked


@pytest.mark.parametrize("case", range(3))
def test_from_pushout_rejects_non_commuting_square(case):
    f, g, targets = list(_pushout_cases())[case]
    po = pushout(f, g)
    rejected = 0
    for t in targets:
        s = zero_morphism(po.module, t)
        for e in hom_group(g.dst, t).basis:
            u, v = s @ po.from_x, s @ po.from_y + e
            if (e @ g).is_zero:  # u f = v g still holds
                assert morphism_equal(from_pushout(po, u, v) @ po.from_y, v)
                continue
            with pytest.raises(ModuleError):
                from_pushout(po, u, v)
            rejected += 1
    assert rejected


def test_from_pushout_raises_on_broken_square(zz_alg):
    z = z_free(zz_alg)
    po = pushout(Morphism(z, z, Mat.from_rows([[2]])), zero_morphism(z, zero_module(zz_alg)))
    with pytest.raises(ModuleError):
        from_pushout(po, identity(z), zero_morphism(zero_module(zz_alg), z))
    m = z_cyclic(zz_alg, 4)
    with pytest.raises(ModuleError):
        # u f = 2 != 0 = v g in Z/4, though Z/2 -> Z/4 (1 |-> 2) is a morphism
        from_pushout(po, Morphism(z, m, Mat.from_rows([[1]])), zero_morphism(zero_module(zz_alg), m))


# -- tensor ------------------------------------------------------------------


def test_tensor_unit_law(f2c2):
    k = trivial_module(f2c2)
    r = free_module(f2c2, 1)
    t = tensor_diagonal(k, r)
    assert t.gens == r.gens
    assert t.actions[1].is_zero() is False


def test_tensor_coprime_orders(zz_alg):
    t = tensor_diagonal(z_cyclic(zz_alg, 2), z_cyclic(zz_alg, 3))
    assert t.is_zero


def test_tensor_free_is_free(f2c2):
    # F2[C2] (x) M is free of rank dim M under the diagonal action
    r = free_module(f2c2, 1)
    k = trivial_module(f2c2)
    t = tensor_diagonal(r, direct_sum(k, r).module)
    assert t.gens == 2 * 3
    # freeness: g-action is conjugate to the swap-block form; check trace 0
    tr = sum(t.actions[1][i, i] for i in range(t.gens)) % 2
    assert tr == (3 % 2) * 0 + sum(
        free_module(f2c2, 3).actions[1][i, i] for i in range(6)
    ) % 2


def test_tensor_symmetry_structures(zz_alg, zc2):
    pairs = [
        (z_cyclic(zz_alg, 4), z_cyclic(zz_alg, 6)),
        (free_module(zz_alg, 2), z_cyclic(zz_alg, 2)),
    ]
    for a, b in pairs:
        assert tensor_diagonal(a, b).orders == tensor_diagonal(b, a).orders
    t1 = tensor_diagonal(free_module(zc2, 1), trivial_module(zc2))
    t2 = tensor_diagonal(trivial_module(zc2), free_module(zc2, 1))
    assert t1.orders == t2.orders


def test_tensor_morphisms_compose(f2c2):
    r = free_module(f2c2, 1)
    k = trivial_module(f2c2)
    aug = Morphism(r, k, Mat.from_rows([[1, 1]]))
    t = tensor_morphisms(aug, identity(k))
    assert t.src.gens == 2 and t.dst.gens == 1


def test_tensor_unsupported_algebra():
    tri = upper_triangular_algebra(F2)
    m = free_module(tri, 1)
    with pytest.raises(ModuleError):
        tensor_diagonal(m, m)


# -- purity -------------------------------------------------------------------


def test_purity_times_two_fails(zz_alg):
    z = z_free(zz_alg)
    m2 = z_cyclic(zz_alg, 2)
    s = SES(Morphism(z, z, Mat.from_rows([[2]])), Morphism(z, m2, Mat.from_rows([[1]])))
    rep = is_pure(s)
    assert rep.pure is False
    assert rep.witness == 2
    assert rep.complete


def test_purity_split_ses(zz_alg):
    a = z_cyclic(zz_alg, 2)
    b = direct_sum(a, z_free(zz_alg))
    s = SES(b.i1, b.p2)
    rep = is_pure(s)
    assert rep.pure is True


def test_purity_free_right_term(zz_alg):
    # 0 -> Z -(1,0)-> Z^2 -> Z -> 0 has free right-hand term, hence pure
    z = z_free(zz_alg)
    z2 = free_module(zz_alg, 2)
    i = Morphism(z, z2, Mat.from_columns([[1, 0]]))
    p = Morphism(z2, z, Mat.from_rows([[0, 1]]))
    rep = is_pure(SES(i, p))
    assert rep.pure is True


def test_restrict_to_base(zc2):
    m = free_module(zc2, 1)
    u = restrict_to_base(m)
    assert u.orders == (0, 0)
    assert u.algebra.rank == 1
