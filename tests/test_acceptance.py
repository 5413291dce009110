"""Acceptance suite: one criterion per test, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` (or scripts/run_acceptance.py).
Every tolerance is exact structural agreement; seeded counts follow the
criteria verbatim.
"""

import json
import random
from math import gcd

import pytest

from conftest import record_criterion

from abmc.linalg import Mat, ZZ, smith_normal_form, snf_diagonal
from abmc.modules import (
    Morphism,
    SES,
    base_algebra,
    cyclic_z_module,
    direct_sum,
    free_module,
    identity,
    is_monic,
    is_pure,
    kernel,
    cokernel,
    trivial_module,
    zero_module,
    zero_morphism,
)
from abmc.homology import (
    class_of_ses,
    ext,
    free_presentation,
    hom_group,
    is_projective,
    is_split,
    syzygy,
)
from abmc.catalog import Sampler
from abmc.cotorsion import (
    CotorsionError,
    FamilySpec,
    ProviderFailedError,
    check_orthogonality,
    class_member,
    gp_example,
    gp_test,
    is_thick,
    projectives,
    ring_injective_dimension,
    special_precover,
    special_preenvelope,
)
from abmc.model import (
    LiftProblem,
    classify_map,
    factorize,
    is_weak_equivalence,
    lift,
    monoidal_check,
    pushout_product,
    stable_hom,
)
from abmc.chains import (
    ChainClassSpec,
    chain_ext1,
    complex_catalog,
    cycles,
    dg_member,
    disk,
    is_exact,
    null_homotopy,
    chain_maps_basis,
    random_complex,
    sphere,
    suspension,
    tilde_member,
    _degreewise_split,
)
from abmc.presets import (
    algebra_f2c2,
    algebra_z,
    algebra_zc2,
    gillespie_suite,
    gorenstein_model_structure,
    qf_model_structure,
    sign_module_zc2,
    zc2_catalog,
)
from abmc import cli


# ---------------------------------------------------------------------------
# helpers and oracles
# ---------------------------------------------------------------------------


def canonical_cyclics(orders):
    """Invariant factors of a direct sum of cyclic groups (primary merge)."""
    primary = {}
    for c in orders:
        if c in (0, 1):
            continue
        d = 2
        while c > 1:
            e = 0
            while c % d == 0:
                c //= d
                e += 1
            if e:
                primary.setdefault(d, []).append(d**e)
            d += 1
    if not primary:
        return ()
    for p in primary:
        primary[p].sort(reverse=True)
    depth = max(len(v) for v in primary.values())
    invs = []
    for i in range(depth):
        f = 1
        for p, vals in primary.items():
            if i < len(vals):
                f *= vals[i]
        invs.append(f)
    return tuple(sorted(invs))


def ext1_gcd_oracle(m_orders, n_orders):
    """Closed form over Z: Ext(Z/a, Z/b) = Z/gcd(a, b), Ext(Z/a, Z) = Z/a,
    Ext(Z, -) = 0."""
    cyclics = []
    for a in m_orders:
        if a == 0:
            continue
        for b in n_orders:
            cyclics.append(gcd(a, b) if b else a)
    return canonical_cyclics(cyclics)


def ext1_snf_oracle(m_orders, n_orders):
    """Independent route: Ext^1(M, N) = coker(Hom(F0, N) -> Hom(K0, N)); with
    the canonical presentation the lifted Hom map scales coordinate blocks by
    the torsion orders, so each block contributes N/dN, computed from the SNF
    of [d*I | relations of N]."""
    pieces = []
    g = len(n_orders)
    for d in m_orders:
        if d == 0:
            continue
        if g == 0:
            continue
        cols = [[d if i == j else 0 for i in range(g)] for j in range(g)]
        for j, o in enumerate(n_orders):
            if o:
                cols.append([o if i == j else 0 for i in range(g)])
        mat = Mat.from_columns(cols, rows=g)
        diag = snf_diagonal(smith_normal_form(mat)[1])
        pieces.extend(x for x in diag if x not in (0, 1))
        pieces.extend(0 for _ in range(g - len(diag)))
    return canonical_cyclics(p for p in pieces if p != 0)


def z_modules_for_grid():
    alg = algebra_z()
    return {
        (0,): free_module(alg, 1),
        (2,): cyclic_z_module(alg, 2),
        (3,): cyclic_z_module(alg, 3),
        (4,): cyclic_z_module(alg, 4),
        (6,): cyclic_z_module(alg, 6),
        (2, 0): direct_sum(cyclic_z_module(alg, 2), free_module(alg, 1)).module,
    }


@pytest.fixture(scope="module")
def qf():
    return qf_model_structure()


@pytest.fixture(scope="module")
def gor():
    return gorenstein_model_structure()


# ---------------------------------------------------------------------------
# 1. Ext oracle agreement (36 cells)
# ---------------------------------------------------------------------------


def test_criterion_01_ext_oracle():
    mods = z_modules_for_grid()
    cells = 0
    ok = True
    for ao, m in mods.items():
        for bo, n in mods.items():
            got = ext(m, n, 1).invariants
            want_gcd = ext1_gcd_oracle(ao, bo)
            want_snf = ext1_snf_oracle(ao, bo)
            cells += 1
            if got != want_gcd or got != want_snf:
                ok = False
    record_criterion(1, "Ext oracle agreement", ok and cells == 36, f"{cells} cells")
    assert cells == 36
    assert ok


# ---------------------------------------------------------------------------
# 2. Splitting <=> zero class (200 seeded sequences)
# ---------------------------------------------------------------------------


def test_criterion_02_split_iff_zero_class():
    alg_z = algebra_z()
    z_pool = [
        cyclic_z_module(alg_z, 2),
        cyclic_z_module(alg_z, 3),
        cyclic_z_module(alg_z, 4),
        free_module(alg_z, 1),
        direct_sum(cyclic_z_module(alg_z, 2), free_module(alg_z, 1)).module,
    ]
    alg_f = algebra_f2c2()
    f_pool = [
        trivial_module(alg_f),
        free_module(alg_f, 1),
        direct_sum(trivial_module(alg_f), trivial_module(alg_f)).module,
    ]
    checked = 0
    agreed = 0
    for pool, seed in ((z_pool, 101), (f_pool, 202)):
        sampler = Sampler(pool, seed, tag="crit2")
        for _ in range(100):
            s = sampler.ses()
            sec = is_split(s)
            e, coords = class_of_ses(s)
            zero_class = all(
                (c % d == 0) if d else (c == 0) for c, d in zip(coords, e.invariants)
            )
            checked += 1
            if (sec is not None) == zero_class:
                agreed += 1
    ok = checked == 200 and agreed == checked
    record_criterion(2, "splitting iff zero Ext class", ok, f"{agreed}/{checked}")
    assert ok


# ---------------------------------------------------------------------------
# 3. QF round trip (both pairs, dim <= 4 catalog)
# ---------------------------------------------------------------------------


def test_criterion_03_qf_round_trip(qf):
    ok = True
    details = []
    for tag, pair in (("cw_f", qf.pair_cw_f), ("c_fw", qf.pair_c_fw)):
        dfam = [m for m in qf.catalog if class_member(pair.left, m).holds]
        efam = [m for m in qf.catalog if class_member(pair.right, m).holds]
        orth = check_orthogonality(dfam, efam, i_max=1)
        if not orth.passed:
            ok = False
            details.append(f"{tag}: orthogonality fails")
        for m in qf.catalog:
            try:
                special_precover(pair, m)
                special_preenvelope(pair, m)
            except CotorsionError as e:
                ok = False
                details.append(f"{tag}: approximation fails on {m.orders}: {e}")
    record_criterion(3, "QF(F2[C2]) pair round trip", ok, "; ".join(details) or "all-zero + approximations")
    assert ok


# ---------------------------------------------------------------------------
# 4. Factorization sweeps (200 morphisms per preset, both modes)
# ---------------------------------------------------------------------------


def _factorization_sweep(ms, seed, count):
    sampler = Sampler([m for m in ms.catalog if not m.is_zero], seed, tag="crit4")
    failures = []
    total = 0
    for _ in range(count):
        f = sampler.morphism()
        for mode in ("cof_then_acyclic_fib", "acyclic_cof_then_fib"):
            total += 1
            try:
                fac = factorize(ms, f, mode)
                assert fac.composite().matrix == f.matrix
            except ProviderFailedError as e:
                failures.append({"mode": mode, "stage": e.stage, "certificate": str(e.certificate)})
    return total, failures


def test_criterion_04_factorizations(qf, gor):
    total_qf, fail_qf = _factorization_sweep(qf, 11, 200)
    total_gor, fail_gor = _factorization_sweep(gor, 13, 200)
    ok = (
        total_qf == 400
        and not fail_qf
        and total_gor == 400
        and len(fail_gor) < 0.01 * total_gor
        and all("certificate" in f for f in fail_gor)
    )
    record_criterion(
        4,
        "factorization sweeps",
        ok,
        f"QF failures {len(fail_qf)}/400, Gorenstein failures {len(fail_gor)}/400",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Model axioms at verdict level
# ---------------------------------------------------------------------------


def _known_weq(sampler, alg):
    m = sampler.module()
    p = free_module(alg, sampler.rng.randint(1, 2))
    b = direct_sum(m, p)
    if sampler.rng.random() < 0.5:
        return b.i1  # M -> M + P
    return b.p1  # M + P -> M


def test_criterion_05_model_axioms(qf):
    alg = algebra_f2c2()
    pool = [m for m in qf.catalog if not m.is_zero]
    violations = []

    # two-out-of-three on 100 composable pairs (mixture forces real hits)
    sampler = Sampler(pool, 31, tag="crit5-2of3")
    hits = 0
    for i in range(100):
        if i % 2 == 0:
            f = _known_weq(sampler, alg)
            g_src = f.dst
            g = (
                _compose_into_weq(sampler, alg, g_src)
                if i % 4 == 0
                else sampler.morphism(src=g_src)
            )
        else:
            f = sampler.morphism()
            g = sampler.morphism(src=f.dst)
        flags = [
            is_weak_equivalence(qf, f)[0].holds,
            is_weak_equivalence(qf, g)[0].holds,
            is_weak_equivalence(qf, g @ f)[0].holds,
        ]
        if sum(flags) >= 2:
            hits += 1
            if not all(flags) and sum(flags) == 2:
                violations.append(("2of3", i))
    assert hits >= 25  # the sweep must actually exercise the axiom

    # composition closure of the five classes, 20 composable pairs each
    sampler = Sampler(pool, 37, tag="crit5-comp")
    for cls in ("cofibration", "fibration", "acyclic_cofibration", "acyclic_fibration", "weq"):
        built = 0
        guard = 0
        while built < 20 and guard < 400:
            guard += 1
            f, g = _composable_pair_in_class(qf, sampler, alg, cls)
            if f is None:
                continue
            built += 1
            comp = g @ f
            if cls == "weq":
                if not is_weak_equivalence(qf, comp)[0].holds:
                    violations.append((cls, repr(comp)))
            else:
                c = classify_map(qf, comp)
                if not getattr(c, cls).holds:
                    violations.append((cls, repr(comp)))
        assert built == 20, f"could not build 20 composable pairs for {cls}"

    # retract stability on 50 retracts
    sampler = Sampler(pool, 41, tag="crit5-retract")
    for _ in range(50):
        f = _known_weq(sampler, alg)
        t = free_module(alg, 1)
        bsrc = direct_sum(f.src, t)
        bdst = direct_sum(f.dst, t)
        big = Morphism(
            bsrc.module,
            bdst.module,
            bdst.i1.matrix @ f.matrix @ bsrc.p1.matrix + bdst.i2.matrix @ bsrc.p2.matrix,
        )
        if not is_weak_equivalence(qf, big)[0].holds:
            continue  # only certified weqs constrain their retracts
        retract = bdst.p1 @ big @ bsrc.i1
        if not is_weak_equivalence(qf, retract)[0].holds:
            violations.append(("retract", repr(retract)))

    # lifting totality on 100 valid squares
    sampler = Sampler(pool, 43, tag="crit5-lift")
    squares = 0
    while squares < 100:
        m = sampler.module()
        p_mod = free_module(alg, 1)
        i = direct_sum(m, p_mod).i1  # acyclic cofibration
        g = sampler.morphism(src=i.dst)
        s = sampler.split_ses()
        p = s.p  # epi = fibration over QF
        h = sampler.morphism(src=g.dst, dst=p.src)
        top = p @ h @ g @ i
        bottom = p @ h @ g
        problem = LiftProblem(i, p, h @ g @ i, bottom)
        squares += 1
        try:
            lf = lift(qf, problem)
        except Exception as e:
            violations.append(("lift", str(e)))
            continue
        if (lf @ i).matrix != (h @ g @ i).matrix or (p @ lf).matrix != bottom.matrix:
            violations.append(("lift-triangles", repr(problem)))

    ok = not violations
    record_criterion(5, "model axioms at verdict level", ok, f"{len(violations)} violations")
    assert ok, violations[:3]


def _compose_into_weq(sampler, alg, src):
    p = free_module(alg, 1)
    b = direct_sum(src, p)
    return b.i1


def _composable_pair_in_class(qf, sampler, alg, cls):
    rng = sampler.rng
    if cls in ("cofibration", "acyclic_cofibration"):
        m = sampler.module()
        p1 = free_module(alg, rng.randint(1, 2))
        p2 = free_module(alg, rng.randint(1, 2))
        if cls == "cofibration" and rng.random() < 0.5:
            s = sampler.ses()
            f = s.i
            b = direct_sum(f.dst, p1)
            return f, b.i1
        b1 = direct_sum(m, p1)
        b2 = direct_sum(b1.module, p2)
        return b1.i1, b2.i1
    if cls in ("fibration", "acyclic_fibration"):
        m = sampler.module()
        p1 = free_module(alg, rng.randint(1, 2))
        p2 = free_module(alg, rng.randint(1, 2))
        if cls == "fibration" and rng.random() < 0.5:
            s = sampler.ses()
            g = s.p
            b = direct_sum(g.src, p1)
            return b.p1, g
        b1 = direct_sum(m, p1)
        b2 = direct_sum(b1.module, p2)
        return b2.p1, b1.p1
    # weq: compose two known weak equivalences
    f = _known_weq(sampler, alg)
    g = _known_weq_from(sampler, alg, f.dst)
    return f, g


def _known_weq_from(sampler, alg, src):
    p = free_module(alg, sampler.rng.randint(1, 2))
    b = direct_sum(src, p)
    return b.i1


# ---------------------------------------------------------------------------
# 6. Thickness
# ---------------------------------------------------------------------------


def test_criterion_06_thickness(qf):
    pool = [m for m in qf.catalog if not m.is_zero]
    sampler = Sampler(pool, 17, tag="crit6")
    sample = [sampler.ses() for _ in range(30)]
    sample += [free_presentation(m) for m in pool]
    rep = is_thick(qf.acyclic, sample)
    alg_z = algebra_z()
    z_pool = [cyclic_z_module(alg_z, 2), free_module(alg_z, 1)]
    z_sample = [free_presentation(m) for m in z_pool]
    z_rep = is_thick(projectives(alg_z), z_sample)
    cert_found = any(
        "(0,) -> (0,) -> (2,)" in f.get("ses", "") for f in z_rep.failures
    )
    ok = rep.passed and (not z_rep.passed) and cert_found
    record_criterion(
        6,
        "thickness of W",
        ok,
        f"QF pass, Z failure certificate {'found' if cert_found else 'missing'}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Stable module category
# ---------------------------------------------------------------------------


def test_criterion_07_stable_homs(qf, gor):
    alg_zc2 = algebra_zc2()
    t = trivial_module(alg_zc2)
    # derived oracle: Hom(Z_triv, Z_triv) = Z; composites through Z[C2]
    # generate the index-2 subgroup
    h = hom_group(t, t)
    assert h.invariants == (0,)
    free = free_module(alg_zc2, 1)
    into = hom_group(t, free)
    outof = hom_group(free, t)
    coeffs = set()
    for a in into.basis:
        for b in outof.basis:
            comp = b @ a
            coeffs.add(comp.matrix[0, 0])
    sub_gcd = 0
    for c in coeffs:
        sub_gcd = gcd(sub_gcd, c)
    oracle_ok = sub_gcd == 2
    s1 = stable_hom(gor, t, t)
    alg_f = algebra_f2c2()
    k = trivial_module(alg_f)
    s2 = stable_hom(qf, k, k)
    # invariance under adding a projective summand, 50 seeded triples
    pool = [m for m in qf.catalog if not m.is_zero]
    sampler = Sampler(pool, 47, tag="crit7")
    stable = 0
    for _ in range(50):
        m = sampler.module()
        n = sampler.module()
        p = free_module(alg_f, sampler.rng.randint(1, 2))
        mp = direct_sum(m, p).module
        if stable_hom(qf, m, n).invariants == stable_hom(qf, mp, n).invariants:
            stable += 1
    ok = oracle_ok and s1.invariants == (2,) and s2.invariants == (2,) and stable == 50
    record_criterion(
        7,
        "stable module category",
        ok,
        f"Z[C2] oracle gcd={sub_gcd}, stable {stable}/50",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Gorenstein operations
# ---------------------------------------------------------------------------


def test_criterion_08_gorenstein(gor):
    from abmc.modules import upper_triangular_algebra
    from abmc.linalg import BaseRing

    d_qf = ring_injective_dimension(algebra_f2c2())
    d_tri = ring_injective_dimension(upper_triangular_algebra(BaseRing(2)))
    alg = algebra_zc2()
    t = trivial_module(alg)
    v = gp_test(t, 1)
    gp_ok = v.status == "yes_relative" and v.family == FamilySpec() and not is_projective(t)
    sampler = Sampler([m for m in gor.catalog if not m.is_zero], 53, tag="crit8")
    example_fails = 0
    for _ in range(30):
        g = gp_example(sampler.module(), 1)
        if not gp_test(g, 1).holds:
            example_fails += 1
    ok = d_qf == 0 and d_tri == 1 and gp_ok and example_fails == 0
    record_criterion(
        8,
        "Gorenstein operations",
        ok,
        f"id(F2[C2])={d_qf}, id(tri)={d_tri}, gp examples {30 - example_fails}/30",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Gillespie suite
# ---------------------------------------------------------------------------


def _exact_complex_family(alg):
    k = trivial_module(alg)
    r = free_module(alg, 1)
    socle = Morphism(k, r, Mat.from_columns([[1, 1]]))
    mult = Morphism(r, r, Mat.from_rows([[1, 1], [1, 1]]))
    aug = Morphism(r, k, Mat.from_rows([[1, 1]]))
    from abmc.chains import complex_from_entries

    base = [
        complex_from_entries(alg, 0, [k, r, k], [aug, socle]),
        complex_from_entries(alg, 0, [k, r, r, k], [aug, mult, socle]),
        disk(1, k),
        disk(2, r),
        disk(1, direct_sum(k, r).module),
    ]
    out = list(base)
    for c in base:
        out.append(suspension(c))
        out.append(suspension(suspension(c)))
    return out


def test_criterion_09_gillespie():
    suite = gillespie_suite(max_dim=3, max_length=4, seed=0)
    alg = suite.algebra
    mods = [m for m in suite.module_catalog if not m.is_zero]
    rng = random.Random(59)
    problems = []

    # disk isomorphism on 50 seeded triples (reduction vs general route)
    disk_ok = 0
    for _ in range(50):
        y = random_complex(mods, rng, suite.max_length)
        m = rng.choice(mods)
        n = rng.randint(y.lo, y.hi + 1)
        x = disk(n + 1, m)
        oracle = ext(y.entry(n), m, 1).invariants if y.entry(n).gens else ()
        got = chain_ext1(y, x, route="resolution").invariants
        via = chain_ext1(y, x, route="disk").invariants
        if got == oracle == via:
            disk_ok += 1
        else:
            problems.append(("disk", oracle, got, via))

    # sphere isomorphism on 50 seeded admissible triples
    exact_family = _exact_complex_family(alg)
    sphere_cases = []
    for y in exact_family:
        for n in range(y.lo, y.hi + 2):
            for m in (trivial_module(alg), free_module(alg, 1), direct_sum(trivial_module(alg), trivial_module(alg)).module):
                x = sphere(n, m)
                if not x.is_zero and _degreewise_split(y, x):
                    sphere_cases.append((y, n, m, x))
    rng.shuffle(sphere_cases)
    sphere_cases = sphere_cases[:50]
    sphere_ok = 0
    for y, n, m, x in sphere_cases:
        z, _ = cycles(y, n - 1)
        oracle = ext(z, m, 1).invariants if z.gens else ()
        got = chain_ext1(y, x, route="resolution").invariants
        via = chain_ext1(y, x, route="sphere").invariants
        if got == oracle == via:
            sphere_ok += 1
        else:
            problems.append(("sphere", n, oracle, got, via))

    # dg intersect exact = tilde on the full generated catalog
    catalog = complex_catalog(mods, suite.max_length, seed=0, random_count=12)
    tilde_l = ChainClassSpec(suite.base_pair, "tilde_left")
    tilde_r = ChainClassSpec(suite.base_pair, "tilde_right")
    tl_members = [c for c in catalog if tilde_member(tilde_l, c).holds]
    tr_members = [c for c in catalog if tilde_member(tilde_r, c).holds]
    dg_l = ChainClassSpec(suite.base_pair, "dg_left", tuple(tr_members))
    dg_r = ChainClassSpec(suite.base_pair, "dg_right", tuple(tl_members))
    compat_bad = 0
    for c in catalog:
        if (dg_member(dg_l, c).holds and is_exact(c)) != tilde_member(tilde_l, c).holds:
            compat_bad += 1
        if (dg_member(dg_r, c).holds and is_exact(c)) != tilde_member(tilde_r, c).holds:
            compat_bad += 1

    # chain-level orthogonality all zero
    dg_r_members = [c for c in catalog if dg_member(dg_r, c).holds]
    orth_bad = 0
    for y in tl_members:
        for x in dg_r_members:
            if not chain_ext1(y, x).is_zero:
                orth_bad += 1

    # null-homotopy soundness: identities exact, absences exhausted
    nh_bad = 0
    nh_checked = 0
    small = [m for m in mods if m.gens <= 2]
    rng2 = random.Random(61)
    absence_checked = 0
    for _ in range(40):
        y1 = random_complex(small, rng2, 2)
        y2 = random_complex(small, rng2, 2)
        maps = chain_maps_basis(y1, y2)
        for f in maps[:2]:
            nh_checked += 1
            h = null_homotopy(f)
            if h is not None:
                bd = h.boundary()
                if any(bd.part(n).matrix != f.part(n).matrix for n in y1.degrees()):
                    nh_bad += 1
            else:
                if _brute_force_has_homotopy(f):
                    nh_bad += 1
                absence_checked += 1

    ok = (
        disk_ok == 50
        and sphere_ok == len(sphere_cases) == 50
        and compat_bad == 0
        and orth_bad == 0
        and nh_bad == 0
    )
    record_criterion(
        9,
        "Gillespie suite",
        ok,
        f"disk {disk_ok}/50, sphere {sphere_ok}/{len(sphere_cases)}, "
        f"compat bad {compat_bad}, orth bad {orth_bad}, null-homotopy bad {nh_bad} "
        f"(absences exhausted: {absence_checked})",
    )
    assert ok, problems[:3]


def _brute_force_has_homotopy(f) -> bool:
    """Exhaust every degreewise F2 matrix assignment on small instances."""
    x, y = f.src, f.dst
    blocks = []
    for n in range(x.lo, x.hi + 1):
        s, d = x.entry(n), y.entry(n + 1)
        if s.gens and d.gens:
            blocks.append((n, s, d))
    total_bits = sum(s.gens * d.gens for _, s, d in blocks)
    if total_bits > 14:
        return null_homotopy(f) is not None  # out of brute-force range
    for code in range(1 << total_bits):
        mats = {}
        shift = 0
        valid = True
        for n, s, d in blocks:
            bits = (code >> shift) & ((1 << (s.gens * d.gens)) - 1)
            shift += s.gens * d.gens
            ent = tuple((bits >> t) & 1 for t in range(d.gens * s.gens))
            try:
                mats[n] = Morphism(s, d, Mat(d.gens, s.gens, ent))
            except Exception:
                valid = False
                break
        if not valid:
            continue
        ok = True
        for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
            src, tgt = x.entry(n), y.entry(n)
            acc = Mat.zeros(tgt.gens, src.gens)
            if n in mats:
                acc = acc + y.diff(n + 1).matrix @ mats[n].matrix
            if n - 1 in mats:
                acc = acc + mats[n - 1].matrix @ x.diff(n).matrix
            if tgt.reduce_vector(acc) != f.part(n).matrix:
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# 10. Monoidal structure
# ---------------------------------------------------------------------------


def test_criterion_10_monoidal(qf):
    rep = monoidal_check(qf, list(qf.catalog), seed=0)
    pool = [m for m in qf.catalog if not m.is_zero]
    sampler = Sampler(pool, 67, tag="crit10")
    pp_ok = 0
    built = 0
    guard = 0
    while built < 50 and guard < 500:
        guard += 1
        s1 = sampler.ses()
        s2 = sampler.ses()
        i, j = s1.i, s2.i
        if i.src.is_zero and j.src.is_zero and i.dst.is_zero:
            continue
        built += 1
        pp = pushout_product(i, j)
        if classify_map(qf, pp).cofibration.holds:
            pp_ok += 1
    ok = rep.passed and built == 50 and pp_ok == 50
    record_criterion(10, "monoidal conditions", ok, f"4 conditions pass, pushout-products {pp_ok}/{built}")
    assert ok


# ---------------------------------------------------------------------------
# 11. Purity
# ---------------------------------------------------------------------------


def test_criterion_11_purity():
    alg = algebra_z()
    pool = [
        cyclic_z_module(alg, 2),
        cyclic_z_module(alg, 3),
        cyclic_z_module(alg, 4),
        free_module(alg, 1),
        free_module(alg, 2),
    ]
    sampler = Sampler(pool, 71, tag="crit11")
    free_right_ok = 0
    checked = 0
    for _ in range(20):
        a = sampler.module()
        f = free_module(alg, sampler.rng.randint(1, 2))
        b = direct_sum(a, f)
        s = SES(b.i1, b.p2)  # free right-hand term
        checked += 1
        if is_pure(s).pure:
            free_right_ok += 1
    z = free_module(alg, 1)
    m2 = cyclic_z_module(alg, 2)
    s = SES(Morphism(z, z, Mat.from_rows([[2]])), Morphism(z, m2, Mat.from_rows([[1]])))
    rep = is_pure(s)
    ok = free_right_ok == checked == 20 and not rep.pure and rep.witness == 2
    record_criterion(
        11, "purity", ok, f"free-right {free_right_ok}/{checked}, witness Z/{rep.witness}"
    )
    assert ok


# ---------------------------------------------------------------------------
# 12. Determinism
# ---------------------------------------------------------------------------


def test_criterion_12_determinism(capsys):
    runs = {}
    commands = [
        ("check-pair", "qf-f2c2"),
        ("gorenstein", "gorenstein-zc2"),
        ("gillespie-verify", "gillespie-proj-f2c2"),
        ("check-pair", "purity-z"),
    ]
    ok = True
    for cmd, preset in commands:
        outs = []
        for _ in range(2):
            code = cli.main([cmd, "--preset", preset, "--seed", "0", "--json"])
            captured = capsys.readouterr().out
            payload = json.loads(captured)
            assert code == 0, (cmd, preset, payload)
            h = payload.pop("report_hash")
            payload.pop("timing_ms")
            outs.append((json.dumps(payload, sort_keys=True), h))
        if outs[0] != outs[1]:
            ok = False
        runs[(cmd, preset)] = outs[0][1]
    record_criterion(12, "determinism", ok, f"{len(commands)} preset reports, re-run byte-identical")
    assert ok
