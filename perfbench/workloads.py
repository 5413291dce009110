"""The four workloads: operation batches over abmc, each with its checks.

A workload's build function is the set-up a user pays before the first
answer: the preset structure with its validation, the catalog, the samplers
and the inputs they draw.  It returns streams of items, each item a list of
``Op``; ``build(name, seed)`` orders them into the batch.  Each op runs one top-level
abmc call and carries an independent check of its output (see ``oracles``).

The inputs are the acceptance criteria's own streams: the same pools, tags,
seeds and construction steps.  The benchmark seed orders the items within
each stream (seed 0 keeps stream order), which moves cache misses between
items but keeps the batch's work.  Redrawing the streams' coefficients from
the seed instead moved the Gorenstein batch between 3.5 s and 6.1 s across
seeds, more than the benchmark's bounds allow.

All abmc calls go through module attributes so that the tracer's rebinding
reaches them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import abmc.catalog as catalog
import abmc.chains as chains
import abmc.cotorsion as cotorsion
import abmc.homology as homology
import abmc.model as model
import abmc.modules as modules
import abmc.presets as presets

import oracles

MODES = ("cof_then_acyclic_fib", "acyclic_cof_then_fib")


@dataclass(eq=False)
class Op:
    kind: str
    run: Callable[[], object]
    # check(output, {op: output} for the whole batch) -> problems
    check: Callable[[object, dict], list[str]]


def _no_check(out, outs):
    return []


# ---------------------------------------------------------------------------
# qf-model: many small problems over the QF(F2[C2]) catalog
# ---------------------------------------------------------------------------

QF_FACTORIZE_MAPS = 30   # criterion 4, seed 11: each map in both modes
QF_WEQ_PAIRS = 10        # criterion 5 two-out-of-three, seed 31: f, g, g f
QF_CLASS_PAIRS = 4       # criterion 5 composition closure, seed 37, per class
QF_LIFT_SQUARES = 15     # criterion 5 lifting, seed 43
QF_STABLE_TRIPLES = 15   # criterion 7, seed 47: M, M + P against N


def _known_weq(s, alg):
    m = s.module()
    b = modules.direct_sum(m, modules.free_module(alg, s.rng.randint(1, 2)))
    return b.i1 if s.rng.random() < 0.5 else b.p1


def _composable_pair(s, alg, cls):
    """Criterion 5's composable pairs in one class of maps."""
    rng = s.rng
    m = s.module()
    p1 = modules.free_module(alg, rng.randint(1, 2))
    p2 = modules.free_module(alg, rng.randint(1, 2))
    if cls in ("cofibration", "acyclic_cofibration"):
        if cls == "cofibration" and rng.random() < 0.5:
            f = s.ses().i
            return f, modules.direct_sum(f.dst, p1).i1
        b1 = modules.direct_sum(m, p1)
        return b1.i1, modules.direct_sum(b1.module, p2).i1
    if cls == "fibration" and rng.random() < 0.5:
        g = s.ses().p
        return modules.direct_sum(g.src, p1).p1, g
    b1 = modules.direct_sum(m, p1)
    return modules.direct_sum(b1.module, p2).p1, b1.p1


def _check_f2_factorization(f):
    return lambda out, outs: oracles.check_f2_factorization(f, out.first, out.second)


def _check_weq(f):
    return lambda out, outs: oracles.check_weak_equivalence(f, out[0].holds)


def _check_classification(f):
    names = ("cofibration", "fibration", "acyclic_cofibration", "acyclic_fibration")
    return lambda out, outs: oracles.check_qf_classification(
        f, {n: getattr(out, n).holds for n in names}
    )


def _check_f2_stable(m, n):
    def check(out, outs):
        return oracles.check_f2_groups(
            m,
            n,
            homology.hom_group(m, n).invariants,
            homology.ext(m, n, 1).invariants,
            out.invariants,
        )

    return check


def build_qf_model() -> list[list[list[Op]]]:
    ms = presets.qf_model_structure()
    alg = presets.algebra_f2c2()
    pool = [m for m in ms.catalog if not m.is_zero]

    s = catalog.Sampler(pool, 11, tag="crit4")
    factorizations = []
    for _ in range(QF_FACTORIZE_MAPS):
        f = s.morphism()
        factorizations.append([
            Op("factorize", lambda f=f, mode=mode: model.factorize(ms, f, mode),
               _check_f2_factorization(f))
            for mode in MODES])

    s = catalog.Sampler(pool, 31, tag="crit5-2of3")
    weqs = []
    for i in range(QF_WEQ_PAIRS):
        if i % 2 == 0:
            f = _known_weq(s, alg)
            if i % 4 == 0:
                g = modules.direct_sum(f.dst, modules.free_module(alg, 1)).i1
            else:
                g = s.morphism(src=f.dst)
        else:
            f = s.morphism()
            g = s.morphism(src=f.dst)
        weqs.append([
            Op("is_weak_equivalence", lambda h=h: model.is_weak_equivalence(ms, h), _check_weq(h))
            for h in (f, g, g @ f)])

    s = catalog.Sampler(pool, 37, tag="crit5-comp")
    classified = []
    for cls in ("cofibration", "fibration", "acyclic_cofibration", "acyclic_fibration"):
        for _ in range(QF_CLASS_PAIRS):
            f, g = _composable_pair(s, alg, cls)
            comp = g @ f
            classified.append([Op("classify_map", lambda c=comp: model.classify_map(ms, c),
                                  _check_classification(comp))])

    s = catalog.Sampler(pool, 43, tag="crit5-lift")
    lifts = []
    for _ in range(QF_LIFT_SQUARES):
        m = s.module()
        i = modules.direct_sum(m, modules.free_module(alg, 1)).i1
        g = s.morphism(src=i.dst)
        p = s.split_ses().p
        h = s.morphism(src=g.dst, dst=p.src)
        top, bottom = h @ g @ i, p @ h @ g
        problem = model.LiftProblem(i, p, top, bottom)
        lifts.append([Op("lift", lambda pr=problem: model.lift(ms, pr),
                         lambda out, outs, i=i, p=p, t=top, b=bottom:
                         oracles.check_f2_lift(i, p, t, b, out))])

    s = catalog.Sampler(pool, 47, tag="crit7")
    stables = []
    for _ in range(QF_STABLE_TRIPLES):
        m, n = s.module(), s.module()
        mp = modules.direct_sum(m, modules.free_module(alg, s.rng.randint(1, 2))).module
        stables.append([
            Op("stable_hom", lambda a=src, b=n: model.stable_hom(ms, a, b), _check_f2_stable(src, n))
            for src in (m, mp)])
    return [factorizations, weqs, classified, lifts, stables]


# ---------------------------------------------------------------------------
# qf-monoidal: pushout-products, large flattened F2 systems
# ---------------------------------------------------------------------------

PP_PRODUCTS = 6          # criterion 10, seed 67, in stream order
PP_MAX_TARGET = 24       # generators of B (x) D; larger products are skipped


def build_qf_monoidal() -> list[list[list[Op]]]:
    ms = presets.qf_model_structure()
    pool = [m for m in ms.catalog if not m.is_zero]
    s = catalog.Sampler(pool, 67, tag="crit10")
    ops: list[Op] = []

    def product_then_classify(i, j):
        pp = model.pushout_product(i, j)
        return pp, model.classify_map(ms, pp)

    def check(i, j):
        def run_check(out, outs):
            pp, cls = out
            problems = oracles.check_pushout_product(i, j, pp)
            if not cls.cofibration.holds:
                problems.append("pushout-product of cofibrations is not a cofibration")
            return problems

        return run_check

    while len(ops) < PP_PRODUCTS:
        i, j = s.ses().i, s.ses().i
        if i.src.is_zero and j.src.is_zero and i.dst.is_zero:
            continue
        if i.dst.gens * j.dst.gens > PP_MAX_TARGET:
            continue
        ops.append(Op("pushout_product", lambda i=i, j=j: product_then_classify(i, j), check(i, j)))
    return [[[op] for op in ops]]


# ---------------------------------------------------------------------------
# gorenstein-zc2: integer-only work over Z[C2]
# ---------------------------------------------------------------------------

GOR_FACTORIZE_MAPS = 4   # criterion 4, seed 13: each map in both modes
GOR_GP_EXAMPLES = 10     # criterion 8, seed 53


def build_gorenstein() -> list[list[list[Op]]]:
    ms = presets.gorenstein_model_structure()
    alg = presets.algebra_zc2()
    pool = [m for m in ms.catalog if not m.is_zero]
    triv = modules.trivial_module(alg)
    sign = presets.sign_module_zc2()
    reg = modules.free_module(alg, 1)

    s = catalog.Sampler(pool, 13, tag="crit4")
    factorizations = []
    for _ in range(GOR_FACTORIZE_MAPS):
        f = s.morphism()
        factorizations.append([
            Op("factorize", lambda f=f, mode=mode: model.factorize(ms, f, mode),
               lambda out, outs, f=f: oracles.check_z_composite(f, out.first, out.second))
            for mode in MODES])

    s = catalog.Sampler(pool, 53, tag="crit8")
    members = []
    for _ in range(GOR_GP_EXAMPLES):
        g = cotorsion.gp_example(s.module(), 1)

        def check_gp(out, outs, g=g):
            ext_zero = homology.ext(g, reg, 1).is_zero
            gp = cotorsion.gp_test(g, 1).holds
            if out.holds == gp == ext_zero:
                return []
            return [f"class_member {out.holds}, gp_test {gp}, Ext^1(M, Z[C2]) = 0 {ext_zero}"]

        members.append([Op("class_member", lambda g=g: cotorsion.class_member(ms.cofibrant, g),
                           check_gp)])

    # each stable Hom's check also holds Ext^i(Z, N), i = 1..4, of its target N
    # to the group cohomology of C2
    def check_stable(n, name, want):
        def check(out, outs):
            problems = oracles.check_invariants(out.invariants, want, "stable Hom")
            for degree in range(1, 5):
                problems += oracles.check_invariants(
                    homology.ext(triv, n, degree).invariants,
                    oracles.group_cohomology_c2(name, degree),
                    f"Ext^{degree}(Z, {name})")
            return problems

        return check

    stables = [
        [Op("stable_hom", lambda m=m, n=n: model.stable_hom(ms, m, n), check_stable(n, name, want))]
        for m, n, name, want in ((triv, triv, "trivial", (2,)), (triv, reg, "regular", ()),
                                 (sign, sign, "sign", (2,)))]
    return [factorizations, members, stables]


# ---------------------------------------------------------------------------
# gillespie-chains: chain Ext, homotopies and tilde/dg classes over F2[C2]
# ---------------------------------------------------------------------------

CH_DISK_TRIPLES = 50     # criterion 9, seed 59: resolution and disk routes
CH_SPHERE_CASES = 50     # criterion 9: resolution and sphere routes
CH_SPLIT_PAIRS = 20      # catalog pairs, degreewise split: automatic and resolution
CH_HOMOTOPY_PAIRS = 40   # criterion 9, seed 61: null homotopies of basis maps
CH_CATALOG_RANDOM = 12   # random complexes added to the complex catalog


def _exact_complex_family(alg):
    k = modules.trivial_module(alg)
    r = modules.free_module(alg, 1)
    mat = modules.Mat
    socle = modules.Morphism(k, r, mat.from_rows([[1], [1]]))
    mult = modules.Morphism(r, r, mat.from_rows([[1, 1], [1, 1]]))
    aug = modules.Morphism(r, k, mat.from_rows([[1, 1]]))
    base = [
        chains.complex_from_entries(alg, 0, [k, r, k], [aug, socle]),
        chains.complex_from_entries(alg, 0, [k, r, r, k], [aug, mult, socle]),
        chains.disk(1, k),
        chains.disk(2, r),
        chains.disk(1, modules.direct_sum(k, r).module),
    ]
    out = list(base)
    for c in base:
        out.append(chains.suspension(c))
        out.append(chains.suspension(chains.suspension(c)))
    return out


def _module_ext(m, n):
    return homology.ext(m, n, 1).invariants if m.gens else ()


def build_gillespie() -> list[list[list[Op]]]:
    suite = presets.gillespie_suite(max_dim=3, max_length=4, seed=0)
    alg = suite.algebra
    mods = [m for m in suite.module_catalog if not m.is_zero]

    def ext1(y, x, route):
        return lambda: chains.chain_ext1(y, x, route=route)

    def agrees_with(oracle, what):
        return lambda out, outs: oracles.check_invariants(out.invariants, oracle(), what)

    def cross_routes(y, x, routes, oracle):
        return [Op("chain_ext1", ext1(y, x, route), agrees_with(oracle, f"{route} route"))
                for route in routes]

    rng = random.Random(59)
    disks = []
    for _ in range(CH_DISK_TRIPLES):
        y = chains.random_complex(mods, rng, suite.max_length)
        m = rng.choice(mods)
        n = rng.randint(y.lo, y.hi + 1)
        x = chains.disk(n + 1, m)
        disks.append(cross_routes(y, x, ("resolution", "disk"),
                                  lambda y=y, m=m, n=n: _module_ext(y.entry(n), m)))

    k = modules.trivial_module(alg)
    r = modules.free_module(alg, 1)
    cases = []
    for y in _exact_complex_family(alg):
        for n in range(y.lo, y.hi + 2):
            for m in (k, r, modules.direct_sum(k, k).module):
                x = chains.sphere(n, m)
                if not x.is_zero and chains._degreewise_split(y, x):
                    cases.append((y, n, m, x))
    rng.shuffle(cases)
    spheres = [
        cross_routes(y, x, ("resolution", "sphere"),
                     lambda y=y, m=m, n=n: _module_ext(chains.cycles(y, n - 1)[0], m))
        for y, n, m, x in cases[:CH_SPHERE_CASES]]

    catalog_ = chains.complex_catalog(mods, suite.max_length, seed=0,
                                      random_count=CH_CATALOG_RANDOM)
    split = [(y, x) for y in catalog_ for x in catalog_
             if chains._degreewise_split(y, x) and not chains._is_disk(x)
             and not chains._is_sphere(x)]
    rng.shuffle(split)
    splits = []
    for y, x in split[:CH_SPLIT_PAIRS]:
        res = Op("chain_ext1", ext1(y, x, "resolution"), _no_check)
        splits.append([res, Op("chain_ext1", ext1(y, x, None),
                               lambda out, outs, res=res: oracles.check_invariants(
                                   out.invariants, outs[res].invariants,
                                   f"{out.route} vs resolution route"))])

    rng2 = random.Random(61)
    small = [m for m in mods if m.gens <= 2]
    homotopies = []
    for _ in range(CH_HOMOTOPY_PAIRS):
        y1 = chains.random_complex(small, rng2, 2)
        y2 = chains.random_complex(small, rng2, 2)
        for f in chains.chain_maps_basis(y1, y2)[:2]:
            homotopies.append([Op("null_homotopy", lambda f=f: chains.null_homotopy(f),
                                  lambda out, outs, f=f: oracles.check_null_homotopy(f, out))])

    spec = chains.ChainClassSpec
    tilde_l = spec(suite.base_pair, "tilde_left")
    tilde_r = spec(suite.base_pair, "tilde_right")
    tl = tuple(c for c in catalog_ if chains.tilde_member(tilde_l, c).holds)
    tr = tuple(c for c in catalog_ if chains.tilde_member(tilde_r, c).holds)
    dg_l = spec(suite.base_pair, "dg_left", tr)
    dg_r = spec(suite.base_pair, "dg_right", tl)

    def memberships(c):
        return (chains.tilde_member(tilde_l, c), chains.tilde_member(tilde_r, c),
                chains.dg_member(dg_l, c), chains.dg_member(dg_r, c))

    def check_dg(c):
        def check(out, outs):
            t_l, t_r, d_l, d_r = (v.holds for v in out)
            exact = oracles.f2_is_exact(c)
            return (oracles.check_dg_exact_is_tilde(exact, d_l, t_l, "left")
                    + oracles.check_dg_exact_is_tilde(exact, d_r, t_r, "right"))

        return check

    classes = [[Op("tilde_dg_member", lambda c=c: memberships(c), check_dg(c))] for c in catalog_]
    return [disks, spheres, splits, homotopies, classes]


WORKLOADS = {
    "qf-model": build_qf_model,
    "qf-monoidal": build_qf_monoidal,
    "gorenstein-zc2": build_gorenstein,
    "gillespie-chains": build_gillespie,
}


def build(name: str, seed: int) -> list[Op]:
    """The batch: each stream's items in seeded order, streams in criterion order.

    An item's operations (one map in both modes, one case by two routes) stay
    together, so the seed never separates operations that share their work.
    """
    streams = WORKLOADS[name]()
    if seed:
        rng = random.Random(f"{seed}:{name}")
        for items in streams:
            rng.shuffle(items)
    return [op for items in streams for item in items for op in item]
