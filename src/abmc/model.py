"""The abelian model structure induced by two compatible complete cotorsion
pairs: map classification, both factorizations, the lifting solver, the
weak-equivalence decision, stable homs, and the monoidal checker.

Weak equivalences are decided through one fixed factorization route
(cofibration followed by acyclic fibration); agreement with the abstract
definition is exercised by the two-out-of-three and composition sweeps in the
test suite rather than assumed.  All verdicts carry certificates; no bare
booleans cross module boundaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import Mat, QuotientGroup, quotient_group
from .modules import (
    Module,
    Morphism,
    MorphismSystem,
    SES,
    _complex_exact_three,
    direct_sum,
    identity,
    into_pullback,
    is_epic,
    is_monic,
    kernel,
    cokernel,
    pair_from_sum,
    pullback,
    pushout,
    from_pushout,
    tensor_with_maps,
    tensor_morphisms,
    trivial_module,
    zero_morphism,
)
from .homology import free_presentation, hom_group, hom_solution_columns
from .cotorsion import (
    ApproxSES,
    ClassDescriptor,
    CotorsionPair,
    CotorsionError,
    OrthReport,
    ProviderFailedError,
    ThicknessReport,
    Verdict,
    check_orthogonality,
    class_member,
    is_thick,
    special_precover,
    special_preenvelope,
)


class ModelStructureError(ValueError):
    pass


class ThicknessFailed(ModelStructureError):
    def __init__(self, report: ThicknessReport):
        super().__init__(f"acyclic class is not thick: {report.failures[0]}")
        self.report = report


class OrthogonalityFailed(ModelStructureError):
    def __init__(self, which: str, report: OrthReport):
        cell = report.failures()[0]
        super().__init__(f"{which} fails orthogonality at ({cell.left}, {cell.right})")
        self.report = report


class NotLiftable(ModelStructureError):
    pass


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelStructure:
    """Validated abelian model structure (C, F, W) with its two pairs."""

    name: str
    cofibrant: ClassDescriptor
    fibrant: ClassDescriptor
    acyclic: ClassDescriptor
    pair_cw_f: CotorsionPair  # (C n W, F)
    pair_c_fw: CotorsionPair  # (C, F n W)
    catalog: tuple[Module, ...]
    validation: dict

    @property
    def algebra(self):
        return self.cofibrant.algebra

    def describe(self) -> dict:
        return {
            "name": self.name,
            "C": self.cofibrant.describe(),
            "F": self.fibrant.describe(),
            "W": self.acyclic.describe(),
            "pair_cw_f": self.pair_cw_f.describe(),
            "pair_c_fw": self.pair_c_fw.describe(),
        }


def make_model_structure(
    name: str,
    cofibrant: ClassDescriptor,
    fibrant: ClassDescriptor,
    acyclic: ClassDescriptor,
    pair_cw_f: CotorsionPair,
    pair_c_fw: CotorsionPair,
    catalog: Sequence[Module],
    ses_sample: Sequence[SES] = (),
    i_max: int = 1,
) -> ModelStructure:
    """Validate thickness of W and orthogonality of both pairs on the declared
    catalog, then assemble the structure; fails with certificates otherwise."""
    thick = is_thick(acyclic, ses_sample)
    if not thick.passed:
        raise ThicknessFailed(thick)
    validation = {"thickness": thick.describe()}
    for tag, pair in (("pair_cw_f", pair_cw_f), ("pair_c_fw", pair_c_fw)):
        dfam = [m for m in catalog if class_member(pair.left, m).holds]
        efam = [m for m in catalog if class_member(pair.right, m).holds]
        rep = check_orthogonality(dfam, efam, i_max)
        if not rep.passed:
            raise OrthogonalityFailed(tag, rep)
        validation[tag] = {"left_members": len(dfam), "right_members": len(efam), "pass": True}
    return ModelStructure(
        name, cofibrant, fibrant, acyclic, pair_cw_f, pair_c_fw, tuple(catalog), validation
    )


# ---------------------------------------------------------------------------
# Map classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapClass:
    cofibration: Verdict
    fibration: Verdict
    acyclic_cofibration: Verdict
    acyclic_fibration: Verdict
    weak_equivalence: Optional[Verdict] = None

    def describe(self) -> dict:
        out = {
            "cofibration": self.cofibration.describe(),
            "fibration": self.fibration.describe(),
            "acyclic_cofibration": self.acyclic_cofibration.describe(),
            "acyclic_fibration": self.acyclic_fibration.describe(),
        }
        if self.weak_equivalence is not None:
            out["weak_equivalence"] = self.weak_equivalence.describe()
        return out


def _and_verdict(*vs: Verdict) -> Verdict:
    for v in vs:
        if not v.holds:
            return Verdict("no", v.certificate, v.family)
    if any(v.status == "yes_relative" for v in vs):
        fam = next(v.family for v in vs if v.status == "yes_relative")
        return Verdict("yes_relative", None, fam)
    return Verdict("yes")


def classify_map(ms: ModelStructure, f: Morphism) -> MapClass:
    """Cofibration/fibration verdicts with kernel/cokernel membership
    certificates; the weak-equivalence verdict is deferred to
    is_weak_equivalence."""
    mono = is_monic(f)
    epi = is_epic(f)
    C, _ = cokernel(f)
    K, _ = kernel(f)
    no = lambda why: Verdict("no", {"reason": why})

    if mono:
        cok_in_c = class_member(ms.cofibrant, C)
        cof = _and_verdict(cok_in_c)
        if cof.holds:
            cof = Verdict(cof.status, {"cokernel": C.element_order_profile()}, cof.family)
        acof = _and_verdict(cok_in_c, class_member(ms.acyclic, C))
    else:
        cof = no("not a monomorphism")
        acof = no("not a monomorphism")
    if epi:
        ker_in_f = class_member(ms.fibrant, K)
        fib = _and_verdict(ker_in_f)
        if fib.holds:
            fib = Verdict(fib.status, {"kernel": K.element_order_profile()}, fib.family)
        afib = _and_verdict(ker_in_f, class_member(ms.acyclic, K))
    else:
        fib = no("not an epimorphism")
        afib = no("not an epimorphism")
    return MapClass(cof, fib, acof, afib)


# ---------------------------------------------------------------------------
# Factorization (mono case, epi case, general composite case)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    mode: str  # "cof_then_acyclic_fib" | "acyclic_cof_then_fib"
    first: Morphism
    second: Morphism
    verification: dict

    def composite(self) -> Morphism:
        return self.second @ self.first


def _factor_mono(pair: CotorsionPair, f: Morphism) -> tuple[Morphism, Morphism, ApproxSES]:
    """f monic: precover the cokernel and pull back."""
    C, c = cokernel(f)
    approx = special_precover(pair, C)
    qc = approx.ses.middle
    pb = pullback(c, approx.ses.p)
    j = into_pullback(pb, f, zero_morphism(f.src, qc))
    return j, pb.to_x, approx


def _factor_epi(pair: CotorsionPair, f: Morphism) -> tuple[Morphism, Morphism, ApproxSES]:
    """f epic: preenvelope the kernel and push out."""
    K, k = kernel(f)
    approx = special_preenvelope(pair, K)
    rk = approx.ses.middle
    po = pushout(k, approx.ses.i)
    q = from_pushout(po, f, zero_morphism(rk, f.dst))
    return po.from_x, q, approx


def factorize(ms: ModelStructure, f: Morphism, mode: str) -> Factorization:
    """f = second @ first with exact composite equality and verified
    memberships, by the mono / epi / general three-stage construction."""
    if mode == "cof_then_acyclic_fib":
        pair = ms.pair_c_fw
    elif mode == "acyclic_cof_then_fib":
        pair = ms.pair_cw_f
    else:
        raise ModelStructureError(f"unknown factorization mode {mode!r}")

    if is_monic(f):
        first, second, approx = _factor_mono(pair, f)
        route = "mono"
    elif is_epic(f):
        first, second, approx = _factor_epi(pair, f)
        route = "epi"
    else:
        # f = (f + id_B) o i1 through A + B; factor the epi, then the mono part
        b = direct_sum(f.src, f.dst)
        i1 = b.i1
        fold = pair_from_sum(b, f, identity(f.dst))
        j_epi, q_epi, _ = _factor_epi(pair, fold)
        mono_part = j_epi @ i1
        first, q2, approx = _factor_mono(pair, mono_part)
        second = q_epi @ q2
        route = "general"

    if (second @ first).matrix != f.matrix:
        raise ModelStructureError("factorization composite mismatch (internal)")

    Cok, _ = cokernel(first)
    Ker, _ = kernel(second)
    if mode == "cof_then_acyclic_fib":
        first_v = class_member(ms.cofibrant, Cok)
        second_v = _and_verdict(class_member(ms.fibrant, Ker), class_member(ms.acyclic, Ker))
    else:
        first_v = _and_verdict(class_member(ms.cofibrant, Cok), class_member(ms.acyclic, Cok))
        second_v = class_member(ms.fibrant, Ker)
    verification = {
        "route": route,
        "first_monic": is_monic(first),
        "second_epic": is_epic(second),
        "first_cokernel": first_v.describe(),
        "second_kernel": second_v.describe(),
    }
    if not (first_v.holds and second_v.holds and is_monic(first) and is_epic(second)):
        raise ProviderFailedError("factorization", verification)
    return Factorization(mode, first, second, verification)


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftProblem:
    i: Morphism       # A -> B
    p: Morphism       # X -> Y
    top: Morphism     # A -> X
    bottom: Morphism  # B -> Y

    def __post_init__(self):
        if (self.p @ self.top).matrix != (self.bottom @ self.i).matrix:
            raise ModelStructureError("lifting square does not commute")


def lift(ms: ModelStructure, problem: LiftProblem) -> Morphism:
    """h: B -> X with h i = top and p h = bottom, by direct affine solve.

    Preconditions per classify_map: i a cofibration, p a fibration, one of
    them acyclic.  NotLiftable signals violated hypotheses and must never
    fire when classify_map certifies them.
    """
    ci = classify_map(ms, problem.i)
    cp = classify_map(ms, problem.p)
    if not ci.cofibration.holds or not cp.fibration.holds:
        raise ModelStructureError("lift hypotheses: need a cofibration and a fibration")
    if not (ci.acyclic_cofibration.holds or cp.acyclic_fibration.holds):
        raise ModelStructureError("lift hypotheses: one leg must be acyclic")
    B, X = problem.i.dst, problem.p.src
    sys = MorphismSystem({0: (B, X)})
    sys.add_relations(0)
    sys.add_commutation(0)
    sys.add_equation([(0, None, problem.i.matrix)], X, problem.i.src, problem.top.matrix)
    sys.add_equation([(0, problem.p.matrix, None)], problem.p.dst, B, problem.bottom.matrix)
    sol = sys.solve(B.ring)
    if sol is None:
        raise NotLiftable("no lift exists; a certified hypothesis was violated")
    return Morphism(B, X, sol[0])


# ---------------------------------------------------------------------------
# Weak equivalences
# ---------------------------------------------------------------------------


def is_weak_equivalence(ms: ModelStructure, f: Morphism) -> tuple[Verdict, Factorization]:
    """Factor as cofibration then acyclic fibration; f is a weak equivalence
    iff the cofibration is acyclic, i.e. its cokernel is acyclic."""
    fac = factorize(ms, f, "cof_then_acyclic_fib")
    C, _ = cokernel(fac.first)
    v = class_member(ms.acyclic, C)
    cert = {
        "cokernel_of_cofibration": C.element_order_profile(),
        "membership": v.describe(),
    }
    if v.holds:
        return Verdict(v.status, cert, v.family), fac
    return Verdict("no", cert, v.family), fac


def classify_with_weq(ms: ModelStructure, f: Morphism) -> MapClass:
    base = classify_map(ms, f)
    weq, _ = is_weak_equivalence(ms, f)
    return MapClass(
        base.cofibration, base.fibration, base.acyclic_cofibration, base.acyclic_fibration, weq
    )


# ---------------------------------------------------------------------------
# Stable homs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableHom:
    src: Module
    dst: Module
    invariants: tuple[int, ...]
    quotient: QuotientGroup

    @property
    def is_zero(self) -> bool:
        return not self.invariants


def stable_hom(ms: ModelStructure, m: Module, n: Module) -> StableHom:
    """Hom(m, n) modulo maps factoring through a projective.

    Any projective-factoring map factors through the free cover of the target
    (lift the projective onto the cover), so the factoring subgroup is the
    span of composites through the free module on n's generators.  The
    sufficiency of that free cover is exercised as a checked lemma in the
    test suite.  Presets supported here have C n W = projectives (stated for
    the quasi-Frobenius preset, a verified coincidence for the Gorenstein
    one), so this quotient is the homotopy-category hom.
    """
    if ms.pair_cw_f.left.kind not in ("projectives",):
        raise ModelStructureError(
            "stable homs are computed for presets whose acyclic cofibrant class "
            "is the projectives"
        )
    sols = hom_solution_columns(m, n)
    amb = n.gens * m.gens
    if sols.cols == 0:
        q = quotient_group(Mat.zeros(amb, 0), Mat.zeros(amb, 0), m.ring)
        return StableHom(m, n, (), q)
    fp = free_presentation(n)
    F = fp.middle
    into = hom_group(m, F)
    factoring = [(fp.p @ g).matrix.entries for g in into.basis]
    # the full factoring subgroup also includes every composite through F
    through = hom_group(F, n)
    for a in into.basis:
        for b in through.basis:
            factoring.append((b @ a).matrix.entries)
    zer = MorphismSystem({0: (m, n)}).zero_columns()
    sub_cols = Mat.from_columns(factoring, rows=amb)
    sub = sub_cols.hstack(zer) if zer.cols else sub_cols
    q = quotient_group(sols, sub, m.ring)
    return StableHom(m, n, q.invariants, q)


# ---------------------------------------------------------------------------
# Monoidal structure
# ---------------------------------------------------------------------------


def pushout_product(i: Morphism, j: Morphism) -> Morphism:
    """(A(x)D) u_{A(x)C} (B(x)C) -> B(x)D for monos i: A->B, j: C->D."""
    a_c = tensor_morphisms(identity(i.src), j)      # A(x)C -> A(x)D
    b_c = tensor_morphisms(i, identity(j.src))      # A(x)C -> B(x)C
    po = pushout(a_c, b_c)
    to_bd_from_ad = tensor_morphisms(i, identity(j.dst))   # A(x)D -> B(x)D
    to_bd_from_bc = tensor_morphisms(identity(i.dst), j)   # B(x)C -> B(x)D
    return from_pushout(po, to_bd_from_ad, to_bd_from_bc)


@dataclass(frozen=True)
class MonoidalReport:
    flatness: dict
    tensor_in_c: tuple[dict, ...]
    tensor_in_w: tuple[dict, ...]
    unit: dict

    @property
    def passed(self) -> bool:
        return (
            self.flatness["pass"]
            and all(c["pass"] for c in self.tensor_in_c)
            and all(c["pass"] for c in self.tensor_in_w)
            and self.unit["pass"]
        )

    def describe(self) -> dict:
        return {
            "flatness": self.flatness,
            "tensor_in_C": list(self.tensor_in_c),
            "tensor_in_W": list(self.tensor_in_w),
            "unit_in_C": self.unit,
            "pass": self.passed,
        }


def monoidal_check(ms: ModelStructure, catalog: Sequence[Module], seed: int = 0) -> MonoidalReport:
    """The four monoidal-compatibility conditions over a catalog."""
    alg = ms.algebra
    c_members = [m for m in catalog if class_member(ms.cofibrant, m).holds]
    # (1) every cofibrant object is flat
    if alg.base.is_field:
        flat = {"pass": True, "route": "field base: tensoring is exact"}
    else:
        from .catalog import Sampler

        sampler = Sampler([m for m in catalog if not m.is_zero], seed, tag="flatness")
        violations = []
        for _ in range(10):
            s = sampler.ses()
            for m in c_members:
                if m.is_zero:
                    continue
                ti = tensor_morphisms(identity(m), s.i)
                tp = tensor_morphisms(identity(m), s.p)
                if not _complex_exact_three(ti, tp):
                    violations.append(
                        {"module": m.element_order_profile(), "ses": repr(s)}
                    )
        flat = {"pass": not violations, "route": "tensored sampled sequences", "violations": violations}
    # (2) C closed under tensor
    in_c = []
    for x in c_members:
        for y in c_members:
            t = tensor_with_maps(x, y).module
            v = class_member(ms.cofibrant, t)
            in_c.append(
                {
                    "x": x.element_order_profile(),
                    "y": y.element_order_profile(),
                    "pass": v.holds,
                }
            )
    # (3) one factor acyclic => tensor acyclic
    in_w = []
    for x in c_members:
        xw = class_member(ms.acyclic, x)
        for y in c_members:
            if not xw.holds and not class_member(ms.acyclic, y).holds:
                continue
            t = tensor_with_maps(x, y).module
            v = class_member(ms.acyclic, t)
            in_w.append(
                {
                    "x": x.element_order_profile(),
                    "y": y.element_order_profile(),
                    "pass": v.holds,
                }
            )
    # (4) the unit is cofibrant
    unit_v = class_member(ms.cofibrant, trivial_module(alg))
    unit = {"pass": unit_v.holds, "verdict": unit_v.describe()}
    return MonoidalReport(flat, tuple(in_c), tuple(in_w), unit)
