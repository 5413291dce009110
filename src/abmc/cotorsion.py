"""Cotorsion-pair machinery: classes, orthogonality, approximations, Gorenstein.

Membership in orthogonally-defined classes is certified-negative and, where
no exact test is known, relative-positive: a No always carries a witness
with nonzero Ext, a Yes against a non-exhaustive witness family is flagged
relative and stamped with the family spec.  Gorenstein projectivity over an
algebra of known two-sided self-injective dimension d0 is decided exactly,
by Ext^i(M, A) = 0 for 1 <= i <= d0.  Approximation providers are named
constructive strategies; every sequence they produce is verified against the
pair's classes at runtime, and failures surface as certificates, never
silently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .linalg import Mat
from .modules import (
    Algebra,
    Module,
    ModuleError,
    Morphism,
    SES,
    direct_sum,
    free_module,
    identity,
    is_epic,
    is_monic,
    kernel,
    cokernel,
    pullback,
    into_pullback,
    pushout,
    from_pushout,
    zero_module,
    zero_morphism,
)
from .homology import (
    dual_module,
    ext,
    free_presentation,
    hom_group,
    is_injective,
    is_projective,
    is_split,
    proj_dim_at_most,
    syzygy,
)


class CotorsionError(ValueError):
    pass


class NoProviderError(CotorsionError):
    pass


class ProviderFailedError(CotorsionError):
    def __init__(self, stage: str, certificate):
        super().__init__(f"provider failed at {stage}: {certificate}")
        self.stage = stage
        self.certificate = certificate


# ---------------------------------------------------------------------------
# Verdicts and witness families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Finite witness family: seed + size + construction rule, quoted in reports."""

    seed: int = 0xC07
    size: int = 32
    rule: str = "cokernels of random monos between frees of rank <= 3"

    def describe(self) -> dict:
        return {"seed": self.seed, "size": self.size, "rule": self.rule}


@dataclass(frozen=True)
class Verdict:
    status: str  # "yes" | "no" | "yes_relative"
    certificate: Optional[dict] = None
    family: Optional[FamilySpec] = None

    @property
    def holds(self) -> bool:
        return self.status in ("yes", "yes_relative")

    @property
    def decisive(self) -> bool:
        return self.status in ("yes", "no")

    def describe(self) -> dict:
        out = {"status": self.status}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.family is not None:
            out["family"] = self.family.describe()
        return out


YES = Verdict("yes")


def _module_tag(m: Module) -> str:
    return m.element_order_profile()


# ---------------------------------------------------------------------------
# Class descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassDescriptor:
    """Decidable or witness-relative class of modules over one algebra."""

    kind: str  # all | zero | projectives | injectives | pd_at_most |
    #            right_orth_of | left_orth_of | gorenstein_projective | explicit
    algebra: Algebra
    d: Optional[int] = None
    generators: tuple[Module, ...] = ()
    family: Optional[FamilySpec] = None
    members: tuple[Module, ...] = ()

    def label(self) -> str:
        if self.kind == "pd_at_most":
            return f"pd<= {self.d}"
        if self.kind == "gorenstein_projective":
            return f"GP(d={self.d})"
        return self.kind

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.d is not None:
            out["d"] = self.d
        if self.family is not None:
            out["family"] = self.family.describe()
        if self.generators:
            out["generators"] = [_module_tag(g) for g in self.generators]
        return out


def all_modules(alg: Algebra) -> ClassDescriptor:
    return ClassDescriptor("all", alg)


def zero_class(alg: Algebra) -> ClassDescriptor:
    return ClassDescriptor("zero", alg)


def projectives(alg: Algebra) -> ClassDescriptor:
    return ClassDescriptor("projectives", alg)


def injectives(alg: Algebra) -> ClassDescriptor:
    return ClassDescriptor("injectives", alg)


def pd_at_most(alg: Algebra, d: int) -> ClassDescriptor:
    return ClassDescriptor("pd_at_most", alg, d=d)


def right_orth_of(gens: Sequence[Module]) -> ClassDescriptor:
    return ClassDescriptor("right_orth_of", gens[0].algebra, generators=tuple(gens))


def left_orth_of(gens: Sequence[Module]) -> ClassDescriptor:
    return ClassDescriptor("left_orth_of", gens[0].algebra, generators=tuple(gens))


def gorenstein_projective(alg: Algebra, d: int, family: Optional[FamilySpec] = None) -> ClassDescriptor:
    return ClassDescriptor("gorenstein_projective", alg, d=d, family=family or FamilySpec())


def explicit_class(members: Sequence[Module]) -> ClassDescriptor:
    return ClassDescriptor("explicit", members[0].algebra, members=tuple(members))


# ---------------------------------------------------------------------------
# Finite-pd witness families (Gorenstein testing)
# ---------------------------------------------------------------------------


def _random_free_hom(alg: Algebra, rng: random.Random, max_rank: int = 3) -> Morphism:
    a = rng.randint(1, max_rank)
    b = rng.randint(1, max_rank)
    F1, F2 = free_module(alg, a), free_module(alg, b)
    coeff_bound = 2
    cols = []
    for j in range(a):
        blocks = []
        for i in range(b):
            coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(alg.rank)]
            blocks.append(alg.right_mult_matrix(coeffs))
        col_block = blocks[0]
        for blk in blocks[1:]:
            col_block = col_block.vstack(blk)
        cols.append(col_block)
    m = cols[0]
    for c in cols[1:]:
        m = m.hstack(c)
    return Morphism(F1, F2, m)


@lru_cache(maxsize=None)
def finite_pd_family(alg: Algebra, d: int, spec: FamilySpec) -> tuple[Module, ...]:
    """Frees plus cokernels of sampled monos between frees (pd <= 1 each),
    filtered by the pd bound; the spec is part of every report using this."""
    rng = random.Random(spec.seed)
    fam: list[Module] = [free_module(alg, r) for r in range(1, 4)]
    attempts = 0
    while len(fam) < spec.size and attempts < spec.size * 20:
        attempts += 1
        f = _random_free_hom(alg, rng)
        if f.matrix.is_zero() or not is_monic(f):
            continue
        C, _ = cokernel(f)
        if C.is_zero:
            continue
        if not proj_dim_at_most(C, d):
            continue
        fam.append(C)
    return tuple(fam)


@lru_cache(maxsize=None)
def gp_test(m: Module, d: int, family: Optional[FamilySpec] = None) -> Verdict:
    """Gorenstein-projectivity against the generated finite-pd family.

    Projectives pass outright; otherwise a nonzero Ext^1 against any family
    member is a certified No, and a clean sweep is a Yes relative to the
    family spec.  `class_member` decides by `gp_by_ext_vs_regular` instead
    whenever the algebra's self-injective dimension is known, and falls back
    to this sweep otherwise.
    """
    spec = family or FamilySpec()
    if is_projective(m):
        return YES
    for w in finite_pd_family(m.algebra, d, spec):
        e = ext(m, w, 1)
        if not e.is_zero:
            return Verdict(
                "no",
                {
                    "witness": _module_tag(w),
                    "ext1": list(e.invariants),
                },
                spec,
            )
    return Verdict("yes_relative", None, spec)


def gp_by_ext_vs_regular(m: Module, d0: int, family: Optional[FamilySpec] = None) -> Verdict:
    """Exact Gorenstein-projectivity over an Iwanaga-Gorenstein algebra.

    With self-injective dimension d0 on both sides, a finitely generated M is
    Gorenstein projective iff Ext^i(M, A) = 0 for 1 <= i <= d0 (Enochs-Jenda,
    Relative Homological Algebra, ch. 10-11).  A No at degree 1 is the one
    `gp_test` gives, since the regular module heads its witness family.
    """
    reg = free_module(m.algebra, 1)
    for i in range(1, d0 + 1):
        e = ext(m, reg, i)
        if e.is_zero:
            continue
        if i == 1:
            return Verdict(
                "no",
                {"witness": _module_tag(reg), "ext1": list(e.invariants)},
                family or FamilySpec(),
            )
        return Verdict(
            "no", {"witness": _module_tag(reg), "degree": i, "ext": list(e.invariants)}
        )
    return Verdict("yes", {"route": "ext_vs_regular", "degrees": [1, d0]})


def gp_example(n: Module, d: int) -> Module:
    """d-th syzygies are the canonical Gorenstein-projective examples."""
    return syzygy(n, d)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def class_member(c: ClassDescriptor, m: Module) -> Verdict:
    """Membership verdict of m in c.

    Gorenstein projectivity is decided by Ext against the regular module when
    `self_injective_dimension` knows the algebra, and by the witness sweep of
    `gp_test` (Yes relative to its family) when it does not.
    """
    if c.algebra != m.algebra:
        raise CotorsionError("module lives over a different algebra")
    if c.kind == "all":
        return YES
    if c.kind == "zero":
        return YES if m.is_zero else Verdict("no", {"reason": "nonzero module"})
    if c.kind == "projectives":
        return YES if is_projective(m) else Verdict("no", {"reason": "free cover does not split"})
    if c.kind == "injectives":
        return YES if is_injective(m) else Verdict("no", {"reason": "dual is not projective"})
    if c.kind == "pd_at_most":
        ok = proj_dim_at_most(m, c.d)
        return YES if ok else Verdict("no", {"reason": f"syzygy {c.d} not projective"})
    if c.kind == "explicit":
        # presentation-literal membership; no isomorphism search by design
        return YES if m in c.members else Verdict("no", {"reason": "not in the explicit list"})
    if c.kind == "right_orth_of":
        for g in c.generators:
            e = ext(g, m, 1)
            if not e.is_zero:
                return Verdict("no", {"witness": _module_tag(g), "ext1": list(e.invariants)})
        return YES  # the generator list is the definition, hence exhaustive
    if c.kind == "left_orth_of":
        for g in c.generators:
            e = ext(m, g, 1)
            if not e.is_zero:
                return Verdict("no", {"witness": _module_tag(g), "ext1": list(e.invariants)})
        return YES
    if c.kind == "gorenstein_projective":
        d0 = self_injective_dimension(c.algebra)
        if d0 is None:
            return gp_test(m, c.d, c.family)
        return gp_by_ext_vs_regular(m, d0, c.family)
    raise CotorsionError(f"unknown class kind {c.kind}")


# ---------------------------------------------------------------------------
# Orthogonality reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrthCell:
    left: str
    right: str
    degree: int
    invariants: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.invariants


@dataclass(frozen=True)
class OrthReport:
    cells: tuple[OrthCell, ...]
    i_max: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    def failures(self) -> list[OrthCell]:
        return [c for c in self.cells if not c.passed]

    def describe(self) -> dict:
        return {
            "i_max": self.i_max,
            "pass": self.passed,
            "cells": [
                {
                    "left": c.left,
                    "right": c.right,
                    "degree": c.degree,
                    "ext": list(c.invariants),
                    "pass": c.passed,
                }
                for c in self.cells
            ],
        }


def check_orthogonality(
    dfam: Sequence[Module], efam: Sequence[Module], i_max: int = 1
) -> OrthReport:
    """Full matrix of Ext^i structures, 1 <= i <= i_max, with pass flags."""
    if i_max < 1:
        raise CotorsionError("i_max must be >= 1")
    cells = []
    for di, d in enumerate(dfam):
        for ei, e in enumerate(efam):
            for deg in range(1, i_max + 1):
                g = ext(d, e, deg)
                cells.append(
                    OrthCell(
                        f"D[{di}]={_module_tag(d)}",
                        f"E[{ei}]={_module_tag(e)}",
                        deg,
                        g.invariants,
                    )
                )
    return OrthReport(tuple(cells), i_max)


def orthogonal_closure(
    generators: Sequence[Module], side: str, universe: Sequence[Module]
) -> list[Module]:
    """Members of the universe Ext^1-orthogonal to every generator, in
    catalog order."""
    out = []
    for m in universe:
        if side == "right":
            ok = all(ext(g, m, 1).is_zero for g in generators)
        elif side == "left":
            ok = all(ext(m, g, 1).is_zero for g in generators)
        else:
            raise CotorsionError("side must be 'left' or 'right'")
        if ok:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# Cotorsion pairs and approximations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CotorsionPair:
    left: ClassDescriptor
    right: ClassDescriptor
    precover_provider: Optional[str] = None
    preenvelope_provider: Optional[str] = None

    def __post_init__(self):
        if self.left.algebra != self.right.algebra:
            raise CotorsionError("pair classes live over different algebras")

    @property
    def algebra(self) -> Algebra:
        return self.left.algebra

    def describe(self) -> dict:
        return {
            "left": self.left.describe(),
            "right": self.right.describe(),
            "precover": self.precover_provider,
            "preenvelope": self.preenvelope_provider,
        }


@dataclass(frozen=True)
class ApproxSES:
    """Verified approximation sequence with its membership record."""

    ses: SES
    side: str  # "precover" | "preenvelope"
    memberships: dict

    @property
    def outer_verified(self) -> bool:
        return all(v["status"] in ("yes", "yes_relative") for v in self.memberships.values())


def _verify_approx(pair: CotorsionPair, s: SES, side: str) -> ApproxSES:
    if side == "precover":
        # 0 -> E -> D -> X -> 0 with D in left, E in right
        checks = {
            "middle_in_left": class_member(pair.left, s.middle),
            "left_term_in_right": class_member(pair.right, s.left),
        }
    else:
        # 0 -> X -> E -> D -> 0 with E in right, D in left
        checks = {
            "middle_in_right": class_member(pair.right, s.middle),
            "right_term_in_left": class_member(pair.left, s.right),
        }
    for stage, v in checks.items():
        if not v.holds:
            raise ProviderFailedError(stage, v.certificate)
    return ApproxSES(s, side, {k: v.describe() for k, v in checks.items()})


def _identity_precover(pair: CotorsionPair, x: Module) -> SES:
    z = zero_module(x.algebra)
    return SES(zero_morphism(z, x), identity(x))


def _identity_preenvelope(pair: CotorsionPair, x: Module) -> SES:
    z = zero_module(x.algebra)
    return SES(identity(x), zero_morphism(x, z))


def _free_presentation_precover(pair: CotorsionPair, x: Module) -> SES:
    return free_presentation(x)


def _injective_duality_preenvelope(pair: CotorsionPair, x: Module) -> SES:
    """Embed into the dual of a free cover of the dual; field base only."""
    if not x.ring.is_field:
        raise NoProviderError(
            "no finitely generated injectives over an integer base"
        )
    from .homology import dual_morphism

    xd = dual_module(x)
    fp = free_presentation(xd)
    e = dual_morphism(fp.p)  # x = D(D(x)) -> D(F), monic
    C, q = cokernel(e)
    return SES(e, q)


def _coinduced_free(alg: Algebra, k: Module) -> tuple[Module, Morphism]:
    """K -> A (x) K| for base-free K over a group algebra: k |-> sum g (x) g^{-1}k.

    The target is the free module on K's base generators; the embedding is
    base-split (the identity coefficient block), hence monic.
    """
    gt = alg.group_table
    if gt is None:
        raise NoProviderError("coinduction embedding needs a group algebra")
    if any(k.orders):
        raise ProviderFailedError("coinduction", {"reason": "kernel is not base-free"})
    n = alg.rank
    r = k.gens
    F = free_module(alg, r)
    inv = gt["inv"]
    rows = []
    for j in range(r):
        for t in range(n):
            rows.append(list(k.actions[inv[t]].row(j)))
    eps = Morphism(k, F, Mat.from_rows(rows, cols=r))
    return F, eps


def _induced_module(alg: Algebra, x: Module) -> tuple[Module, Morphism]:
    """A (x) X| with the left-factor action, plus the norm-twist embedding."""
    gt = alg.group_table
    if gt is None:
        raise NoProviderError("induction needs a group algebra")
    n = alg.rank
    g = x.gens
    from .modules import module_from_presentation

    rel_rows = []
    for j, d in enumerate(x.orders):
        if d:
            for t in range(n):
                rel_rows.append(
                    [d if c == j * n + t else 0 for c in range(g * n)]
                )
    acts = []
    for h in range(n):
        perm = Mat.from_rows(
            [
                [1 if gt["op"][h][t] == t2 else 0 for t in range(n)]
                for t2 in range(n)
            ]
        )
        acts.append(Mat.identity(g).kron(perm))
    ind, proj, _ = module_from_presentation(
        alg, Mat.from_rows(rel_rows, cols=g * n), acts
    )
    inv = gt["inv"]
    rows = []
    for j in range(g):
        for t in range(n):
            rows.append(list(x.actions[inv[t]].row(j)))
    raw = Mat.from_rows(rows, cols=g)
    eps = Morphism(x, ind, proj @ raw)
    if not is_monic(eps):
        raise ProviderFailedError("induction", {"reason": "embedding not monic"})
    return ind, eps


def _gorenstein_syzygy_pushout_precover(pair: CotorsionPair, x: Module) -> SES:
    """Syzygy-pushout Gorenstein-projective precover over a 1-Gorenstein group
    algebra: embed the base-free presentation kernel into its coinduced free
    module and push out."""
    d = pair.left.d
    if d is None:
        raise NoProviderError("left class carries no Gorenstein parameter")
    if d == 0:
        return _identity_precover(pair, x)
    if d != 1:
        raise NoProviderError(
            "syzygy-pushout precovers are shipped for injective dimension <= 1"
        )
    if is_projective(x):
        return _identity_precover(pair, x)
    stage = free_presentation(x)
    K = stage.left
    Fp, eps = _coinduced_free(x.algebra, K)
    po = pushout(stage.i, eps)  # K -> F0 and K -> A(x)K
    q = from_pushout(po, stage.p, zero_morphism(Fp, x))
    return SES(po.from_y, q)


def _gorenstein_coinduction_pullback_preenvelope(pair: CotorsionPair, x: Module) -> SES:
    """Preenvelope via the dual pushout trick: embed X into its induced module
    (finite projective dimension), precover the cokernel, pull back."""
    d = pair.right.d if pair.right.kind == "pd_at_most" else None
    if d is None:
        raise NoProviderError("right class carries no pd bound")
    if d == 0:
        return _identity_preenvelope(pair, x) if class_member(pair.right, x).holds else _injective_duality_preenvelope(pair, x)
    if d != 1:
        raise NoProviderError(
            "coinduction-pullback preenvelopes are shipped for injective dimension <= 1"
        )
    ind, eps = _induced_module(x.algebra, x)
    C, c = cokernel(eps)
    if C.is_zero:
        return SES(eps, c)
    cover = _gorenstein_syzygy_pushout_precover(pair, C)
    pb = pullback(c, cover.p)
    j = into_pullback(pb, eps, zero_morphism(x, cover.middle))
    # 0 -> X -> P -> D' -> 0 where P -> D' is the second pullback leg's cokernel
    Cq, q = cokernel(j)
    return SES(j, q)


PRECOVER_PROVIDERS: dict[str, Callable] = {
    "identity": _identity_precover,
    "free_presentation": _free_presentation_precover,
    "gp_syzygy_pushout": _gorenstein_syzygy_pushout_precover,
}

PREENVELOPE_PROVIDERS: dict[str, Callable] = {
    "identity": _identity_preenvelope,
    "injective_duality": _injective_duality_preenvelope,
    "gp_coinduction_pullback": _gorenstein_coinduction_pullback_preenvelope,
}


def special_precover(pair: CotorsionPair, x: Module) -> ApproxSES:
    """0 -> E -> D -> X -> 0 with D in the left class, E in the right."""
    name = pair.precover_provider
    if name is None:
        raise NoProviderError("pair has no precover provider")
    fn = PRECOVER_PROVIDERS.get(name)
    if fn is None:
        raise NoProviderError(f"unknown precover provider {name!r}")
    return _verify_approx(pair, fn(pair, x), "precover")


def special_preenvelope(pair: CotorsionPair, x: Module) -> ApproxSES:
    """0 -> X -> E -> D -> 0 with E in the right class, D in the left."""
    name = pair.preenvelope_provider
    if name is None:
        raise NoProviderError("pair has no preenvelope provider")
    fn = PREENVELOPE_PROVIDERS.get(name)
    if fn is None:
        raise NoProviderError(f"unknown preenvelope provider {name!r}")
    return _verify_approx(pair, fn(pair, x), "preenvelope")


# ---------------------------------------------------------------------------
# Thickness and hereditarity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetractDatum:
    inclusion: Morphism
    retraction: Morphism  # retraction @ inclusion = identity


@dataclass(frozen=True)
class ThicknessReport:
    checked: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> dict:
        return {"checked": self.checked, "pass": self.passed, "failures": list(self.failures)}


def is_thick(
    w: ClassDescriptor,
    ses_sample: Sequence[SES],
    retract_sample: Sequence[RetractDatum] = (),
) -> ThicknessReport:
    """Two-out-of-three on sampled sequences plus retract closure."""
    failures = []
    checked = 0
    for s in ses_sample:
        verdicts = [
            class_member(w, s.left),
            class_member(w, s.middle),
            class_member(w, s.right),
        ]
        flags = [v.holds for v in verdicts]
        checked += 1
        if sum(flags) == 2:
            missing = flags.index(False)
            failures.append(
                {
                    "kind": "two_of_three",
                    "ses": repr(s),
                    "member_out": ["left", "middle", "right"][missing],
                    "certificate": verdicts[missing].certificate,
                }
            )
    for r in retract_sample:
        checked += 1
        big = class_member(w, r.inclusion.dst)
        small = class_member(w, r.inclusion.src)
        if big.holds and not small.holds:
            failures.append(
                {
                    "kind": "retract",
                    "retract_of": _module_tag(r.inclusion.dst),
                    "module": _module_tag(r.inclusion.src),
                    "certificate": small.certificate,
                }
            )
    return ThicknessReport(checked, tuple(failures))


@dataclass(frozen=True)
class HereditaryReport:
    orthogonality: OrthReport
    kernel_closure_failures: tuple[dict, ...]
    cokernel_closure_failures: tuple[dict, ...]
    epis_checked: int
    monos_checked: int

    @property
    def passed(self) -> bool:
        return (
            self.orthogonality.passed
            and not self.kernel_closure_failures
            and not self.cokernel_closure_failures
        )

    def describe(self) -> dict:
        return {
            "pass": self.passed,
            "higher_ext": self.orthogonality.describe(),
            "kernel_closure": {
                "checked": self.epis_checked,
                "failures": list(self.kernel_closure_failures),
            },
            "cokernel_closure": {
                "checked": self.monos_checked,
                "failures": list(self.cokernel_closure_failures),
            },
        }


def is_hereditary(
    pair: CotorsionPair,
    dfam: Sequence[Module],
    efam: Sequence[Module],
    i_max: int = 3,
    seed: int = 0,
    samples: int = 20,
) -> HereditaryReport:
    """Higher-Ext vanishing plus kernel-of-epi / cokernel-of-mono closure."""
    orth = check_orthogonality(dfam, efam, i_max)
    rng = random.Random(f"{seed}:hereditary")
    kernel_failures = []
    epis = 0
    d_nonzero = [m for m in dfam if not m.is_zero]
    for _ in range(samples):
        if not d_nonzero:
            break
        a = rng.choice(d_nonzero)
        b = rng.choice(d_nonzero)
        h = hom_group(a, b)
        if h.is_zero:
            continue
        f = h.element([rng.randrange(d) if d else rng.randint(-2, 2) for d in h.invariants])
        if not is_epic(f):
            continue
        epis += 1
        K, _ = kernel(f)
        v = class_member(pair.left, K)
        if not v.holds:
            kernel_failures.append(
                {
                    "epi": f"{_module_tag(a)} -> {_module_tag(b)}",
                    "kernel": _module_tag(K),
                    "certificate": v.certificate,
                }
            )
    cokernel_failures = []
    monos = 0
    e_nonzero = [m for m in efam if not m.is_zero]
    for _ in range(samples):
        if not e_nonzero:
            break
        a = rng.choice(e_nonzero)
        b = rng.choice(e_nonzero)
        h = hom_group(a, b)
        if h.is_zero:
            continue
        f = h.element([rng.randrange(d) if d else rng.randint(-2, 2) for d in h.invariants])
        if not is_monic(f):
            continue
        monos += 1
        C, _ = cokernel(f)
        v = class_member(pair.right, C)
        if not v.holds:
            cokernel_failures.append(
                {
                    "mono": f"{_module_tag(a)} -> {_module_tag(b)}",
                    "cokernel": _module_tag(C),
                    "certificate": v.certificate,
                }
            )
    return HereditaryReport(
        orth, tuple(kernel_failures), tuple(cokernel_failures), epis, monos
    )


# ---------------------------------------------------------------------------
# Ring injective dimension
# ---------------------------------------------------------------------------


#: Known self-injective dimensions over the integer base: the base ring itself
#: and integral group algebras of finite groups have dimension 1
#: (validated at desk scale by the Iwanaga finite-pd consistency sweep).
INTEGER_BASE_SELF_INJ_DIM: dict[str, int] = {
    "base": 1,
    "group_algebra": 1,
}


def ring_injective_dimension(alg: Algebra, d_max: int = 4) -> Optional[int]:
    """Least d <= d_max with the d-th cosyzygy of the regular module injective.

    Field base goes through duality (syzygies of the dual over the opposite
    algebra); integer base uses the documented table for shipped group rings.
    """
    if alg.base.is_field:
        reg_dual = dual_module(free_module(alg, 1))
        for d in range(d_max + 1):
            if is_projective(syzygy(reg_dual, d)):
                return d
        return None
    key = "base" if alg.rank == 1 else "group_algebra" if alg.group_table is not None else None
    d = INTEGER_BASE_SELF_INJ_DIM.get(key)
    if d is None:
        raise CotorsionError(
            "no table entry for this integer-base algebra; duality route needs a field"
        )
    return d if d <= d_max else None


@lru_cache(maxsize=None)
def self_injective_dimension(alg: Algebra) -> Optional[int]:
    """The injective dimension d0 of A on both sides, or None when unknown.

    Over a field both sides are computed and must agree; over the integers
    the table answers (group algebras are isomorphic to their opposites).
    """
    try:
        d = ring_injective_dimension(alg)
        if alg.base.is_field and ring_injective_dimension(alg.opposite) != d:
            return None
    except CotorsionError:
        return None
    return d


def iwanaga_consistency(alg: Algebra, modules: Sequence[Module], d: int, probe: int = 3) -> list[dict]:
    """Desk-scale Iwanaga check: any module with pd <= probe has pd <= d.
    Returns the list of violations (expected empty)."""
    bad = []
    for m in modules:
        if proj_dim_at_most(m, probe) and not proj_dim_at_most(m, d):
            bad.append({"module": _module_tag(m), "pd_probe": probe, "bound": d})
    return bad
