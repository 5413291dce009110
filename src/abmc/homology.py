"""Hom groups, free resolutions, Ext groups, splitting, syzygies, dimensions.

Hom(M, N) is the solution group of a one-block `MorphismSystem` (respect the
source relations, commute with every action) modulo its zero columns, the
matrices whose columns land in the target's relation lattice.  Ext is
computed from cached free resolutions:
Ext^i(M, N) = coker(Hom(F_{i-1}, N) -> Hom(K_{i-1}, N)).

Ext here is computed via projective resolutions, which matches the Yoneda
definition because these module categories have enough projectives (free
covers); extension classes are represented relative to the cached canonical
resolution, and SES <-> class conversions round-trip through it.

Resolution caches are per-module and immutable once built; every public
operation behaves as a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .linalg import Mat, QuotientGroup, quotient_group
from .modules import (
    Module,
    ModuleError,
    Morphism,
    MorphismSystem,
    SES,
    factor_through_mono,
    free_module,
    kernel,
    pushout,
    from_pushout,
    zero_morphism,
)


# ---------------------------------------------------------------------------
# Hom groups
# ---------------------------------------------------------------------------


def hom_solution_columns(src: Module, dst: Module) -> Mat:
    """Columns generate all valid morphism matrices, flattened row-major."""
    if src.algebra != dst.algebra:
        raise ModuleError("hom over different algebras")
    if dst.gens * src.gens == 0:
        return Mat.zeros(0, 0)
    sys = MorphismSystem({0: (src, dst)})
    sys.add_relations(0)
    sys.add_commutation(0)
    return sys.kernel_columns(src.ring)


@dataclass(frozen=True)
class HomGroup:
    """Hom(src, dst) as an abelian group with an adapted generating set."""

    src: Module
    dst: Module
    invariants: tuple[int, ...]
    basis: tuple[Morphism, ...]
    quotient: QuotientGroup

    @property
    def is_zero(self) -> bool:
        return not self.invariants

    def coordinates(self, f: Morphism) -> tuple[int, ...]:
        if f.src != self.src or f.dst != self.dst:
            raise ModuleError("morphism does not belong to this Hom group")
        c = self.quotient.coords(Mat.column(f.matrix.entries))
        if c is None:
            raise ModuleError("morphism escapes the computed Hom group (internal)")
        return c

    def element(self, coeffs: Sequence[int]) -> Morphism:
        v = self.quotient.element(coeffs)
        return Morphism(self.src, self.dst, Mat(self.dst.gens, self.src.gens, v.entries))


@lru_cache(maxsize=None)
def hom_group(src: Module, dst: Module) -> HomGroup:
    sols = hom_solution_columns(src, dst)
    zer = MorphismSystem({0: (src, dst)}).zero_columns()
    amb = dst.gens * src.gens
    if sols.cols == 0:
        q = quotient_group(Mat.zeros(amb, 0), Mat.zeros(amb, 0), src.ring)
        return HomGroup(src, dst, (), (), q)
    q = quotient_group(sols, zer, src.ring)
    basis = tuple(
        Morphism(src, dst, Mat(dst.gens, src.gens, q.generators.col(j)))
        for j in range(q.generators.cols)
    )
    return HomGroup(src, dst, q.invariants, basis, q)


# ---------------------------------------------------------------------------
# Resolutions
# ---------------------------------------------------------------------------


def _spans_module(m: Module, cols: Mat) -> bool:
    """Do the columns generate m together with its relations?"""
    rel = m.relation_columns()
    gens = cols.hstack(rel) if rel.cols else cols
    amb = Mat.identity(m.gens)
    return quotient_group(amb, gens, m.ring).is_zero


def generator_support(m: Module) -> list[int]:
    """A deterministic generating subset of the base generators over the algebra.

    Greedy: walk the generators in order and drop any that the remaining ones
    still generate.  For a canonical free module this recovers one generator
    per algebra copy, which keeps free presentations of frees kernel-free.
    """
    n = m.algebra.rank
    keep = list(range(m.gens))

    def cover_cols(idxs):
        cols = []
        for i in idxs:
            for k in range(n):
                cols.append(list(m.actions[k].col(i)))
        return Mat.from_columns(cols, rows=m.gens)

    for i in range(m.gens):
        if len(keep) == 1:
            break
        trial = [j for j in keep if j != i]
        if _spans_module(m, cover_cols(trial)):
            keep = trial
    return keep


def _free_presentation_raw(m: Module) -> SES:
    alg = m.algebra
    n = alg.rank
    support = generator_support(m) if m.gens else []
    F = free_module(alg, len(support))
    cols = []
    for i in support:
        for k in range(n):
            cols.append(list(m.actions[k].col(i)))
    pi = Morphism(F, m, Mat.from_columns(cols, rows=m.gens))
    K, incl = kernel(pi)
    return SES(incl, pi)


def free_presentation(m: Module) -> SES:
    """0 -> K -> F -> M -> 0, F free on a generating set of M over the algebra.

    Served from the per-module resolution cache, so the stage (and hence
    every syzygy) is deterministic across calls."""
    return resolution(m).stage(0)


class Resolution:
    """Free resolution stages 0 -> K_j -> F_j -> K_{j-1} -> 0 (K_{-1} = module)."""

    def __init__(self, module: Module):
        self.module = module
        self.stages: list[SES] = []

    def stage(self, j: int) -> SES:
        while len(self.stages) <= j:
            target = self.module if not self.stages else self.stages[-1].left
            self.stages.append(_free_presentation_raw(target))
        return self.stages[j]

    def kernel_module(self, j: int) -> Module:
        """K_j, the (j+1)-st syzygy."""
        return self.stage(j).left


_RESOLUTIONS: dict[Module, Resolution] = {}


def resolution(m: Module) -> Resolution:
    r = _RESOLUTIONS.get(m)
    if r is None:
        r = Resolution(m)
        _RESOLUTIONS[m] = r
    return r


def syzygy(m: Module, i: int) -> Module:
    """The i-th kernel of the cached free resolution; syzygy(m, 0) = m."""
    if i < 0:
        raise ModuleError("syzygy index must be >= 0")
    if i == 0:
        return m
    return resolution(m).kernel_module(i - 1)


# ---------------------------------------------------------------------------
# Ext groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtGroup:
    """Ext^degree(src, dst) relative to the cached free resolution of src.

    `cocycle_basis` are morphisms K_{degree-1} -> dst representing the adapted
    generators; `invariants` their orders (0 = a free summand).
    """

    src: Module
    dst: Module
    degree: int
    invariants: tuple[int, ...]
    cocycle_basis: tuple[Morphism, ...]
    quotient: QuotientGroup

    @property
    def is_zero(self) -> bool:
        return not self.invariants

    def class_coordinates(self, cocycle: Morphism) -> tuple[int, ...]:
        c = self.quotient.coords(Mat.column(cocycle.matrix.entries))
        if c is None:
            raise ModuleError("not a valid cocycle for this Ext group")
        return c

    def element(self, coeffs: Sequence[int]) -> Morphism:
        K = syzygy(self.src, self.degree)
        v = self.quotient.element(coeffs)
        return Morphism(K, self.dst, Mat(self.dst.gens, K.gens, v.entries))


@lru_cache(maxsize=None)
def ext(m: Module, n: Module, i: int) -> ExtGroup:
    """Ext^i(m, n) = coker(Hom(F_{i-1}, n) -> Hom(K_{i-1}, n)), i >= 1."""
    if i < 1:
        raise ModuleError("ext is defined for degree >= 1; use hom_group for degree 0")
    if m.algebra != n.algebra:
        raise ModuleError("ext over different algebras")
    st = resolution(m).stage(i - 1)
    K, F = st.left, st.middle
    incl = st.i
    k_sols = hom_solution_columns(K, n)
    f_sols = hom_solution_columns(F, n)
    # restriction along the inclusion, on flattened matrices
    restricted = []
    for j in range(f_sols.cols):
        phi = Mat(n.gens, F.gens, f_sols.col(j))
        restricted.append((phi @ incl.matrix).entries)
    amb = n.gens * K.gens
    sub_cols = Mat.from_columns(restricted, rows=amb)
    zer = MorphismSystem({0: (K, n)}).zero_columns()
    sub = sub_cols.hstack(zer) if zer.cols else sub_cols
    if k_sols.cols == 0:
        q = quotient_group(Mat.zeros(amb, 0), Mat.zeros(amb, 0), m.ring)
        return ExtGroup(m, n, i, (), (), q)
    q = quotient_group(k_sols, sub, m.ring)
    basis = tuple(
        Morphism(K, n, Mat(n.gens, K.gens, q.generators.col(j)))
        for j in range(q.generators.cols)
    )
    return ExtGroup(m, n, i, q.invariants, basis, q)


# ---------------------------------------------------------------------------
# Extension classes <-> short exact sequences
# ---------------------------------------------------------------------------


def ses_of_class(e: ExtGroup, coeffs: Sequence[int]) -> SES:
    """The extension 0 -> dst -> B -> src -> 0 realizing a degree-1 class."""
    if e.degree != 1:
        raise ModuleError("ses_of_class needs a degree-1 Ext group")
    st = resolution(e.src).stage(0)
    K, F = st.left, st.middle
    phi = e.element(coeffs)  # K -> dst
    po = pushout(phi, st.i)  # dst <- K -> F
    # map to src: descend (0, pi) through the pushout
    q = from_pushout(po, zero_morphism(e.dst, e.src), st.p)
    return SES(po.from_x, q)


def class_of_ses(s: SES) -> tuple[ExtGroup, tuple[int, ...]]:
    """The class of 0 -> A -> B -> C -> 0 inside Ext^1(C, A)."""
    C, A = s.right, s.left
    e = ext(C, A, 1)
    st = resolution(C).stage(0)
    # lift the free cover F -> C through the epi B -> C
    lam = _lift_through_epi(s.p, st.p)
    # restrict to the syzygy and factor through the mono A -> B
    rest = lam @ st.i
    phi = factor_through_mono(s.i, rest)
    if phi is None:
        raise ModuleError("connecting cocycle does not factor (internal)")
    return e, e.class_coordinates(phi)


def _lift_through_epi(p: Morphism, h: Morphism) -> Morphism:
    """x with p @ x = h, for h out of a free module (projectivity lift)."""
    sys = MorphismSystem({0: (h.src, p.src)})
    sys.add_equation([(0, p.matrix, None)], h.dst, h.src, h.matrix)
    sys.add_commutation(0)
    sol = sys.solve(p.ring)
    if sol is None:
        raise ModuleError("no lift through the epimorphism (source not free?)")
    return Morphism(h.src, p.src, sol[0])


# ---------------------------------------------------------------------------
# Splitting, projectivity, injectivity, dimension bounds
# ---------------------------------------------------------------------------


def is_split(s: SES) -> Optional[Morphism]:
    """A section of p when one exists; decided by a direct linear solve."""
    B, C = s.middle, s.right
    sys = MorphismSystem({0: (C, B)})
    sys.add_relations(0)
    sys.add_commutation(0)
    sys.add_equation([(0, s.p.matrix, None)], C, C, Mat.identity(C.gens))
    sol = sys.solve(B.ring)
    return None if sol is None else Morphism(C, B, sol[0])


@lru_cache(maxsize=None)
def is_projective(m: Module) -> bool:
    """True iff the canonical free cover splits."""
    if m.is_zero:
        return True
    return is_split(free_presentation(m)) is not None


def dual_module(m: Module) -> Module:
    """Hom_base(M, base) with transposed actions, over the opposite algebra."""
    if not m.ring.is_field:
        raise ModuleError("duality is shipped over field bases only")
    return Module(m.algebra.opposite, m.orders, tuple(a.transpose() for a in m.actions))


def dual_morphism(f: Morphism) -> Morphism:
    return Morphism(dual_module(f.dst), dual_module(f.src), f.matrix.transpose())


@lru_cache(maxsize=None)
def is_injective(m: Module) -> bool:
    """Projectivity of the dual over the opposite algebra (field base).

    Over the integers only the zero module is injective among finitely
    generated modules (divisible modules are never finitely generated), so
    that is what is returned there.
    """
    if not m.ring.is_field:
        return m.is_zero
    return is_projective(dual_module(m))


@lru_cache(maxsize=None)
def proj_dim_at_most(m: Module, d: int) -> bool:
    if d < 0:
        raise ModuleError("dimension bound must be >= 0")
    return is_projective(syzygy(m, d))
