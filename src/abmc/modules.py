"""Finitely generated modules over a finite-rank algebra.

The ambient abelian category: objects are modules presented over the base
ring (integers or a prime field) with one action matrix per algebra basis
element, morphisms are base-linear matrices compatible with relations and
actions.  Integer-base modules are kept eagerly in canonical form (torsion
invariant factors, divisibility-ordered, followed by free generators), so
equality of underlying groups is syntactic.  Field-base modules are
normalized to relation-free presentations.

The paper-side category is an arbitrary bicomplete abelian category;
restricting to finitely generated modules over a finite-rank algebra is this
artifact's scoping choice.  Operations that silently rely on cocompleteness
in the general setting (filtered colimits behind purity, infinite coproducts
behind cover arguments) are flagged in their docstrings rather than modeled.

No module isomorphism search anywhere: every construction returns explicit
structural morphisms instead.

All values are immutable; every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .linalg import (
    BaseRing,
    Mat,
    congruence_kernel,
    snf_diagonal,
    solve_congruence,
    spans_equal,
    _snf_full,
    _fp_rref,
    _null_rows,
)


class AlgebraError(ValueError):
    pass


class ModuleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Algebra:
    """Finite-rank associative unital algebra via structure constants.

    mult[i][j] holds the coordinates of e_i * e_j in the chosen basis.  Over
    the integers the algebra is free of rank `rank` as a base module by
    representation.  Associativity and unitality are checked exhaustively on
    basis elements at construction.
    """

    base: BaseRing
    rank: int
    mult: tuple[tuple[tuple[int, ...], ...], ...]
    unit: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        n = self.rank
        if n < 1:
            raise AlgebraError("rank must be >= 1")
        if len(self.mult) != n or any(len(r) != n for r in self.mult):
            raise AlgebraError("mult table must be rank x rank")
        for row in self.mult:
            for v in row:
                if len(v) != n:
                    raise AlgebraError("structure constants must have length rank")
        if len(self.unit) != n:
            raise AlgebraError("unit vector must have length rank")
        red = self.base.reduce
        object.__setattr__(
            self,
            "mult",
            tuple(tuple(tuple(red(c) for c in v) for v in row) for row in self.mult),
        )
        object.__setattr__(self, "unit", tuple(red(c) for c in self.unit))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.mul_vec(self.mult[i][j], self._e(k))
                    rhs = self.mul_vec(self._e(i), self.mult[j][k])
                    if lhs != rhs:
                        raise AlgebraError(
                            f"associativity fails on basis triple ({i}, {j}, {k})"
                        )
        for i in range(n):
            e = self._e(i)
            if self.mul_vec(self.unit, e) != e or self.mul_vec(e, self.unit) != e:
                raise AlgebraError(f"unit fails on basis element {i}")

    def _e(self, i: int) -> tuple[int, ...]:
        return tuple(1 if k == i else 0 for k in range(self.rank))

    def mul_vec(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        n = self.rank
        out = [0] * n
        for i in range(n):
            xi = x[i]
            if not xi:
                continue
            for j in range(n):
                yj = y[j]
                if not yj:
                    continue
                mij = self.mult[i][j]
                c = xi * yj
                for k in range(n):
                    out[k] += c * mij[k]
        return tuple(self.base.reduce(c) for c in out)

    @cached_property
    def group_table(self) -> Optional[dict]:
        """Group structure on the basis, when the algebra is a group algebra.

        Detected: every product of basis elements is again a basis element,
        the unit is a basis element, and every element is invertible.
        """
        n = self.rank
        table = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                v = self.mult[i][j]
                hits = [k for k, c in enumerate(v) if c]
                if len(hits) != 1 or v[hits[0]] != 1:
                    return None
                table[i][j] = hits[0]
        unit_hits = [k for k, c in enumerate(self.unit) if c]
        if len(unit_hits) != 1 or self.unit[unit_hits[0]] != 1:
            return None
        e = unit_hits[0]
        inv = [-1] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == e:
                    inv[i] = j
            if inv[i] < 0:
                return None
        return {"op": tuple(tuple(r) for r in table), "unit": e, "inv": tuple(inv)}

    @cached_property
    def non_unit_basis(self) -> tuple[int, ...]:
        """Indices other than u when the unit is a basis vector e_u, else all.

        Since e_u * e_j = e_j = e_j * e_u, once e_u acts as the identity a
        product or action needs checking only on these indices."""
        if sorted(self.unit) == [0] * (self.rank - 1) + [1]:
            return tuple(k for k, c in enumerate(self.unit) if not c)
        return tuple(range(self.rank))

    @cached_property
    def zero_module(self) -> "Module":
        return Module(self, (), tuple(Mat.zeros(0, 0) for _ in range(self.rank)))

    @property
    def is_group_algebra(self) -> bool:
        return self.group_table is not None

    @cached_property
    def opposite(self) -> "Algebra":
        mult = tuple(
            tuple(self.mult[j][i] for j in range(self.rank)) for i in range(self.rank)
        )
        return Algebra(self.base, self.rank, mult, self.unit, self.labels)

    def left_regular_action(self, k: int) -> Mat:
        """Matrix of left multiplication by e_k on the algebra itself."""
        return Mat.from_columns([list(self.mult[k][j]) for j in range(self.rank)])

    def right_mult_matrix(self, coeffs: Sequence[int]) -> Mat:
        """Matrix of x -> x * c where c has the given coordinates."""
        cols = []
        for k in range(self.rank):
            acc = [0] * self.rank
            for j, cj in enumerate(coeffs):
                if cj:
                    for t, m in enumerate(self.mult[k][j]):
                        acc[t] += cj * m
            cols.append([self.base.reduce(x) for x in acc])
        return Mat.from_columns(cols)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i}"

    def __repr__(self):
        return f"Algebra({self.base.name}, rank={self.rank})"


def make_algebra(
    base: BaseRing,
    mult: Sequence[Sequence[Sequence[int]]],
    unit: Sequence[int],
    labels: Optional[Sequence[str]] = None,
) -> Algebra:
    mult_t = tuple(tuple(tuple(v) for v in row) for row in mult)
    return Algebra(base, len(mult_t), mult_t, tuple(unit), tuple(labels) if labels else None)


def base_algebra(base: BaseRing) -> Algebra:
    """The base ring itself as a rank-1 algebra."""
    return make_algebra(base, [[[1]]], [1], labels=["1"])


def group_algebra(base: BaseRing, op: Sequence[Sequence[int]], labels=None) -> Algebra:
    """Group algebra from a group operation table op[i][j] = index of g_i g_j."""
    n = len(op)
    unit = None
    for e in range(n):
        if all(op[e][x] == x and op[x][e] == x for x in range(n)):
            unit = e
    if unit is None:
        raise AlgebraError("operation table has no identity")
    mult = [
        [[1 if k == op[i][j] else 0 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return make_algebra(base, mult, [1 if k == unit else 0 for k in range(n)], labels)


def cyclic_group_algebra(base: BaseRing, n: int) -> Algebra:
    op = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1"] + [f"g{'' if n <= 2 else i}" for i in range(1, n)]
    return group_algebra(base, op, labels)


def upper_triangular_algebra(base: BaseRing) -> Algebra:
    """2x2 upper triangular matrices; basis e11, e22, e12."""
    if not base.is_field:
        raise AlgebraError("triangular algebra is shipped over field bases only")
    z = [0, 0, 0]
    mult = [
        # e11 * -
        [[1, 0, 0], z, [0, 0, 1]],
        # e22 * -
        [z, [0, 1, 0], z],
        # e12 * -
        [z, [0, 0, 1], z],
    ]
    return make_algebra(base, mult, [1, 1, 0], labels=["e11", "e22", "e12"])


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


def _canonical_orders_ok(orders: Sequence[int], is_field: bool) -> bool:
    if is_field:
        return all(d == 0 for d in orders)
    seen_zero = False
    prev = None
    for d in orders:
        if d == 1 or d < 0:
            return False
        if d == 0:
            seen_zero = True
            continue
        if seen_zero:
            return False
        if prev is not None and d % prev:
            return False
        prev = d
    return True


@dataclass(frozen=True)
class Module:
    """Finitely generated module in canonical presentation.

    `orders[i]` is the relation modulus of generator i: 0 marks a free base
    coordinate, d >= 2 the relation d*e_i = 0.  Over a field all orders are 0.
    `actions[k]` is the matrix of the basis element e_k on generators; entries
    are stored reduced rowwise mod the target generator's order.
    """

    algebra: Algebra
    orders: tuple[int, ...]
    actions: tuple[Mat, ...]

    def __post_init__(self):
        alg = self.algebra
        g = len(self.orders)
        if not _canonical_orders_ok(self.orders, alg.base.is_field):
            raise ModuleError(f"orders not in canonical form: {self.orders}")
        if len(self.actions) != alg.rank:
            raise ModuleError("one action matrix per algebra basis element required")
        if any(T.rows != g or T.cols != g for T in self.actions):
            raise ModuleError("action matrices must be gens x gens")
        object.__setattr__(self, "actions", tuple(map(self._reduce_matrix, self.actions)))
        for k, T in enumerate(self.actions):
            # relation lattice maps into itself: order d_j kills column j
            for j, dj in enumerate(self.orders):
                if dj == 0:
                    continue
                for i, di in enumerate(self.orders):
                    v = dj * T[i, j]
                    if di:
                        if v % di:
                            raise ModuleError(
                                f"action {k} does not preserve relations at ({i}, {j})"
                            )
                    elif alg.base.reduce(v) != 0:
                        raise ModuleError(
                            f"action {k} sends torsion generator {j} to a free coordinate"
                        )
        # unit before table: it makes the table hold at pairs involving a unit e_u
        if self._combination(alg.unit) != Mat.identity(g):
            raise ModuleError("unit does not act as the identity")
        # multiplication table holds modulo relations, at the remaining pairs
        basis = alg.non_unit_basis
        for i in basis:
            for j in basis:
                lhs = self._reduce_matrix(self.actions[i] @ self.actions[j])
                if lhs != self._combination(alg.mult[i][j]):
                    raise ModuleError(f"actions violate the multiplication table at ({i}, {j})")

    def _combination(self, coeffs: Sequence[int]) -> Mat:
        """The reduced matrix of sum_k coeffs[k] * actions[k]."""
        g = self.gens
        terms = [[c * x for x in T.entries] for c, T in zip(coeffs, self.actions) if c]
        ent = tuple(map(sum, zip(*terms))) if terms else (0,) * (g * g)
        return self._reduce_matrix(Mat(g, g, ent))

    def _reduce_matrix(self, m: Mat) -> Mat:
        p = self.algebra.base.p
        if p:
            return Mat(m.rows, m.cols, tuple(x % p for x in m.entries))
        if not any(self.orders):
            return m
        c, e = m.cols, m.entries
        ent = []
        for i in range(m.rows):
            d = self.orders[i]
            row = e[i * c : (i + 1) * c]
            ent.extend([x % d for x in row] if d else row)
        return Mat(m.rows, m.cols, tuple(ent))

    @property
    def gens(self) -> int:
        return len(self.orders)

    @property
    def is_zero(self) -> bool:
        return self.gens == 0

    @property
    def ring(self) -> BaseRing:
        return self.algebra.base

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.orders if d == 0)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.orders if d)

    def relation_columns(self) -> Mat:
        """Columns generating the relation lattice inside base^gens."""
        cols = [
            [d if i == j else 0 for i in range(self.gens)]
            for j, d in enumerate(self.orders)
            if d
        ]
        return Mat.from_columns(cols, rows=self.gens)

    def relation_rows(self) -> Mat:
        return self.relation_columns().transpose()

    def reduce_vector(self, v: Mat) -> Mat:
        return self._reduce_matrix(v)

    def element_order_profile(self) -> str:
        if self.ring.is_field:
            return f"{self.ring.name}^{self.gens}"
        parts = [f"Z/{d}" for d in self.torsion] + (
            [f"Z^{self.free_rank}"] if self.free_rank else []
        )
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Module({self.algebra.base.name}, orders={self.orders})"


def zero_module(algebra: Algebra) -> Module:
    """The zero module over `algebra`: one shared instance per algebra."""
    return algebra.zero_module


def free_module(algebra: Algebra, r: int) -> Module:
    """Free module of rank r: block sum of r copies of the regular representation."""
    if r < 0:
        raise ModuleError("rank must be >= 0")
    n = algebra.rank
    g = n * r
    actions = []
    for k in range(n):
        L = algebra.left_regular_action(k)
        ent = [0] * (g * g)
        for copy in range(r):
            off = copy * n
            for i in range(n):
                for j in range(n):
                    ent[(off + i) * g + (off + j)] = L[i, j]
        actions.append(Mat(g, g, tuple(ent)))
    return Module(algebra, (0,) * g, tuple(actions))


def trivial_module(algebra: Algebra) -> Module:
    """Rank-one module with every group element acting as the identity.

    Defined for group algebras and for the base ring itself; this is the unit
    of the diagonal tensor product.
    """
    if algebra.rank > 1 and algebra.group_table is None:
        raise ModuleError("trivial module requires a group algebra")
    one = Mat.identity(1)
    return Module(algebra, (0,), tuple(one for _ in range(algebra.rank)))


def cyclic_z_module(algebra: Algebra, n: int) -> Module:
    """Z/n with the trivial action (group algebras over Z, or Z itself)."""
    if algebra.base.is_field:
        raise ModuleError("cyclic_z_module is an integer-base construction")
    if n < 2:
        raise ModuleError("modulus must be >= 2")
    if algebra.rank > 1 and algebra.group_table is None:
        raise ModuleError("trivial action requires a group algebra")
    one = Mat.identity(1)
    return Module(algebra, (n,), tuple(one for _ in range(algebra.rank)))


def module_from_presentation(
    algebra: Algebra,
    relation_rows: Mat,
    actions: Sequence[Mat],
) -> tuple[Module, Mat, Mat]:
    """Canonicalize a presentation; returns (module, proj, sect).

    `relation_rows` has one relation per row over `gens` columns;
    `proj` (new gens x old gens) and `sect` (old x new) satisfy
    proj @ sect = identity and induce mutually inverse isomorphisms between
    the presented module and the canonical one.
    """
    g = relation_rows.cols
    ring = algebra.base
    for T in actions:
        if T.rows != g or T.cols != g:
            raise ModuleError("action matrices must match generator count")

    if ring.is_field:
        # proj reduces mod the row space and keeps the non-pivot coordinates:
        # its columns are the rows of the relations' null-space basis
        kept, proj_cols = _null_rows(*_fp_rref(relation_rows, ring.p), g, ring.p)
        proj = Mat.from_columns(proj_cols, rows=len(kept))
        sect = Mat.from_columns([[1 if t == j else 0 for t in range(g)] for j in kept], rows=g)
        orders = (0,) * len(kept)
    else:
        rel_cols = relation_rows.transpose()
        D, U, Uinv = _snf_full(rel_cols, "U", "Uinv")
        diag = snf_diagonal(D)
        kept = []
        orders_list = []
        for i in range(g):
            d = diag[i] if i < len(diag) else 0
            if d == 1:
                continue
            kept.append(i)
            orders_list.append(d)
        proj = Mat.from_rows([list(U.row(i)) for i in kept], cols=g)
        sect = Mat.from_columns([list(Uinv.col(i)) for i in kept], rows=g)
        orders = tuple(orders_list)

    new_actions = tuple((proj @ T @ sect) for T in actions)
    mod = Module(algebra, orders, new_actions)
    return mod, mod._reduce_matrix(proj), sect


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Morphism:
    """Base-linear map respecting relations and actions, stored reduced."""

    src: Module
    dst: Module
    matrix: Mat

    def __post_init__(self):
        if self.src.algebra != self.dst.algebra:
            raise ModuleError("morphism endpoints live over different algebras")
        if self.matrix.rows != self.dst.gens or self.matrix.cols != self.src.gens:
            raise ModuleError(
                f"matrix shape {self.matrix.rows}x{self.matrix.cols} does not match "
                f"{self.dst.gens}x{self.src.gens}"
            )
        if not self.matrix.entries:
            return  # every later check is a statement about no entries
        m = self.dst._reduce_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        ring = self.src.ring
        # relations of the source map into the relation lattice of the target
        for j, dj in enumerate(self.src.orders):
            if not dj:
                continue
            for i, di in enumerate(self.dst.orders):
                v = dj * m[i, j]
                if di:
                    if v % di:
                        raise ModuleError(f"relation violation at entry ({i}, {j})")
                elif ring.reduce(v) != 0:
                    raise ModuleError(f"relation violation at entry ({i}, {j})")
        # e_u acts as the identity on both ends when the unit is a basis vector
        for k in self.src.algebra.non_unit_basis:
            lhs = m @ self.src.actions[k]
            rhs = self.dst.actions[k] @ m
            if self.dst._reduce_matrix(lhs) != self.dst._reduce_matrix(rhs):
                raise ModuleError(f"morphism does not commute with action {k}")

    @property
    def ring(self) -> BaseRing:
        return self.src.ring

    def __matmul__(self, other: "Morphism") -> "Morphism":
        if other.dst != self.src:
            raise ModuleError("composition mismatch")
        return Morphism(other.src, self.dst, self.matrix @ other.matrix)

    def __add__(self, other: "Morphism") -> "Morphism":
        if (other.src, other.dst) != (self.src, self.dst):
            raise ModuleError("sum of morphisms with different endpoints")
        return Morphism(self.src, self.dst, self.matrix + other.matrix)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-other)

    def __neg__(self) -> "Morphism":
        return Morphism(self.src, self.dst, -self.matrix)

    def scale(self, c: int) -> "Morphism":
        return Morphism(self.src, self.dst, self.matrix.scale(c))

    @property
    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def apply(self, v: Mat) -> Mat:
        return self.dst.reduce_vector(self.matrix @ v)

    def __repr__(self):
        return f"Morphism({self.src.orders} -> {self.dst.orders})"


def identity(m: Module) -> Morphism:
    return Morphism(m, m, Mat.identity(m.gens))


def zero_morphism(src: Module, dst: Module) -> Morphism:
    return Morphism(src, dst, Mat.zeros(dst.gens, src.gens))


def morphism_equal(f: Morphism, g: Morphism) -> bool:
    return f.src == g.src and f.dst == g.dst and f.matrix == g.matrix


# ---------------------------------------------------------------------------
# Kernels, cokernels, images
# ---------------------------------------------------------------------------


def _preimage_lattice(f: Morphism) -> Mat:
    """Columns generate {v in base^src : f(v) lies in dst's relation lattice}."""
    # f(v) = 0 mod dst orders, rowwise.
    return congruence_kernel(f.matrix, list(f.dst.orders), f.ring)


def kernel(f: Morphism) -> tuple[Module, Morphism]:
    """Kernel with its monic structural arrow into the source.

    Universality is available via factor_through_mono, computed on demand.
    """
    ring = f.ring
    L = _preimage_lattice(f)
    src = f.src
    if L.cols == 0:
        K = zero_module(src.algebra)
        return K, Morphism(K, src, Mat.zeros(src.gens, 0))
    # relations of the presented kernel: coordinates x with L x inside src relations
    rel = congruence_kernel(L, list(src.orders), ring)
    acts = []
    for k in range(src.algebra.rank):
        X = solve_congruence(L, list(src.orders), (src.actions[k] @ L), ring)
        if X is None:
            raise ModuleError("action does not restrict to the kernel (internal)")
        acts.append(X)
    K, proj, sect = module_from_presentation(src.algebra, rel.transpose(), acts)
    incl = Morphism(K, src, L @ sect)
    return K, incl


def _cokernel_with_section(f: Morphism) -> tuple[Module, Morphism, Mat]:
    """Cokernel, its projection q and a base-level section: q.matrix @ sect is
    the identity modulo the orders of the cokernel."""
    dst = f.dst
    rel_rows = dst.relation_rows().vstack(f.matrix.transpose())
    C, proj, sect = module_from_presentation(dst.algebra, rel_rows, dst.actions)
    return C, Morphism(dst, C, proj), sect


def cokernel(f: Morphism) -> tuple[Module, Morphism]:
    """Cokernel with its epic structural arrow out of the target."""
    C, q, _ = _cokernel_with_section(f)
    return C, q


def image_columns(f: Morphism) -> Mat:
    """Columns generating image(f) + relations inside base^dst."""
    rel = f.dst.relation_columns()
    return f.matrix.hstack(rel) if rel.cols else f.matrix


def is_monic(f: Morphism) -> bool:
    K, _ = kernel(f)
    return K.is_zero


def is_epic(f: Morphism) -> bool:
    C, _ = cokernel(f)
    return C.is_zero


# ---------------------------------------------------------------------------
# Linear problems about morphisms
# ---------------------------------------------------------------------------


class MorphismSystem:
    """A congruence system whose unknowns are morphism matrices.

    blocks[n] = (src, dst) declares an unknown X_n: src -> dst, a dst.gens x
    src.gens matrix flattened row-major at offsets[n], the blocks laid out in
    sorted key order.  Rows keep the order of the add_* calls, and each row is
    taken modulo the order of the target generator it constrains.
    """

    def __init__(self, blocks: dict[int, tuple[Module, Module]]):
        self.blocks = blocks
        self.offsets = {}
        off = 0
        for n in sorted(blocks):
            s, d = blocks[n]
            self.offsets[n] = off
            off += d.gens * s.gens
        self.total = off
        self.rows: list[list[int]] = []
        self.moduli: list[int] = []
        self.rhs: list[int] = []

    def add_relations(self, n: int):
        """The relations of X_n's source land in its target's relations."""
        s, d = self.blocks[n]
        off, m, total = self.offsets[n], s.gens, self.total
        for j, dj in enumerate(s.orders):
            if not dj:
                continue
            for i in range(d.gens):
                row = [0] * total
                row[off + i * m + j] = dj
                self.rows.append(row)
            self.moduli.extend(d.orders)
            self.rhs.extend([0] * d.gens)

    def add_commutation(self, n: int):
        """X_n A_k - B_k X_n = 0 for every basis element k of the algebra."""
        s, d = self.blocks[n]
        off, m, dg, total = self.offsets[n], s.gens, d.gens, self.total
        for k in range(s.algebra.rank):
            A, B = s.actions[k].entries, d.actions[k].entries
            for i, di in enumerate(d.orders):
                base = off + i * m
                minus = [(off + t * m, c) for t, c in enumerate(B[i * dg : (i + 1) * dg]) if c]
                for j in range(m):
                    row = [0] * total
                    row[base : base + m] = A[j::m]
                    for at, c in minus:
                        row[at + j] -= c
                    self.rows.append(row)
                self.moduli.extend([di] * m)
                self.rhs.extend([0] * m)

    def add_equation(
        self,
        terms: Sequence[tuple[int, Optional[Mat], Optional[Mat]]],
        target: Module,
        source: Module,
        rhs: Optional[Mat] = None,
    ):
        """sum_k  L_k  X_{n_k}  R_k  =  rhs  (mod target orders).

        Each term is (block key, left matrix or None, right matrix or None);
        None means identity.  Shapes: L: target x d_n, R: s_n x source.  An
        empty term list gives all-zero rows: solvable iff rhs is zero.
        """
        tg, sg, total = target.gens, source.gens, self.total
        prepared = []
        for n, L, R in terms:
            off, m = self.offsets[n], self.blocks[n][0].gens
            if L is None:
                lrows = [((off + i * m, 1),) for i in range(tg)]
            else:
                w, e = L.cols, L.entries
                lrows = [
                    [(off + a * m, c) for a, c in enumerate(e[i * w : i * w + w]) if c]
                    for i in range(tg)
                ]
            # an identity right side puts column j of X_n at column j only
            rcols = None if R is None else [
                [(b, c) for b, c in enumerate(R.col(j)) if c] for j in range(sg)
            ]
            prepared.append((lrows, rcols))
        for i, di in enumerate(target.orders):
            for j in range(sg):
                row = [0] * total
                for lrows, rcols in prepared:
                    if rcols is None:
                        for base, la in lrows[i]:
                            row[base + j] += la
                    else:
                        for base, la in lrows[i]:
                            for b, rb in rcols[j]:
                                row[base + b] += la * rb
                self.rows.append(row)
            self.moduli.extend([di] * sg)
        self.rhs.extend(rhs.entries if rhs is not None else [0] * (tg * sg))

    def solve(self, ring: BaseRing) -> Optional[dict[int, Mat]]:
        C = Mat.from_rows(self.rows, cols=self.total)
        sol = solve_congruence(C, self.moduli, Mat.column(self.rhs), ring)
        return None if sol is None else self.split(sol)

    def kernel_columns(self, ring: BaseRing) -> Mat:
        C = Mat.from_rows(self.rows, cols=self.total)
        return congruence_kernel(C, self.moduli, ring)

    def zero_columns(self) -> Mat:
        """Columns generating the flattened zero morphisms: entry (i, j) of X_n
        may be any multiple of the order of X_n's i-th target generator."""
        cols = []
        for n in sorted(self.blocks):
            s, d = self.blocks[n]
            off, m = self.offsets[n], s.gens
            for i, di in enumerate(d.orders):
                if not di:
                    continue
                for j in range(m):
                    col = [0] * self.total
                    col[off + i * m + j] = di
                    cols.append(col)
        return Mat.from_columns(cols, rows=self.total)

    def split(self, vec: Mat) -> dict[int, Mat]:
        out = {}
        for n in sorted(self.blocks):
            s, d = self.blocks[n]
            off = self.offsets[n]
            out[n] = Mat(d.gens, s.gens, tuple(vec.entries[off : off + d.gens * s.gens]))
        return out

    def flatten(self, mats: dict[int, Mat]) -> Mat:
        """The flattened vector of the given blocks; missing blocks are zero."""
        ent = []
        for n in sorted(self.blocks):
            s, d = self.blocks[n]
            m = mats.get(n)
            ent.extend(m.entries if m is not None else (0,) * (d.gens * s.gens))
        return Mat.column(ent)


def factor_through_mono(k: Morphism, h: Morphism) -> Optional[Morphism]:
    """x with k @ x = h, when it exists.  For monic k the factorization of any
    h that lands in the image is unique as a morphism."""
    if k.dst != h.dst:
        raise ModuleError("targets must agree")
    sys = MorphismSystem({0: (h.src, k.src)})
    sys.add_relations(0)
    sys.add_equation([(0, k.matrix, None)], k.dst, h.src, h.matrix)
    sol = sys.solve(k.ring)
    return None if sol is None else Morphism(h.src, k.src, sol[0])


def descend_by_section(q: Morphism, sect: Mat, h: Morphism) -> Optional[Morphism]:
    """y with y @ q = h, when it exists, for an epi q with a base-level section.

    Any such y is h @ sect: q @ sect is the identity modulo the orders of
    q.dst, so y = y @ q @ sect = h @ sect modulo the orders of h.dst.
    """
    if q.src != h.src:
        raise ModuleError("sources must agree")
    try:
        y = Morphism(q.dst, h.dst, h.matrix @ sect)
    except ModuleError:
        return None
    return y if (y @ q).matrix == h.matrix else None


# ---------------------------------------------------------------------------
# Short exact sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SES:
    """0 -> A -> B -> C -> 0, verified exact at construction."""

    i: Morphism
    p: Morphism

    def __post_init__(self):
        if self.i.dst != self.p.src:
            raise ModuleError("middle terms disagree")
        if not is_monic(self.i):
            raise ModuleError("left map is not monic")
        if not is_epic(self.p):
            raise ModuleError("right map is not epic")
        if not sequence_exact_at_middle(self.i, self.p):
            raise ModuleError("image != kernel at the middle term")

    @property
    def left(self) -> Module:
        return self.i.src

    @property
    def middle(self) -> Module:
        return self.i.dst

    @property
    def right(self) -> Module:
        return self.p.dst

    def __repr__(self):
        return f"SES({self.left.orders} -> {self.middle.orders} -> {self.right.orders})"


def sequence_exact_at_middle(i: Morphism, p: Morphism) -> bool:
    """image(i) == kernel(p) as sublattices containing the relations."""
    if not (p @ i).is_zero:
        return False
    im = image_columns(i)
    ker = _preimage_lattice(p)
    ring = i.ring
    B = i.dst
    rel = B.relation_columns()
    ker_full = ker.hstack(rel) if rel.cols else ker
    return spans_equal(im, ker_full, ring)


# ---------------------------------------------------------------------------
# Biproducts, pullbacks, pushouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Biproduct:
    module: Module
    i1: Morphism
    i2: Morphism
    p1: Morphism
    p2: Morphism


def direct_sum(m1: Module, m2: Module) -> Biproduct:
    if m1.algebra != m2.algebra:
        raise ModuleError("direct sum over different algebras")
    alg = m1.algebra
    g1, g2 = m1.gens, m2.gens
    g = g1 + g2
    rel_rows = []
    for j, d in enumerate(m1.orders):
        if d:
            rel_rows.append([d if t == j else 0 for t in range(g)])
    for j, d in enumerate(m2.orders):
        if d:
            rel_rows.append([d if t == g1 + j else 0 for t in range(g)])
    acts = []
    for k in range(alg.rank):
        a, b = m1.actions[k], m2.actions[k]
        ent = [0] * (g * g)
        for i in range(g1):
            for j in range(g1):
                ent[i * g + j] = a[i, j]
        for i in range(g2):
            for j in range(g2):
                ent[(g1 + i) * g + (g1 + j)] = b[i, j]
        acts.append(Mat(g, g, tuple(ent)))
    S, proj, sect = module_from_presentation(alg, Mat.from_rows(rel_rows, cols=g), acts)
    e1 = Mat.from_columns(
        [[1 if t == j else 0 for t in range(g)] for j in range(g1)], rows=g
    )
    e2 = Mat.from_columns(
        [[1 if t == g1 + j else 0 for t in range(g)] for j in range(g2)], rows=g
    )
    r1 = Mat.from_rows([[1 if t == j else 0 for t in range(g)] for j in range(g1)], cols=g)
    r2 = Mat.from_rows(
        [[1 if t == g1 + j else 0 for t in range(g)] for j in range(g2)], cols=g
    )
    return Biproduct(
        S,
        Morphism(m1, S, proj @ e1),
        Morphism(m2, S, proj @ e2),
        Morphism(S, m1, r1 @ sect),
        Morphism(S, m2, r2 @ sect),
    )


def pair_into_sum(b: Biproduct, f: Morphism, g: Morphism) -> Morphism:
    """(f, g): T -> M1 + M2 for f: T -> M1, g: T -> M2."""
    if f.src != g.src:
        raise ModuleError("sources must agree")
    return Morphism(f.src, b.module, b.i1.matrix @ f.matrix + b.i2.matrix @ g.matrix)


def pair_from_sum(b: Biproduct, f: Morphism, g: Morphism) -> Morphism:
    """[f, g]: M1 + M2 -> T for f: M1 -> T, g: M2 -> T."""
    if f.dst != g.dst:
        raise ModuleError("targets must agree")
    return Morphism(b.module, f.dst, f.matrix @ b.p1.matrix + g.matrix @ b.p2.matrix)


@dataclass(frozen=True)
class Pullback:
    module: Module
    to_x: Morphism
    to_y: Morphism
    _sum: Biproduct
    _incl: Morphism  # into X + Y


def pullback(f: Morphism, g: Morphism) -> Pullback:
    """P = kernel of (f, -g): X + Y -> Z, with its two legs."""
    if f.dst != g.dst:
        raise ModuleError("pullback needs a common codomain")
    b = direct_sum(f.src, g.src)
    diff = Morphism(
        b.module, f.dst, f.matrix @ b.p1.matrix - g.matrix @ b.p2.matrix
    )
    K, incl = kernel(diff)
    return Pullback(K, b.p1 @ incl, b.p2 @ incl, b, incl)


def into_pullback(pb: Pullback, u: Morphism, v: Morphism) -> Morphism:
    """Universal arrow T -> P for u: T -> X, v: T -> Y with f u = g v."""
    h = pair_into_sum(pb._sum, u, v)
    w = factor_through_mono(pb._incl, h)
    if w is None:
        raise ModuleError("square does not commute: no arrow into the pullback")
    return w


@dataclass(frozen=True)
class Pushout:
    module: Module
    from_x: Morphism
    from_y: Morphism
    _sum: Biproduct
    _quot: Morphism  # from X + Y
    _sect: Mat  # base-level section: _quot.matrix @ _sect is the identity on Q


def pushout(f: Morphism, g: Morphism) -> Pushout:
    """Q = cokernel of (f, -g): Z -> X + Y, with its two legs."""
    if f.src != g.src:
        raise ModuleError("pushout needs a common domain")
    b = direct_sum(f.dst, g.dst)
    diff = Morphism(
        f.src, b.module, b.i1.matrix @ f.matrix - b.i2.matrix @ g.matrix
    )
    Q, quot, sect = _cokernel_with_section(diff)
    return Pushout(Q, quot @ b.i1, quot @ b.i2, b, quot, sect)


def from_pushout(po: Pushout, u: Morphism, v: Morphism) -> Morphism:
    """Universal arrow Q -> T for u: X -> T, v: Y -> T with u f = v g.

    Descends (u, v): X + Y -> T through the quotient by its section.
    """
    h = pair_from_sum(po._sum, u, v)
    w = descend_by_section(po._quot, po._sect, h)
    if w is None:
        raise ModuleError("square does not commute: no arrow from the pushout")
    return w


# ---------------------------------------------------------------------------
# Diagonal tensor product (group algebras and the base ring)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorProduct:
    module: Module
    proj: Mat  # from the (i, j)-pair presentation to the canonical module
    sect: Mat


def _tensor_supported(alg: Algebra):
    if alg.rank > 1 and alg.group_table is None:
        raise ModuleError(
            "diagonal tensor products are supported over group algebras and the base ring"
        )


def tensor_with_maps(m1: Module, m2: Module) -> TensorProduct:
    if m1.algebra != m2.algebra:
        raise ModuleError("tensor over different algebras")
    alg = m1.algebra
    _tensor_supported(alg)
    g1, g2 = m1.gens, m2.gens
    g = g1 * g2
    rel_rows = []
    for i, d in enumerate(m1.orders):
        if d:
            for j in range(g2):
                rel_rows.append([d if t == i * g2 + j else 0 for t in range(g)])
    for j, d in enumerate(m2.orders):
        if d:
            for i in range(g1):
                rel_rows.append([d if t == i * g2 + j else 0 for t in range(g)])
    acts = [m1.actions[k].kron(m2.actions[k]) for k in range(alg.rank)]
    T, proj, sect = module_from_presentation(alg, Mat.from_rows(rel_rows, cols=g), acts)
    return TensorProduct(T, proj, sect)


def tensor_diagonal(m1: Module, m2: Module) -> Module:
    """Tensor over the base with the diagonal action (for group algebras)."""
    return tensor_with_maps(m1, m2).module


def tensor_morphisms(f: Morphism, g: Morphism) -> Morphism:
    """f (x) g between the canonical diagonal tensor modules."""
    src = tensor_with_maps(f.src, g.src)
    dst = tensor_with_maps(f.dst, g.dst)
    big = f.matrix.kron(g.matrix)
    return Morphism(src.module, dst.module, dst.proj @ big @ src.sect)


# ---------------------------------------------------------------------------
# Purity (integer base)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PurityReport:
    pure: bool
    witness: Optional[int]
    bound: int
    tested_moduli: tuple[int, ...]
    complete: bool


def restrict_to_base(m: Module) -> Module:
    """Forget the algebra action: the underlying module over the base ring."""
    alg = base_algebra(m.ring)
    return Module(alg, m.orders, (Mat.identity(m.gens),))


def restrict_morphism_to_base(f: Morphism) -> Morphism:
    return Morphism(restrict_to_base(f.src), restrict_to_base(f.dst), f.matrix)


def _complex_exact_three(i: Morphism, p: Morphism) -> bool:
    """Exactness of A -> B -> C at all three spots (i monic, middle, p epic)."""
    if not is_monic(i):
        return False
    if not is_epic(p):
        return False
    return sequence_exact_at_middle(i, p)


def is_pure(s: SES, bound: int = 64) -> PurityReport:
    """Purity of an integer-base SES, decided against cyclic test modules.

    Tensoring the underlying groups with Z/q for prime powers q <= bound
    covers all cyclic tests Z/n, n <= bound (Z/n splits into its primary
    parts), and the algebra's own cyclic quotients A/nA act the same way on
    underlying groups (A/nA tensor_A M = M/nM = Z/n tensor_Z M).  The verdict
    is complete for finitely generated underlying groups once the bound
    reaches every invariant factor involved; the report records this.
    """
    if s.left.ring.is_field:
        raise ModuleError("purity testing is an integer-base operation")
    i0 = restrict_morphism_to_base(s.i)
    p0 = restrict_morphism_to_base(s.p)
    alg = i0.src.algebra
    moduli = []
    q = 2
    while q <= bound:
        is_pp = False
        for pr in range(2, q + 1):
            if q % pr == 0:
                is_pp = True
                k = q
                while k % pr == 0:
                    k //= pr
                if k != 1:
                    is_pp = False
                break
        if is_pp:
            moduli.append(q)
        q += 1
    largest = max(
        [1]
        + [d for d in s.left.torsion]
        + [d for d in s.middle.torsion]
        + [d for d in s.right.torsion]
    )
    complete = bound >= largest
    for n in moduli:
        Zn = cyclic_z_module(alg, n)
        ti = _tensor_base_morphism(i0, Zn)
        tp = _tensor_base_morphism(p0, Zn)
        if not _complex_exact_three(ti, tp):
            return PurityReport(False, n, bound, tuple(moduli), complete)
    return PurityReport(True, None, bound, tuple(moduli), complete)


def _tensor_base_morphism(f: Morphism, t: Module) -> Morphism:
    return tensor_morphisms(f, identity(t))
