"""Exact linear algebra over the integers and over small prime fields.

Everything downstream (modules, Hom/Ext solvers, chain complexes) reduces to
the primitives in this file: Smith normal form with transform matrices,
exact linear solves, kernel lattices, and quotients of lattices by
sublattices.  Integer arithmetic uses Python's arbitrary-precision ints
(SNF intermediates blow up; desk-scale matrices stay small enough that this
is fine).  Prime-field elimination works on Python rows too: packed into
one int per row and reduced by XOR over F_2, lists of residues otherwise.

All functions are pure; `Mat` is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

MAX_PRIME = 1 << 16  # a bound on accepted inputs: the Python ints of F_p elimination cannot overflow


class LinalgError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class BaseRing:
    """Coefficient ring: the integers (p == 0) or the prime field F_p."""

    p: int = 0

    def __post_init__(self):
        if self.p:
            if not _is_prime(self.p):
                raise LinalgError(f"not a prime: {self.p}")
            if self.p >= MAX_PRIME:
                raise LinalgError(f"prime too large: {self.p} >= 2**16")

    @property
    def is_field(self) -> bool:
        return self.p != 0

    def reduce(self, x: int) -> int:
        return x % self.p if self.p else x

    @property
    def name(self) -> str:
        return f"F{self.p}" if self.p else "Z"

    def __repr__(self):
        return f"BaseRing({self.name})"


ZZ = BaseRing(0)


@dataclass(frozen=True)
class Mat:
    """Dense matrix with integer entries, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise LinalgError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise LinalgError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "Mat":
        rows = [list(r) for r in rows]
        if rows:
            n = len(rows[0])
        else:
            n = 0 if cols is None else cols
        if cols is not None:
            n = cols
        for r in rows:
            if len(r) != n:
                raise LinalgError("ragged rows")
        return Mat(len(rows), n, tuple(chain.from_iterable(rows)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def column(values: Sequence[int]) -> "Mat":
        values = tuple(values)
        return Mat(len(values), 1, values)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "Mat":
        cols = [list(c) for c in cols]
        if cols:
            m = len(cols[0])
        else:
            m = 0 if rows is None else rows
        if rows is not None:
            m = rows
        for c in cols:
            if len(c) != m:
                raise LinalgError("ragged columns")
        return Mat(m, len(cols), tuple(chain.from_iterable(zip(*cols))))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Mat":
        e, n = self.entries, self.cols
        return Mat(n, self.rows, tuple(chain.from_iterable(e[j::n] for j in range(n))))

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in add")
        return Mat(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in sub")
        return Mat(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: int) -> "Mat":
        return Mat(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise LinalgError(f"shape mismatch in matmul: {self.cols} != {other.rows}")
        m, k, n = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (m * n)
        for i in range(m):
            arow = a[i * k : (i + 1) * k]
            base = i * n
            for t in range(k):
                c = arow[t]
                if c:
                    brow = b[t * n : (t + 1) * n]
                    for j in range(n):
                        out[base + j] += c * brow[j]
        return Mat(m, n, tuple(out))

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; index (i, j) of self pairs with (i', j') of other
        at row i*other.rows + i', col j*other.cols + j'."""
        out = [0] * (self.rows * other.rows * self.cols * other.cols)
        R, C = self.rows * other.rows, self.cols * other.cols
        for i in range(self.rows):
            for j in range(self.cols):
                c = self[i, j]
                if not c:
                    continue
                for i2 in range(other.rows):
                    for j2 in range(other.cols):
                        out[(i * other.rows + i2) * C + (j * other.cols + j2)] = c * other[i2, j2]
        return Mat(R, C, tuple(out))

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise LinalgError("row mismatch in hstack")
        ent = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return Mat(self.rows, self.cols + other.cols, tuple(ent))

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise LinalgError("col mismatch in vstack")
        return Mat(self.rows + other.rows, self.cols, self.entries + other.entries)

    def reduce(self, ring: BaseRing) -> "Mat":
        if not ring.is_field:
            return self
        p = ring.p
        return Mat(self.rows, self.cols, tuple(x % p for x in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        return "Mat[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------


def _least(r: list[int]) -> int:
    """Smallest nonzero absolute value in r; 0 for a zero row."""
    return min(map(abs, filter(None, r)), default=0)


def _pivot_choice(a: list[list[int]], live: list[int], least: list[int]) -> Optional[tuple[int, int]]:
    """Pivot of the trailing block whose nonzero rows are `live`, in order.

    The first +-1 in row-major order wins outright; otherwise the smallest
    nonzero absolute value, ties broken by lowest (row, col).  Both come down
    to the first live row of least `_least`, cached per row in `least`, and
    its first entry of that size.  Rows of the trailing block are zero left of
    it, so whole rows are scanned."""
    if not live:
        return None
    i = min(live, key=least.__getitem__)
    m, r = least[i], a[i]
    return i, min(r.index(x) for x in (m, -m) if x in r)


def _axpy(x: list[int], c: int, y: list[int]) -> list[int]:
    return [p + c * q for p, q in zip(x, y)]


def _swap(m: Optional[list], i: int, j: int) -> None:
    if m is not None:
        m[i], m[j] = m[j], m[i]


def _identity_rows(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _square(m: list[list[int]], by_columns: bool) -> Mat:
    k = len(m)
    return Mat(k, k, tuple(chain.from_iterable(zip(*m) if by_columns else m)))


def _snf_full(A: Mat, *want: str):
    """Smith normal form D = U*A*V, returned as (D, *requested transforms).

    `want` names the transforms to return, in the order wanted, out of "U",
    "Uinv", "V" and "Vinv" (U, V unimodular).  Only those are maintained:
    each costs a row operation per elimination step, so a kernel-only or
    invariants-only caller pays for none of them.  The elimination, and so D
    and every transform, does not depend on which are requested."""
    rows, cols = A.rows, A.cols
    a = A.to_lists()
    least = list(map(_least, a))
    # U and Vinv are kept by rows, Uinv and V by columns (transposed), so that
    # every update of every transform is a row update.
    u = _identity_rows(rows) if "U" in want else None
    uinv_t = _identity_rows(rows) if "Uinv" in want else None
    v_t = _identity_rows(cols) if "V" in want else None
    vinv = _identity_rows(cols) if "Vinv" in want else None
    n = min(rows, cols)

    def eliminate(t, live):
        # Clear column t below and row t right of the pivot a[t][t] by
        # floor-quotient row and column operations; True when both are clear.
        # Rows that become zero leave `live`.
        rt = a[t]
        p = rt[t]
        row_qs = []
        rest = []  # rows keeping a nonzero remainder in column t
        for i in [i for i in live if a[i][t]][1:]:
            q, rem = divmod(a[i][t], p)
            if q:
                a[i] = _axpy(a[i], -q, rt)
                least[i] = _least(a[i])
                row_qs.append((q, i))
            if rem:
                rest.append(i)
        if row_qs:
            if not all(least[i] for _, i in row_qs):
                live[:] = [i for i in live if least[i]]
            if u is not None:
                ut = u[t]
                for q, i in row_qs:
                    u[i] = _axpy(u[i], -q, ut)
            if uinv_t is not None:
                w = uinv_t[t]
                for q, i in row_qs:
                    w = _axpy(w, q, uinv_t[i])
                uinv_t[t] = w
        col_qs = [(x // p, j) for j, x in enumerate(rt[t + 1 :], t + 1) if x]
        col_qs = [(q, j) for q, j in col_qs if q]
        if col_qs:
            for i in [t, *rest]:
                r = a[i]
                x = r[t]
                for q, j in col_qs:
                    r[j] -= q * x
                least[i] = _least(r)
            if v_t is not None:
                vt = v_t[t]
                for q, j in col_qs:
                    v_t[j] = _axpy(v_t[j], -q, vt)
            if vinv is not None:
                w = vinv[t]
                for q, j in col_qs:
                    w = _axpy(w, q, vinv[j])
                vinv[t] = w
        return not rest and not any(rt[t + 1 :])

    def diagonalize_from(t0: int):
        # Invariant: rows t.. are zero left of column t, and `live` holds the
        # nonzero ones in order.
        live = [i for i in range(t0, rows) if least[i]]
        for t in range(t0, n):
            while True:
                piv = _pivot_choice(a, live, least)
                if piv is None:
                    return
                i, j = piv
                if i != t:
                    for m in (a, least, u, uinv_t):
                        _swap(m, t, i)
                    if live[0] != t:
                        live.remove(i)
                        live.insert(0, t)
                if j != t:
                    for r in live:
                        ar = a[r]
                        ar[t], ar[j] = ar[j], ar[t]
                    _swap(v_t, t, j)
                    _swap(vinv, t, j)
                if eliminate(t, live):
                    break
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                if u is not None:
                    u[t] = [-x for x in u[t]]
                if uinv_t is not None:
                    uinv_t[t] = [-x for x in uinv_t[t]]
            del live[0]

    diagonalize_from(0)

    # Fix the divisibility chain d1 | d2 | ... by folding the violating entry
    # into the earlier column and re-diagonalizing everything from there.
    changed = True
    while changed:
        changed = False
        for t in range(n - 1):
            dt, dn = a[t][t], a[t + 1][t + 1]
            if dn and (dt == 0 or dn % dt):
                # column t += column t+1 (D is diagonal here)
                a[t + 1][t] += dn
                least[t + 1] = _least(a[t + 1])
                if v_t is not None:
                    v_t[t] = _axpy(v_t[t], 1, v_t[t + 1])
                if vinv is not None:
                    vinv[t + 1] = _axpy(vinv[t + 1], -1, vinv[t])
                diagonalize_from(t)
                changed = True

    kept = {"U": (u, False), "Uinv": (uinv_t, True), "V": (v_t, True), "Vinv": (vinv, False)}
    return (Mat(rows, cols, tuple(chain.from_iterable(a))), *(_square(*kept[w]) for w in want))


def smith_normal_form(A: Mat) -> tuple[Mat, Mat, Mat]:
    """U, D, V with U*A*V = D diagonal, d1 | d2 | ..., di >= 0, U, V unimodular."""
    D, U, V = _snf_full(A, "U", "V")
    return U, D, V


def snf_diagonal(D: Mat) -> list[int]:
    return [D[i, i] for i in range(min(D.rows, D.cols))]


# ---------------------------------------------------------------------------
# Prime-field elimination
# ---------------------------------------------------------------------------


def _fp_rref(A: Mat, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of A over F_p: (nonzero rows, pivot columns).

    Rows come in pivot order, with entries in [0, p).  Each row of A is
    reduced by the pivot rows kept so far; if nonzero, its first nonzero
    column becomes a pivot, cleared from just the kept rows nonzero there.
    Over F_2 a row is one int, a byte per column, and a step is an XOR.  The
    RREF is unique, so this order changes only the cost."""
    n = A.cols
    if not n:
        return [], []
    e = A.entries
    spans = range(0, len(e), n)
    done: list = []  # (pivot, row): over F_2 the pivot column's bit, else the column
    if p == 2:
        packed = bytes(map((1).__and__, e))
        for i in spans:
            r = int.from_bytes(packed[i : i + n], "little")
            for bit, b in done:
                if r & bit:
                    r ^= b
            if r:
                bit = r & -r
                done = [(c, b ^ r if b & bit else b) for c, b in done]
                done.append((bit, r))
        done.sort()
        return [list(r.to_bytes(n, "little")) for _, r in done], [bit.bit_length() >> 3 for bit, _ in done]
    e = list(map(p.__rmod__, e))
    for i in spans:
        r = e[i : i + n]
        for c, b in done:
            f = r[c]
            if f:
                r = [(x - f * y) % p for x, y in zip(r, b)]
        c = next((j for j, x in enumerate(r) if x), None)
        if c is None:
            continue
        inv = pow(r[c], -1, p)
        r = [x * inv % p for x in r]
        done = [(d, [(x - b[c] * y) % p for x, y in zip(b, r)] if b[c] else b) for d, b in done]
        done.append((c, r))
    done.sort()
    return [r for _, r in done], [c for c, _ in done]


def _field_solve(A: Mat, B: Mat, p: int) -> Optional[Mat]:
    """Solve A X = B over F_p, free variables 0; None when inconsistent."""
    n = A.cols
    rows, pivots = _fp_rref(A.hstack(B), p)
    if pivots and pivots[-1] >= n:
        return None
    x = dict(zip(pivots, (r[n:] for r in rows)))
    zero = [0] * B.cols
    return Mat(n, B.cols, tuple(chain.from_iterable(x.get(j, zero) for j in range(n))))


def _null_rows(rows: list[list[int]], pivots: list[int], n: int, p: int) -> tuple[list[int], list[list[int]]]:
    """Free columns of an n-column RREF over F_p, and the n rows of its null-space
    basis, whose column k is 1 at the k-th free column and 0 at the other free ones."""
    free = [j for j in range(n) if j not in pivots]
    out = {f: [int(f == g) for g in free] for f in free}
    for r, c in zip(rows, pivots):
        out[c] = [-r[f] % p for f in free]
    return free, [out[j] for j in range(n)]


def _field_kernel(A: Mat, p: int) -> Mat:
    """Columns form a basis of the null space of A over F_p."""
    free, basis = _null_rows(*_fp_rref(A, p), A.cols, p)
    return Mat(A.cols, len(free), tuple(chain.from_iterable(basis)))


# ---------------------------------------------------------------------------
# Integer solving via cached SNF
# ---------------------------------------------------------------------------


class ZSolver:
    """Repeated exact solving of A x = b over Z against one cached SNF."""

    def __init__(self, A: Mat):
        self.A = A
        self.D, self.U, self.V = _snf_full(A, "U", "V")
        self.diag = snf_diagonal(self.D)

    def solve(self, b: Mat) -> Optional[Mat]:
        c = self.U @ b
        n = self.A.cols
        y = [[0] * b.cols for _ in range(n)]
        for i in range(c.rows):
            d = self.diag[i] if i < len(self.diag) else 0
            for j in range(b.cols):
                ci = c[i, j]
                if d == 0:
                    if ci != 0:
                        return None
                else:
                    if ci % d:
                        return None
                    if i < n:
                        y[i][j] = ci // d
        return self.V @ Mat.from_rows(y, cols=b.cols)


def solve_linear(A: Mat, b: Mat, ring: BaseRing) -> Optional[Mat]:
    """Some exact solution of A x = b over the base ring, or None."""
    if A.rows != b.rows:
        raise LinalgError("dimension mismatch in solve_linear")
    if ring.is_field:
        return _field_solve(A, b, ring.p)
    return ZSolver(A).solve(b)


def kernel_columns(A: Mat, ring: BaseRing) -> Mat:
    """Columns generate all solutions of A x = 0 (a saturated lattice over Z)."""
    if ring.is_field:
        return _field_kernel(A, ring.p)
    D, V = _snf_full(A, "V")
    diag = snf_diagonal(D)
    cols = []
    for j in range(A.cols):
        if j >= len(diag) or diag[j] == 0:
            cols.append(list(V.col(j)))
    return Mat.from_columns(cols, rows=A.cols)


def lattice_basis(gens: Mat, ring: BaseRing) -> Mat:
    """Columns form a basis of the span of the given generator columns."""
    if gens.cols == 0:
        return gens
    if ring.is_field:
        # The reduced rows of the transpose span the same space.
        return Mat.from_columns(_fp_rref(gens.transpose(), ring.p)[0], rows=gens.rows)
    D, Uinv = _snf_full(gens, "Uinv")
    diag = snf_diagonal(D)
    cols = []
    for i, d in enumerate(diag):
        if d:
            cols.append([d * x for x in Uinv.col(i)])
    return Mat.from_columns(cols, rows=gens.rows)


def in_span(gens: Mat, v: Mat, ring: BaseRing) -> bool:
    return solve_linear(gens, v, ring) is not None


def spans_equal(a: Mat, b: Mat, ring: BaseRing) -> bool:
    return (
        solve_linear(a, b, ring) is not None
        and solve_linear(b, a, ring) is not None
    )


# ---------------------------------------------------------------------------
# Congruence systems: C x = b  (mod m), row by row; m == 0 means exact.
# ---------------------------------------------------------------------------


def _with_slacks(C: Mat, moduli: Sequence[int]) -> Mat:
    if len(moduli) != C.rows:
        raise LinalgError("one modulus per condition row required")
    slack_cols = [
        [moduli[i] if r == i else 0 for r in range(C.rows)]
        for i in range(C.rows)
        if moduli[i]
    ]
    if not slack_cols:
        return C
    return C.hstack(Mat.from_columns(slack_cols, rows=C.rows))


def solve_congruence(C: Mat, moduli: Sequence[int], b: Mat, ring: BaseRing) -> Optional[Mat]:
    """Some x with C x = b (mod moduli rowwise); None when none exists."""
    if ring.is_field:
        if any(moduli):
            raise LinalgError("congruence moduli are an integer-base feature")
        return _field_solve(C, b, ring.p)
    big = _with_slacks(C, moduli)
    sol = ZSolver(big).solve(b)
    if sol is None:
        return None
    return Mat(C.cols, b.cols, sol.entries[: C.cols * b.cols])


def congruence_kernel(C: Mat, moduli: Sequence[int], ring: BaseRing) -> Mat:
    """Columns generate {x : C x = 0 (mod moduli rowwise)}."""
    if ring.is_field:
        if any(moduli):
            raise LinalgError("congruence moduli are an integer-base feature")
        return _field_kernel(C, ring.p)
    big = _with_slacks(C, moduli)
    ker = kernel_columns(big, ring)
    proj = Mat(C.cols, ker.cols, tuple(ker.entries[: C.cols * ker.cols]))
    # Projection of a lattice is generated by the projected basis; prune to a basis.
    return lattice_basis(proj, ring) if proj.cols else proj


# ---------------------------------------------------------------------------
# Lattice quotients: span(gens) / span(sub)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientGroup:
    """span(gens)/span(sub) in an ambient free module, with adapted generators.

    `gens` columns generate the big lattice/space, `sub` columns the small one
    (which must lie inside the big one).  `generators` columns project to a
    generating set matching `invariants` (0 = infinite order); over a field
    `invariants` is (p, ..., p).
    """

    ring: BaseRing
    ambient_dim: int
    generators: Mat
    invariants: tuple[int, ...]
    sub: Mat
    _solver: object = None

    @property
    def is_zero(self) -> bool:
        return not self.invariants

    def coords(self, v: Mat) -> Optional[tuple[int, ...]]:
        """Coordinates of v relative to `generators`, reduced mod invariants."""
        if self.generators.cols == 0:
            return () if self.contains_zero(v) else None
        stacked = self.generators.hstack(self.sub) if self.sub.cols else self.generators
        sol = (
            self._solver.solve(v)
            if self._solver is not None
            else solve_linear(stacked, v, self.ring)
        )
        if sol is None:
            return None
        out = []
        for i, d in enumerate(self.invariants):
            c = sol[i, 0]
            out.append(c % d if d else c)
        return tuple(out)

    def contains_zero(self, v: Mat) -> bool:
        if self.sub.cols == 0:
            return v.is_zero()
        return in_span(self.sub, v, self.ring)

    def element(self, coeffs: Sequence[int]) -> Mat:
        if len(coeffs) != self.generators.cols:
            raise LinalgError("coefficient count mismatch")
        if self.generators.cols == 0:
            return Mat.zeros(self.ambient_dim, 1)
        return (self.generators @ Mat.column(coeffs)).reduce(self.ring)


def quotient_group(gens: Mat, sub: Mat, ring: BaseRing) -> QuotientGroup:
    """Present span(gens)/span(sub); requires span(sub) <= span(gens)."""
    amb = gens.rows
    if ring.is_field:
        basis = lattice_basis(gens, ring)
        if basis.cols == 0:
            return QuotientGroup(ring, amb, Mat.zeros(amb, 0), (), lattice_basis(sub, ring))
        coords = _field_solve(basis, sub, ring.p)
        if coords is None:
            raise LinalgError("sub does not lie inside span(gens)")
        # Rows of coords^T span the sub in basis coordinates; non-pivot basis
        # coordinates give generators of the quotient.
        pivots = _fp_rref(coords.transpose(), ring.p)[1]
        free = [j for j in range(basis.cols) if j not in pivots]
        generators = Mat.from_columns([list(basis.col(j)) for j in free], rows=amb)
        return QuotientGroup(ring, amb, generators, (ring.p,) * len(free), lattice_basis(sub, ring))

    basis = lattice_basis(gens, ring)
    if basis.cols == 0:
        return QuotientGroup(ring, amb, Mat.zeros(amb, 0), (), lattice_basis(sub, ring))
    solver = ZSolver(basis)
    if sub.cols:
        c = solver.solve(sub)
        if c is None:
            raise LinalgError("sub does not lie inside span(gens)")
    else:
        c = Mat.zeros(basis.cols, 0)
    D, Uinv = _snf_full(c, "Uinv")
    diag = snf_diagonal(D)
    adapted = basis @ Uinv
    kept_cols = []
    invariants = []
    for i in range(basis.cols):
        d = diag[i] if i < len(diag) else 0
        if d == 1:
            continue
        kept_cols.append(list(adapted.col(i)))
        invariants.append(d)
    generators = Mat.from_columns(kept_cols, rows=amb)
    sub_basis = lattice_basis(sub, ring)
    stacked = generators.hstack(sub_basis) if sub_basis.cols else generators
    qsolver = ZSolver(stacked) if generators.cols else None
    return QuotientGroup(ring, amb, generators, tuple(invariants), sub_basis, qsolver)
