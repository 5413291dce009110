"""Independent checks of abmc outputs.

Everything here uses its own arithmetic on the raw entries of the matrices
abmc returns (``Mat.rows``, ``Mat.cols``, ``Mat.entries``); nothing calls
``abmc.linalg``.  Every checker returns a list of problems, empty when the
output is right, so one corrupted entry shows up as one readable line.

Closed forms used over F2[C2] (k the trivial module, R the regular one):
every finitely generated module is k^a + R^b with b = rank(T - I) and
a = dim - 2b, where T is the action of the group generator.  Then
dim Hom = ac + ad + bc + 2bd, dim Ext^1 = ac and dim of the stable Hom is ac
for M = k^a + R^b and N = k^c + R^d.  The stable category is equivalent to
vector spaces through Tate cohomology ker(T - I) / im(T - I), which decides
weak equivalences.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Raw matrices
# ---------------------------------------------------------------------------


def as_array(m) -> np.ndarray:
    """The entries of an abmc ``Mat`` as an int64 array, with no reduction."""
    return np.array(m.entries, dtype=np.int64).reshape(m.rows, m.cols)


def f2(m) -> np.ndarray:
    return as_array(m) % 2


def _f2_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F2 of a private copy, with pivot columns."""
    a = (np.asarray(a, dtype=np.int64) % 2).astype(np.uint8)
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        hit = np.nonzero(a[:, c])[0]
        a[hit[hit != r]] ^= a[r]
        pivots.append(c)
    return a, pivots


def f2_rank(a: np.ndarray) -> int:
    return len(_f2_rref(a)[1])


def f2_nullspace(a: np.ndarray) -> np.ndarray:
    """Columns spanning {x : a x = 0} over F2."""
    r, pivots = _f2_rref(a)
    cols = r.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, c in enumerate(pivots):
            basis[c, k] = r[i, f]
    return basis


def f2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % 2


# ---------------------------------------------------------------------------
# F2[C2] modules and maps
# ---------------------------------------------------------------------------


def generator_action(module) -> np.ndarray:
    """T, the action of the non-identity group element of C2, over F2."""
    ident = np.eye(module.gens, dtype=np.int64)
    for t in module.actions:
        a = f2(t)
        if not np.array_equal(a, ident):
            return a
    return ident


def f2c2_type(module) -> tuple[int, int]:
    """(a, b) with module = k^a + R^b."""
    t = generator_action(module)
    b = f2_rank(t + np.eye(module.gens, dtype=np.int64)) if module.gens else 0
    return module.gens - 2 * b, b


def hom_dim(m, n) -> int:
    a, b = f2c2_type(m)
    c, d = f2c2_type(n)
    return a * c + a * d + b * c + 2 * b * d


def ext1_dim(m, n) -> int:
    return f2c2_type(m)[0] * f2c2_type(n)[0]


stable_hom_dim = ext1_dim


def _tate(module):
    """(cycles, boundaries) of T - I, as column bases over F2."""
    if not module.gens:
        z = np.zeros((0, 0), dtype=np.int64)
        return z, z
    d = (generator_action(module) + np.eye(module.gens, dtype=np.int64)) % 2
    return f2_nullspace(d), d


def f2c2_weak_equivalence(f) -> bool:
    """f induces an isomorphism on ker(T - I) / im(T - I)."""
    a_src, a_dst = f2c2_type(f.src)[0], f2c2_type(f.dst)[0]
    if a_src != a_dst:
        return False
    if a_src == 0:
        return True
    z_src, _ = _tate(f.src)
    _, b_dst = _tate(f.dst)
    image = f2_matmul(f2(f.matrix), z_src)
    return f2_rank(np.hstack([image, b_dst])) - f2_rank(b_dst) == a_dst


def _kernel_type(f) -> tuple[int, int]:
    """(a, b) of ker f as an F2[C2] module."""
    k = f2_nullspace(f2(f.matrix))
    if k.shape[1] == 0:
        return 0, 0
    t = generator_action(f.src)
    b = f2_rank(f2_matmul(t + np.eye(f.src.gens, dtype=np.int64), k))
    return k.shape[1] - 2 * b, b


def _cokernel_type(f) -> tuple[int, int]:
    """(a, b) of coker f: rank of T - I on N / im f is rank[T - I | F] - rank F."""
    fm = f2(f.matrix)
    r = f2_rank(fm)
    dim = f.dst.gens - r
    t = generator_action(f.dst) + np.eye(f.dst.gens, dtype=np.int64)
    b = f2_rank(np.hstack([t, fm])) - r
    return dim - 2 * b, b


def is_f2_mono(f) -> bool:
    return f2_rank(f2(f.matrix)) == f.src.gens


def is_f2_epi(f) -> bool:
    return f2_rank(f2(f.matrix)) == f.dst.gens


# ---------------------------------------------------------------------------
# Checkers over F2[C2]
# ---------------------------------------------------------------------------


def check_f2_factorization(f, first, second) -> list[str]:
    out = []
    if not np.array_equal(f2_matmul(f2(second.matrix), f2(first.matrix)), f2(f.matrix)):
        out.append("composite second @ first differs from f")
    if not is_f2_mono(first):
        out.append("first factor is not injective")
    if not is_f2_epi(second):
        out.append("second factor is not surjective")
    return out


def check_qf_classification(f, verdicts: dict[str, bool]) -> list[str]:
    """Over QF(F2[C2]): C = F = all modules and W = projectives."""
    mono, epi = is_f2_mono(f), is_f2_epi(f)
    want = {
        "cofibration": mono,
        "fibration": epi,
        "acyclic_cofibration": mono and _cokernel_type(f)[0] == 0,
        "acyclic_fibration": epi and _kernel_type(f)[0] == 0,
    }
    return [
        f"{name}: got {verdicts[name]}, oracle {w}"
        for name, w in want.items()
        if verdicts[name] != w
    ]


def check_weak_equivalence(f, holds: bool) -> list[str]:
    want = f2c2_weak_equivalence(f)
    return [] if holds == want else [f"weak equivalence: got {holds}, oracle {want}"]


def check_f2_lift(i, p, top, bottom, h) -> list[str]:
    out = []
    if not np.array_equal(f2_matmul(f2(h.matrix), f2(i.matrix)), f2(top.matrix)):
        out.append("upper triangle h @ i != top")
    if not np.array_equal(f2_matmul(f2(p.matrix), f2(h.matrix)), f2(bottom.matrix)):
        out.append("lower triangle p @ h != bottom")
    return out


def _f2_dims(invariants, want: int, what: str) -> list[str]:
    if len(invariants) != want or any(x != 2 for x in invariants):
        return [f"{what}: invariants {tuple(invariants)}, oracle F2^{want}"]
    return []


def check_f2_groups(m, n, hom_inv, ext_inv, stable_inv) -> list[str]:
    return (
        _f2_dims(hom_inv, hom_dim(m, n), "Hom")
        + _f2_dims(ext_inv, ext1_dim(m, n), "Ext^1")
        + _f2_dims(stable_inv, stable_hom_dim(m, n), "stable Hom")
    )


def check_pushout_product(i, j, pp) -> list[str]:
    """pp: (A(x)D) u_{A(x)C} (B(x)C) -> B(x)D for i: A -> B, j: C -> D."""
    a, b, c, d = i.src.gens, i.dst.gens, j.src.gens, j.dst.gens
    out = []
    if pp.src.gens != a * d + b * c - a * c:
        out.append(f"source dimension {pp.src.gens}, oracle {a * d + b * c - a * c}")
    if pp.dst.gens != b * d:
        out.append(f"target dimension {pp.dst.gens}, oracle {b * d}")
    if not out and not is_f2_mono(pp):
        out.append("pushout-product is not of full column rank")
    return out


# ---------------------------------------------------------------------------
# Over Z[C2]
# ---------------------------------------------------------------------------


def check_z_composite(f, first, second) -> list[str]:
    """second @ first == f entrywise, modulo the target's orders."""
    got = as_array(second.matrix) @ as_array(first.matrix)
    want = as_array(f.matrix)
    for i, order in enumerate(f.dst.orders):
        diff = got[i] - want[i]
        if (order and np.any(diff % order)) or (not order and np.any(diff)):
            return [f"composite differs from f in row {i}"]
    return []


def group_cohomology_c2(coefficients: str, degree: int) -> tuple[int, ...]:
    """Invariants of Ext^i_{Z[C2]}(Z, M) = H^i(C2; M), i >= 1."""
    if coefficients == "trivial":
        return (2,) if degree % 2 == 0 else ()
    if coefficients == "sign":
        return (2,) if degree % 2 == 1 else ()
    if coefficients == "regular":
        return ()
    raise ValueError(coefficients)


def check_invariants(got, want, what: str) -> list[str]:
    return [] if tuple(got) == tuple(want) else [f"{what}: {tuple(got)}, oracle {tuple(want)}"]


# ---------------------------------------------------------------------------
# Chain complexes over F2[C2]
# ---------------------------------------------------------------------------


def check_null_homotopy(f, h) -> list[str]:
    """h is None only if f is not null-homotopic; otherwise d s + s d == f in
    every degree of the source, with every s_n a module map."""
    if h is None:
        if f2_null_homotopic(f):
            return ["no null homotopy claimed, but d s + s d = f has a solution"]
        return []
    x, y = f.src, f.dst
    for n in range(x.lo, x.hi + 1):
        rows, cols = y.entry(n).gens, x.entry(n).gens
        acc = np.zeros((rows, cols), dtype=np.int64)
        s_n, s_prev = h.part(n), h.part(n - 1)
        if s_n.matrix.rows and s_n.matrix.cols:
            s = f2(s_n.matrix)
            acc += f2_matmul(f2(y.diff(n + 1).matrix), s)
            for a_x, a_y in zip(x.entry(n).actions, y.entry(n + 1).actions):
                if not np.array_equal(f2_matmul(s, f2(a_x)), f2_matmul(f2(a_y), s)):
                    return [f"s_{n} does not commute with the group action"]
        if s_prev.matrix.rows and s_prev.matrix.cols:
            acc += f2_matmul(f2(s_prev.matrix), f2(x.diff(n).matrix))
        if not np.array_equal(acc % 2, f2(f.part(n).matrix)):
            return [f"ds + sd differs from f in degree {n}"]
    return []


def f2_null_homotopic(f) -> bool:
    """Whether d s + s d = f has a solution with every s_n: X_n -> Y_{n+1}
    commuting with the action (s A = B s for each basis element's matrices
    A on X_n and B on Y_{n+1}).  The unknowns are the entries of all s_n,
    row-major, so vec(L S R) = (L kron R^T) vec(S)."""
    x, y = f.src, f.dst
    shape = {n: (y.entry(n + 1).gens, x.entry(n).gens) for n in range(x.lo, x.hi + 1)}
    offset, total = {}, 0
    for n, (r, c) in shape.items():
        offset[n] = total
        total += r * c

    def placed(n, block):
        out = np.zeros((block.shape[0], total), dtype=np.int64)
        r, c = shape[n]
        out[:, offset[n]:offset[n] + r * c] = block
        return out

    lhs, rhs = [], []
    for n, (r, c) in shape.items():
        if not r * c:
            continue
        for a_x, a_y in zip(x.entry(n).actions, y.entry(n + 1).actions):
            lhs.append(placed(n, np.kron(np.eye(r, dtype=np.int64), f2(a_x).T)
                              + np.kron(f2(a_y), np.eye(c, dtype=np.int64))))
            rhs.append(np.zeros(r * c, dtype=np.int64))
    for n in shape:
        rows, cols = y.entry(n).gens, x.entry(n).gens
        if not rows * cols:
            continue
        a = np.zeros((rows * cols, total), dtype=np.int64)
        if shape[n][0]:
            a += placed(n, np.kron(f2(y.diff(n + 1).matrix), np.eye(cols, dtype=np.int64)))
        if n - 1 in shape and shape[n - 1][1]:
            a += placed(n - 1, np.kron(np.eye(rows, dtype=np.int64), f2(x.diff(n).matrix).T))
        lhs.append(a)
        rhs.append(f2(f.part(n).matrix).reshape(-1))
    if not lhs:
        return True
    a, b = np.vstack(lhs), np.concatenate(rhs)[:, None]
    return f2_rank(a) == f2_rank(np.hstack([a, b]))


def f2_is_exact(x) -> bool:
    """dim X_n = rank d_n + rank d_{n+1} in every degree."""
    for n in range(x.lo, x.hi + 1):
        dim = x.entry(n).gens
        down = f2_rank(f2(x.diff(n).matrix)) if dim and x.entry(n - 1).gens else 0
        up = f2_rank(f2(x.diff(n + 1).matrix)) if dim and x.entry(n + 1).gens else 0
        if dim != down + up:
            return False
    return True


def check_dg_exact_is_tilde(exact: bool, dg: bool, tilde: bool, side: str) -> list[str]:
    if (dg and exact) != tilde:
        return [f"{side}: dg {dg} and exact {exact}, but tilde {tilde}"]
    return []
