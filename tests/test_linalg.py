import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from abmc.linalg import (
    BaseRing,
    LinalgError,
    Mat,
    ZZ,
    _field_kernel,
    _field_solve,
    _fp_rref,
    _least,
    _pivot_choice,
    _snf_full,
    congruence_kernel,
    kernel_columns,
    lattice_basis,
    quotient_group,
    smith_normal_form,
    snf_diagonal,
    solve_congruence,
    solve_linear,
    spans_equal,
)

F2 = BaseRing(2)
F3 = BaseRing(3)


def det_bareiss(m: Mat) -> int:
    # Fraction-free determinant; independent oracle for unimodularity.
    assert m.rows == m.cols
    n = m.rows
    if n == 0:
        return 1
    a = [list(m.row(i)) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def check_snf(A: Mat):
    U, D, V = smith_normal_form(A)
    assert (U @ A) @ V == D
    assert abs(det_bareiss(U)) == 1
    assert abs(det_bareiss(V)) == 1
    diag = snf_diagonal(D)
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D[i, j] == 0
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a != 0 and b % a == 0
        # zeros may only trail nonzero entries
        if a == 0:
            assert b == 0
    return diag


def test_snf_diag_2_3():
    diag = check_snf(Mat.from_rows([[2, 0], [0, 3]]))
    assert diag == [1, 6]


def test_snf_identity():
    diag = check_snf(Mat.identity(4))
    assert diag == [1, 1, 1, 1]


def test_snf_zero():
    diag = check_snf(Mat.zeros(3, 2))
    assert diag == [0, 0]


def test_snf_sign_on_diagonal_inputs():
    # regression: folding (4, 3) used to park a negated entry past the
    # renormalization window on diagonal inputs
    diag = check_snf(Mat.from_rows([[4, 0, 0], [0, 4, 0], [0, 0, 3]]))
    assert diag == [1, 4, 12]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=6))
def test_snf_random_diagonal(entries):
    n = len(entries)
    m = Mat.from_rows(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )
    check_snf(m)


def test_snf_determinant_product():
    A = Mat.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    diag = check_snf(A)
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(det_bareiss(A))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32),
)
def test_snf_random(rows, cols, seed):
    rng = random.Random(seed)
    A = Mat.from_rows(
        [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
    )
    check_snf(A)


def test_solve_parity_obstruction():
    assert solve_linear(Mat.from_rows([[2]]), Mat.column([3]), ZZ) is None


def test_solve_bezout():
    A = Mat.from_rows([[2, 3]])
    x = solve_linear(A, Mat.column([1]), ZZ)
    assert x is not None
    assert A @ x == Mat.column([1])


def test_solve_over_f2():
    A = Mat.from_rows([[1, 1]])
    x = solve_linear(A, Mat.column([1]), F2)
    assert x is not None
    assert (A @ x).reduce(F2) == Mat.column([1])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32), st.booleans())
def test_solve_agrees_with_snf_existence(rows, cols, seed, field):
    ring = F3 if field else ZZ
    rng = random.Random(seed)
    A = Mat.from_rows([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
    x0 = Mat.column([rng.randint(-3, 3) for _ in range(cols)])
    b = (A @ x0).reduce(ring)
    x = solve_linear(A.reduce(ring), b, ring)
    assert x is not None
    assert (A @ x).reduce(ring) == b


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32), st.booleans())
def test_kernel_columns_are_kernel(rows, cols, seed, field):
    ring = F2 if field else ZZ
    rng = random.Random(seed)
    A = Mat.from_rows(
        [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    ).reduce(ring)
    K = kernel_columns(A, ring)
    assert (A @ K).reduce(ring).is_zero()
    # every small random kernel vector must lie in the span
    for _ in range(5):
        v = Mat.column([rng.randint(-3, 3) for _ in range(cols)])
        if (A @ v).reduce(ring).is_zero():
            assert solve_linear(K, v.reduce(ring), ring) is not None


def test_congruence_solver_mod():
    #  x = 1 mod 2 and x = 0 mod 3  ->  x = 3 works
    C = Mat.from_rows([[1], [1]])
    x = solve_congruence(C, [2, 3], Mat.column([1, 0]), ZZ)
    assert x is not None
    v = x[0, 0]
    assert v % 2 == 1 and v % 3 == 0


def test_congruence_no_solution():
    # 2x = 1 mod 4 has no solution
    C = Mat.from_rows([[2]])
    assert solve_congruence(C, [4], Mat.column([1]), ZZ) is None


def test_congruence_kernel_mod():
    # x = 0 mod 2: kernel lattice 2Z
    K = congruence_kernel(Mat.from_rows([[1]]), [2], ZZ)
    assert K.cols == 1
    assert abs(K[0, 0]) == 2


def test_quotient_group_z_mod():
    # Z^2 / <(2,0),(0,3)>  =  Z/2 + Z/3  =  Z/6 canonically
    gens = Mat.identity(2)
    sub = Mat.from_rows([[2, 0], [0, 3]])
    q = quotient_group(gens, sub, ZZ)
    assert q.invariants == (6,)


def test_quotient_group_free_part():
    gens = Mat.identity(3)
    sub = Mat.from_columns([[2, 0, 0]], rows=3)
    q = quotient_group(gens, sub, ZZ)
    assert q.invariants == (2, 0, 0)


def test_quotient_group_coords_roundtrip():
    gens = Mat.identity(2)
    sub = Mat.from_columns([[4, 0]], rows=2)
    q = quotient_group(gens, sub, ZZ)
    assert q.invariants == (4, 0)
    v = Mat.column([7, -2])
    c = q.coords(v)
    assert c is not None
    rebuilt = q.element(c)
    diff = v - rebuilt
    assert q.contains_zero(diff)


def test_quotient_group_field():
    gens = Mat.identity(3)
    sub = Mat.from_columns([[1, 1, 0]], rows=3)
    q = quotient_group(gens, sub, F2)
    assert q.invariants == (2, 2)


def test_prime_field_validation():
    with pytest.raises(LinalgError):
        BaseRing(4)
    with pytest.raises(LinalgError):
        BaseRing(1 << 17)


def test_lattice_basis_prunes():
    gens = Mat.from_columns([[2, 0], [4, 0], [0, 0]], rows=2)
    b = lattice_basis(gens, ZZ)
    assert b.cols == 1
    assert abs(b[0, 0]) == 2


@st.composite
def small_int_matrices(draw, min_dim=0):
    """Up to 9 x 9, entries in [-6, 6], some rows and columns forced to zero."""
    rows = draw(st.integers(min_dim, 9))
    cols = draw(st.integers(min_dim, 9))
    ent = draw(st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, 8), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 8), max_size=2))
    return Mat.from_rows(
        [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
         for i, r in enumerate(ent)],
        cols=cols,
    )


TRANSFORMS = ("U", "Uinv", "V", "Vinv")


@settings(max_examples=80, deadline=None)
@given(small_int_matrices())
def test_snf_requested_transforms_match_full_call(A):
    D, U, Uinv, V, Vinv = _snf_full(A, *TRANSFORMS)
    full = dict(zip(TRANSFORMS, (U, Uinv, V, Vinv)))
    assert (U @ A) @ V == D
    assert U @ Uinv == Mat.identity(A.rows)
    assert V @ Vinv == Mat.identity(A.cols)
    for k in range(len(TRANSFORMS) + 1):
        for want in itertools.permutations(TRANSFORMS, k):
            got = _snf_full(A, *want)
            assert len(got) == 1 + len(want)
            assert got[0] == D
            for name, m in zip(want, got[1:]):
                assert m == full[name], name


def pivot_reference(a, t):
    # Plain scan of the trailing block a[t:][t:]: the first +-1 in row-major
    # order, else the smallest nonzero |entry|, ties to the lowest (row, col).
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[i])):
            v = abs(a[i][j])
            if v == 1:
                return i, j
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else best[1:]


@settings(max_examples=200, deadline=None)
@given(small_int_matrices(), st.integers(0, 9), st.sampled_from([1, 2]))
def test_pivot_choice_matches_reference_scan(A, t, scale):
    # Rows of the trailing block are zero left of it, as during elimination;
    # scale 2 leaves no unit to find.
    a = [[0 if i >= t > j else scale * x for j, x in enumerate(r)] for i, r in enumerate(A.to_lists())]
    least = [_least(r) for r in a]
    live = [i for i in range(t, len(a)) if least[i]]
    assert _pivot_choice(a, live, least) == pivot_reference(a, t)


@settings(max_examples=60, deadline=None)
@given(small_int_matrices(min_dim=1))
def test_snf_diagonal_matches_sympy(A):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    S = sympy_snf(sympy.Matrix(A.to_lists()), domain=sympy.ZZ)
    expected = [abs(int(S[i, i])) for i in range(min(S.shape))]
    assert snf_diagonal(smith_normal_form(A)[1]) == expected


def _to_sympy(sympy, m: Mat):
    return sympy.Matrix(m.rows, m.cols, list(m.entries))


def _column_ops(m: Mat, rng: random.Random, steps: int) -> Mat:
    # unimodular column operations: swaps, negations and col_j += k * col_i
    cols = [list(m.col(j)) for j in range(m.cols)]
    for _ in range(steps if len(cols) > 1 else 0):
        i, j = rng.sample(range(len(cols)), 2)
        op = rng.randrange(3)
        if op == 0:
            cols[i], cols[j] = cols[j], cols[i]
        elif op == 1:
            cols[i] = [-x for x in cols[i]]
        else:
            k = rng.randint(-3, 3)
            cols[j] = [a + k * b for a, b in zip(cols[j], cols[i])]
    return Mat.from_columns(cols, rows=m.rows)


@settings(max_examples=80, deadline=None)
@given(small_int_matrices(min_dim=1), st.integers(0, 2**32), st.sampled_from(["ops", "extended", "scaled", "random"]))
def test_spans_equal_matches_sympy_hnf(A, seed, how):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(seed)
    if how == "random":
        B = Mat.from_rows([[rng.randint(-6, 6) for _ in range(A.cols)] for _ in range(A.rows)], cols=A.cols)
    else:
        B = A
        if how == "extended":
            extra = Mat.from_rows([[rng.randint(-2, 2)] for _ in range(A.cols)])
            B = B.hstack(A @ extra)
        elif how == "scaled":
            j = rng.randrange(A.cols)
            B = Mat.from_columns([[2 * x for x in A.col(c)] if c == j else list(A.col(c)) for c in range(A.cols)], rows=A.rows)
        B = _column_ops(B, rng, 12)
    same = hermite_normal_form(_to_sympy(sympy, A)) == hermite_normal_form(_to_sympy(sympy, B))
    assert spans_equal(A, B, ZZ) == same


@settings(max_examples=80, deadline=None)
@given(small_int_matrices(min_dim=1))
def test_quotient_torsion_matches_sympy_invariant_factors(S):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    S_ = _to_sympy(sympy, S)
    q = quotient_group(Mat.identity(S.rows), S, ZZ)
    factors = [abs(int(d)) for d in invariant_factors(S_, domain=sympy.ZZ)]
    assert [d for d in q.invariants if d] == [d for d in factors if d > 1]
    assert q.invariants.count(0) == S.rows - S_.rank()


# ---------------------------------------------------------------------------
# Prime-field elimination
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 65521)


@st.composite
def fp_matrices(draw, primes=PRIMES):
    """(A, p): up to 8 x 8, 0 x n and m x 0 included, some rows forced to zero,
    entries reduced or not (negative, or >= p)."""
    p = draw(st.sampled_from(primes))
    m = draw(st.integers(0, 8))
    n = draw(st.integers(0, 8))
    entry = st.one_of(st.integers(0, min(p - 1, 6)), st.integers(-2 * p - 3, 2 * p + 3), st.just(0))
    ent = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2))
    return Mat.from_rows([[0] * n if i in zero_rows else r for i, r in enumerate(ent)], cols=n), p


@pytest.mark.parametrize("p", PRIMES)
def test_fp_edge_shapes(p):
    for m, n in ((0, 4), (3, 0), (0, 0), (2, 3)):
        assert _fp_rref(Mat.zeros(m, n), p) == ([], [])
        assert _field_kernel(Mat.zeros(m, n), p) == Mat.identity(n)
        assert _field_solve(Mat.zeros(m, n), Mat.zeros(m, 2), p) == Mat.zeros(n, 2)
    assert _field_solve(Mat.zeros(1, 0), Mat.column([1]), p) is None
    # -1 and 2p + 1 are p - 1 and 1 mod p; the row is scaled by 1 / (p - 1)
    assert _fp_rref(Mat.from_rows([[-1, p, 2 * p + 1], [0, 0, 0]]), p) == ([[1, 0, p - 1]], [0])


def _sympy_fp(m: Mat, p: int):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix([[GF(p)(x) for x in m.row(i)] for i in range(m.rows)], (m.rows, m.cols), GF(p))


def _fp_rank(m: Mat, p: int) -> int:
    return _sympy_fp(m, p).rank()


def _lin_comb(m: Mat, p: int, rng: random.Random, k: int) -> Mat:
    # k random combinations of the columns of m
    return (m @ Mat.from_rows([[rng.randrange(p) for _ in range(k)] for _ in range(m.cols)], cols=k)).reduce(BaseRing(p))


@settings(max_examples=300, deadline=None)
@given(fp_matrices())
def test_fp_rref_matches_sympy(Ap):
    A, p = Ap
    R, pivots = _sympy_fp(A, p).rref()
    K = R.domain
    expected = [[K.to_int(x) % p for x in r] for r in R.to_list()[: len(pivots)]]
    assert _fp_rref(A, p) == (expected, list(pivots))


@settings(max_examples=150, deadline=None)
@given(fp_matrices(primes=(2, 3, 5)), st.integers(0, 3), st.booleans(), st.integers(0, 2**32))
def test_field_solve_solves_when_solvable(Ap, k, consistent, seed):
    A, p = Ap
    rng = random.Random(seed)
    if consistent:
        B = _lin_comb(A, p, rng, k)
    else:
        B = Mat.from_rows([[rng.randrange(p) for _ in range(k)] for _ in range(A.rows)], cols=k)
    X = _field_solve(A, B, p)
    solvable = _fp_rank(A.hstack(B), p) == _fp_rank(A, p)
    assert (X is not None) == solvable
    if X is not None:
        assert (X.rows, X.cols) == (A.cols, k)
        assert all(0 <= x < p for x in X.entries)
        assert (A @ X).reduce(BaseRing(p)) == B.reduce(BaseRing(p))


@settings(max_examples=150, deadline=None)
@given(fp_matrices(primes=(2, 3, 5)))
def test_field_kernel_is_a_basis_of_the_null_space(Ap):
    A, p = Ap
    K = _field_kernel(A, p)
    rank = _fp_rank(A, p)
    assert (K.rows, K.cols) == (A.cols, A.cols - rank)
    assert (A @ K).reduce(BaseRing(p)).is_zero()
    assert _fp_rank(K, p) == K.cols


@settings(max_examples=150, deadline=None)
@given(fp_matrices(primes=(2, 3, 5)), st.integers(0, 4), st.integers(0, 2**32))
def test_field_quotient_dimension(Ap, k, seed):
    gens, p = Ap
    ring = BaseRing(p)
    sub = _lin_comb(gens, p, random.Random(seed), k)
    q = quotient_group(gens, sub, ring)
    assert len(q.invariants) == _fp_rank(gens, p) - _fp_rank(sub, p)
    assert q.invariants == (p,) * len(q.invariants)
    assert _fp_rank(q.generators.hstack(sub), p) == _fp_rank(gens, p)
