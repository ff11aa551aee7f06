"""Exact linear algebra: kernels, determinants, characteristic polynomials."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from hodgeatoms import linalg
from hodgeatoms.linalg import LAM, Matrix, _bareiss, _int_row, char_poly, det, left_nullspace
from hodgeatoms.poly import (Poly, _unpack, _zadd, _zdot, exact_div, poly_gcd_many,
                             rational_content)
from hodgeatoms.qde import DiffOperator, cyclic_rows
from test_poly import zdiv_reference

Q = ("q",)
TU = ("t", "u", "q")
QX = ("q", "x")


def M(rows):
    return Matrix([[Poly.const(Q, c) for c in r] for r in rows])


def test_shape_validation():
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(ValueError):
        M([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([[Poly.const(Q, 1), Poly.const(TU, 1)]])


def test_map():
    a = M([[1, 2], [3, 4]])
    assert a.map(lambda p: p.scale(2)).rows == M([[2, 4], [6, 8]]).rows


def normalize_vector(vec):
    """Kernel vector normal form for comparisons: divided by its polynomial
    and rational content, first nonzero entry with a positive leading
    coefficient."""
    g = poly_gcd_many([p for p in vec if not p.is_zero()] or [vec[0]])[0]
    if not g.is_zero() and g.constant_value() != 1:
        vec = [exact_div(p, g) for p in vec]
    c = rational_content(v for p in vec for v in p.terms.values())
    if c not in (0, 1):
        vec = [p.scale(1 / c) for p in vec]
    for p in vec:
        if not p.is_zero():
            if p.leading_coefficient() < 0:
                vec = [x.scale(-1) for x in vec]
            break
    return vec


def normalized_kernel(m):
    return [normalize_vector(vec) for vec in left_nullspace(m)]


def test_left_nullspace_rational():
    m = M([[1, 2], [2, 4]])
    assert normalized_kernel(m) == [normalize_vector([Poly.const(Q, -4), Poly.const(Q, 2)])]
    assert left_nullspace(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []


def test_left_nullspace_sign_convention():
    # the kernel comes back as the elimination leaves it; the operator normal
    # form fixes content and sign, so m and -m give the same operator
    ops = [DiffOperator(tuple(vec)).normalize()
           for m in (M([[1, 2], [2, 4]]), M([[-1, -2], [-2, -4]])) for vec in left_nullspace(m)]
    assert len(ops) == 2 and ops[0] == ops[1]
    assert ops[0].coeffs == (Poly.const(Q, -2), Poly.const(Q, 1))


def cross_multiplying_left_nullspace(m):
    """Reference kernel: elimination on [m | I] by cross-multiplication,
    dividing each new row by its rational content only (no Bareiss division),
    with the least-degree pivot per column."""
    variables = m.vars
    work = [(list(m.rows[i]), [Poly.const(variables, 1 if j == i else 0)
                                for j in range(m.nrows)]) for i in range(m.nrows)]

    def strip_content(left, right):
        c = rational_content(v for p in left + right for v in p.terms.values())
        if c not in (0, 1):
            left = [p.scale(1 / c) for p in left]
            right = [p.scale(1 / c) for p in right]
        return left, right

    done = 0
    for col in range(m.ncols):
        cands = [i for i in range(done, len(work)) if not work[i][0][col].is_zero()]
        if not cands:
            continue
        piv = min(cands, key=lambda i: (work[i][0][col].total_degree(), i))
        work[done], work[piv] = work[piv], work[done]
        pl, pr = work[done]
        pv = pl[col]
        for i in range(done + 1, len(work)):
            il, ir = work[i]
            e = il[col]
            if not e.is_zero():
                work[i] = strip_content([pv * a - e * b for a, b in zip(il, pl)],
                                        [pv * a - e * b for a, b in zip(ir, pr)])
        done += 1
    kernel = [normalize_vector(right) for left, right in work[done:]
              if all(p.is_zero() for p in left)]
    return sorted(kernel, key=lambda v: [p.render() for p in v])


def annihilates(vec, m):
    return all(sum((v * m.rows[i][j] for i, v in enumerate(vec)), Poly.zero(m.vars)).is_zero()
               for j in range(m.ncols))


entries = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)),
                          st.fractions(-6, 6, max_denominator=3),
                          max_size=3).map(lambda terms: Poly(TU, terms))


@st.composite
def polynomial_matrices(draw, extra_rows):
    ncols = draw(st.integers(1, 3))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(ncols + extra_rows)]
    return Matrix(rows)


@given(polynomial_matrices(1))
def test_left_nullspace_matches_cross_multiplication(m):
    # one-dimensional left kernels: the Bareiss kernel equals the
    # cross-multiplying reference once both are normalised
    reference = cross_multiplying_left_nullspace(m)
    assume(len(reference) == 1)
    kernel = left_nullspace(m)
    assert [normalize_vector(vec) for vec in kernel] == reference
    assert annihilates(kernel[0], m)


@settings(max_examples=30)
@given(polynomial_matrices(2), st.data())
def test_left_nullspace_vectors_annihilate(m, data):
    # a row that is a polynomial combination of the others adds a kernel vector
    coeffs = [data.draw(entries) for _ in range(m.nrows)]
    extra = [sum((c * row[j] for c, row in zip(coeffs, m.rows)), Poly.zero(TU))
             for j in range(m.ncols)]
    m = Matrix(m.rows + [extra])
    kernel = left_nullspace(m)
    assert len(kernel) == len(cross_multiplying_left_nullspace(m))
    for vec in kernel:
        assert annihilates(vec, m)
        assert any(not p.is_zero() for p in vec)


def test_left_nullspace_vectors_follow_their_rows():
    # kernel vectors come in the order of the row each one ends at
    m = M([[1, 0], [2, 0], [0, 1], [0, 3]])
    assert normalized_kernel(m) == [
        [Poly.const(Q, 2), Poly.const(Q, -1), Poly.zero(Q), Poly.zero(Q)],
        [Poly.zero(Q), Poly.zero(Q), Poly.const(Q, 3), Poly.const(Q, -1)]]


def minor_expansion_det(m):
    """Reference determinant: division-free expansion by minors along the
    rows, memoised over column subsets."""
    n = m.nrows
    # minors[mask] = det of rows 0..k-1 against the column set mask (k = popcount)
    minors = {0: Poly.const(m.vars, 1)}
    for k in range(1, n + 1):
        nxt = {}
        for cols in combinations(range(n), k):
            mask = sum(1 << c for c in cols)
            acc = Poly.zero(m.vars)
            for idx, j in enumerate(cols):
                entry = m.rows[k - 1][j]
                if not entry.is_zero():
                    term = entry * minors[mask & ~(1 << j)]
                    acc = acc + (term if (k - 1 + idx) % 2 == 0 else -term)
            nxt[mask] = acc
        minors = nxt
    return minors[(1 << n) - 1]


def test_det_examples():
    assert det(M([[1, 2], [3, 4]])).constant_value() == -2
    q = Poly.var(Q, "q")
    one = Poly.const(Q, 1)
    zero = Poly.zero(Q)
    assert det(Matrix([[q, one], [zero, q]])) == q * q
    # the constant entry is the first pivot, so the pivot columns are (1, 0)
    assert det(Matrix([[q, one], [one, zero]])) == -one
    assert det(Matrix([[zero, zero], [q, one]])) == zero
    with pytest.raises(ValueError):
        det(M([[1, 2]]))


def test_det_matches_sympy():
    rng = random.Random(5)
    for _ in range(5):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(4)]
        ours = det(M(rows)).constant_value()
        ref = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in r]
                            for r in rows]).det()
        assert sympy.Rational(ours.numerator, ours.denominator) == ref


coefficients = st.fractions(-4, 4, max_denominator=3)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 1))
# about half the entries are zero
sparse_entries = st.one_of(
    st.just(Poly.zero(QX)),
    st.dictionaries(exponents, coefficients, max_size=2).map(lambda t: Poly(QX, t)))
nonzero_entries = st.dictionaries(exponents, coefficients.filter(bool), min_size=1,
                                  max_size=2).map(lambda t: Poly(QX, t))


@st.composite
def square_matrices(draw, max_size):
    n = draw(st.integers(1, max_size))
    return Matrix([[draw(sparse_entries) for _ in range(n)] for _ in range(n)])


@settings(max_examples=60)
@given(square_matrices(5))
def test_det_matches_minor_expansion(m):
    assert det(m) == minor_expansion_det(m)


@settings(max_examples=60)
@given(square_matrices(5), st.data())
def test_det_of_singular_matrices(m, data):
    # a zero row, or a row that is a polynomial multiple of another
    rows = [list(r) for r in m.rows]
    n = len(rows)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    if i == j:
        rows[i] = [Poly.zero(QX)] * n
    else:
        c = data.draw(nonzero_entries)
        rows[i] = [c * p for p in rows[j]]
    singular = Matrix(rows)
    assert det(singular).is_zero()
    assert minor_expansion_det(singular).is_zero()


@settings(max_examples=60)
@given(st.data())
def test_det_with_odd_pivot_permutation(data):
    # an upper-triangular matrix with its rows permuted: at each column one
    # remaining row is nonzero, so the pivot rows are forced to be the
    # permutation, taken odd; the determinant is minus the diagonal product
    n = data.draw(st.integers(2, 5))
    perm = data.draw(st.permutations(range(n)))
    if sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2 == 0:
        perm[0], perm[1] = perm[1], perm[0]
    diag = [data.draw(nonzero_entries) for _ in range(n)]
    tri = [[diag[i] if k == i else data.draw(sparse_entries) if k > i else Poly.zero(QX)
            for k in range(n)] for i in range(n)]
    m = Matrix([tri[perm.index(i)] for i in range(n)])
    pivots, _, _ = _bareiss([_int_row(r)[0] for r in m.rows], len(QX))
    assert [i for _, i, _ in pivots] == perm
    product = Poly.const(QX, 1)
    for d in diag:
        product = product * d
    assert det(m) == -product == minor_expansion_det(m)


def lam_minus(m):
    ext = m.vars + (LAM,)
    lam = Poly.var(ext, LAM)
    return Matrix([[(lam if i == j else 0) - p.rename_vars(ext) for j, p in enumerate(r)]
                   for i, r in enumerate(m.rows)])


@settings(max_examples=40)
@given(square_matrices(4))
def test_char_poly_matches_minor_expansion(m):
    assert char_poly(m) == minor_expansion_det(lam_minus(m))


def test_char_poly_examples():
    chi = char_poly(M([[0, 1], [1, 0]]))
    assert chi.vars == ("q", LAM)
    assert chi.coeff_of(LAM, 2).constant_value() == 1
    assert chi.coeff_of(LAM, 0).constant_value() == -1
    assert chi.coeff_of(LAM, 1).is_zero()
    assert chi.degree_in(LAM) == 2
    with pytest.raises(ValueError):
        char_poly(M([[1, 2]]))
    # outer variable must be fresh
    lam_ring = Matrix([[Poly.const(("lam",), 1)]])
    with pytest.raises(ValueError):
        char_poly(lam_ring)


def test_char_poly_matches_sympy():
    rng = random.Random(23)
    lam = sympy.Symbol("lam")
    for _ in range(4):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        chi = char_poly(M(rows))
        ref = sympy.Matrix([[int(c) for c in r] for r in rows]).charpoly(lam)
        for k in range(4):
            c = chi.coeff_of(LAM, k).constant_value()
            assert sympy.Rational(c.numerator, c.denominator) == ref.as_expr().coeff(lam, k)


def test_char_poly_of_block_diagonal_is_the_product(mplus, mminus):
    n, m = mplus.nrows, mminus.nrows
    zero = Poly.zero(Q)
    rows = []
    for i in range(n + m):
        row = []
        for j in range(n + m):
            if i < n and j < n:
                row.append(mplus.rows[i][j])
            elif i >= n and j >= n:
                row.append(mminus.rows[i - n][j - n])
            else:
                row.append(zero)
        rows.append(row)
    assert char_poly(Matrix(rows)) == char_poly(mplus) * char_poly(mminus)


# -- packed Bareiss and back substitution against tuple-keyed references -------

def column_bareiss_reference(rows):
    """A tuple-keyed copy of the column-ordered elimination: same pivot rule,
    same exact divisions."""
    rest, pivots, prev = list(enumerate(rows)), [], None
    for col in range(len(rows[0])):
        nonzero = [n for n, (_, r) in enumerate(rest) if r[col]]
        if not nonzero:
            continue
        i, prow = rest.pop(min(nonzero, key=lambda n: max(map(sum, rest[n][1][col]))))
        pv = prow[col]
        for n, (k, row) in enumerate(rest):
            e = row[col]
            nxt = [{}] * (col + 1)
            for x, y in zip(row[col + 1:], prow[col + 1:]):
                v = (_zadd(_zdot([(pv, x)]), {ex: -c for ex, c in _zdot([(e, y)]).items()})
                     if e and y else _zdot([(pv, x)]))
                if prev is not None:
                    v = zdiv_reference(v, prev)
                    assert v is not None
                nxt.append(v)
            rest[n] = (k, nxt)
        pivots.append((col, i, prow))
        prev = pv
    return pivots


def unpacked_bareiss(rows, nvars):
    pivots, width, _ = _bareiss(rows, nvars)
    return [(col, i, [_unpack(x, nvars, width) for x in row]) for col, i, row in pivots]


def row_incremental_bareiss(rows, ncols):
    """Tuple-keyed row-incremental Bareiss on the first ncols entries, an
    elimination independent of the column-ordered one: each new row is
    reduced against the pivot rows so far and becomes a pivot row at its
    entry of least total degree, or is dependent. Returns the pivots and
    the dependent rows."""
    pivots, dependent = [], []
    for row in rows:
        prev = None
        for col, pv, prow in pivots:
            e = row[col]
            nxt = []
            for x, y in zip(row, prow):
                v = (_zadd(_zdot([(pv, x)]), {ex: -c for ex, c in _zdot([(e, y)]).items()})
                     if e and y else _zdot([(pv, x)]))
                if prev is not None:
                    v = zdiv_reference(v, prev)
                    assert v is not None
                nxt.append(v)
            row, prev = nxt, pv
        left = row[:ncols]
        if any(left):
            col = min((j for j in range(ncols) if left[j]),
                      key=lambda j: (max(map(sum, left[j])), j))
            pivots.append((col, left[col], row))
        else:
            dependent.append(row)
    return pivots, dependent


def augmented_left_nullspace_reference(m):
    """The kernel by elimination on [m | I], each row first scaled to
    integers: a dependent row's right part is a kernel vector."""
    one = (0,) * len(m.vars)
    rows = []
    for i, src in enumerate(m.rows):
        row, den = _int_row(src)
        rows.append(row + [{one: den} if j == i else {} for j in range(m.nrows)])
    _, dependent = row_incremental_bareiss(rows, m.ncols)
    return [[Poly(m.vars, x) for x in row[m.ncols:]] for row in dependent]


@st.composite
def kernel_matrices(draw):
    # ncols + d rows with d = 0, 1 or 2, so kernels of dimension 0, 1 and 2
    # come up; a row or a column may be zeroed, and a row replaced by a
    # polynomial combination of the others
    ncols = draw(st.integers(1, 3))
    nrows = ncols + draw(st.integers(0, 2))
    mostly_nonzero = st.one_of(nonzero_entries, nonzero_entries, sparse_entries)
    rows = [[draw(mostly_nonzero) for _ in range(ncols)] for _ in range(nrows)]
    zero = Poly.zero(QX)
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, nrows - 1))] = [zero] * ncols
    if draw(st.integers(0, 3)) == 0:
        j = draw(st.integers(0, ncols - 1))
        rows = [r[:j] + [zero] + r[j + 1:] for r in rows]
    if nrows > 1 and draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, nrows - 1))
        coeffs = [draw(sparse_entries) for _ in range(nrows)]
        rows[i] = [sum((c * r[j] for k, (c, r) in enumerate(zip(coeffs, rows)) if k != i), zero)
                   for j in range(ncols)]
    return Matrix(rows)


@settings(max_examples=150)
@given(kernel_matrices())
def test_left_nullspace_matches_the_augmented_reference(m):
    kernel, reference = left_nullspace(m), augmented_left_nullspace_reference(m)
    assert len(kernel) == len(reference)
    assert [normalize_vector(v) for v in kernel] == [normalize_vector(v) for v in reference]
    # both are the same Cramer numerators, so they agree before normalising too
    assert kernel == reference
    for vec in kernel:
        assert annihilates(vec, m)


@pytest.mark.parametrize("component", range(6))
def test_verra_component_kernels_equal_the_augmented_reference(sym_ansatz, component):
    m = sym_ansatz.matrix
    rows = cyclic_rows(m, component, m.ncols)
    assert left_nullspace(rows) == augmented_left_nullspace_reference(rows)


def test_inexact_back_substitution_raises(monkeypatch):
    # two pivots before the free column: the forward pass makes no division
    # and the back substitution one, which is refused here
    monkeypatch.setattr(linalg, "_zdiv", lambda a, b, guard: None)
    with pytest.raises(RuntimeError, match="inexact back-substitution division"):
        left_nullspace(M([[1, 0], [0, 1], [1, 1]]))


int_entries = st.one_of(
    st.just({}),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)), st.integers(-5, 5),
                    max_size=3).map(lambda t: {ex: c for ex, c in t.items() if c}))


@st.composite
def integer_matrices(draw):
    # each row is shifted by its own monomial; a row of high degree beside
    # constant rows drives the products p_k x towards twice the sum of the
    # row degrees, the bound the packing width is derived from
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    out = []
    for _ in range(nrows):
        shift = draw(st.one_of(st.just((0, 0)),
                               st.tuples(st.integers(0, 70), st.integers(0, 40))))
        out.append([{(a + shift[0], b + shift[1]): c for (a, b), c in x.items()}
                    for x in (draw(int_entries) for _ in range(ncols))])
    return out


@settings(max_examples=150)
@given(integer_matrices())
def test_packed_bareiss_matches_the_tuple_elimination(rows):
    assert unpacked_bareiss(rows, 2) == column_bareiss_reference(rows)


@settings(max_examples=100)
@given(integer_matrices(), st.data())
def test_packed_bareiss_skips_the_unit_pivot(rows, data):
    # a unit first column, as the stack of cyclic rows has at r_0: the first
    # pivot is 1, so the step after it multiplies by 1 and the next divides
    # by 1; both are skipped, and every entry made after a division is still
    # in the order _zdiv leaves, highest packed monomial first
    i = data.draw(st.integers(0, len(rows) - 1))
    rows = [[{(0, 0): 1} if k == i else {}] + r for k, r in enumerate(rows)]
    assert unpacked_bareiss(rows, 2) == column_bareiss_reference(rows)
    for _, _, row in _bareiss(rows, 2)[0][2:]:
        assert all(list(x) == sorted(x, reverse=True) for x in row)


def test_packed_bareiss_at_the_width_bound():
    # one row of total degree 64 over two constant rows: S = 64. The high row
    # is the only one nonzero at column 0, so it is the first pivot, and the
    # product p_2 x of the third row has degree 128 = 2 S before its division
    d = 64
    rows = [[{}, {(0, 0): 5}, {(0, 0): -2}],
            [{(d, 0): 1}, {(d - 1, 1): 2}, {(0, d): 3}],
            [{}, {(0, 0): 1}, {(0, 0): 4}]]
    pivots = unpacked_bareiss(rows, 2)
    assert [(col, i) for col, i, _ in pivots] == [(0, 1), (1, 0), (2, 2)]
    assert pivots == column_bareiss_reference(rows)


def test_back_substitution_at_the_width_bound():
    # the transpose of m is [[x^64, 2 x^63 y, 3 y^64], [0, 5, -2]]: S = 64,
    # and the back substitution forms 3 y^64 * p_2 = 3 y^64 * 5 x^64, of
    # degree 128 = 2 S, before its division by p_1 = x^64
    d = 64
    xy = ("x", "y")
    m = Matrix([[Poly(xy, {(d, 0): 1}), Poly.zero(xy)],
                [Poly(xy, {(d - 1, 1): 2}), Poly.const(xy, 5)],
                [Poly(xy, {(0, d): 3}), Poly.const(xy, -2)]])
    [vec] = left_nullspace(m)
    assert vec == augmented_left_nullspace_reference(m)[0]
    assert vec == [Poly(xy, {(d - 1, 1): -4, (0, d): -15}), Poly(xy, {(d, 0): 2}),
                   Poly(xy, {(d, 0): 5})]
