import ast
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hankelmod2.closedform import (
    T_int,
    binom_parity,
    blocks_sign,
    d_sign,
    D_sign,
    ldlt_verify_plain,
    ldlt_verify_shifted,
    nimble_blocks,
    plain_diagonal,
    plain_lower_factor,
    shift_support,
    shifted_diagonal,
)
from hankelmod2.contfrac import moment_orthogonality, orthopoly
from hankelmod2.exactring import XVAR, LaurentPoly, UniPoly
from hankelmod2.hankel import SequenceRule, build_matrix, catalan_shift_parity, det_oracle

UNIT = SequenceRule("unit", 0)
UNIT1 = SequenceRule("unit", 1)

# transcribed displayed matrices
GRID_PLAIN_5 = [
    [1, 1, 0, 1, 0],
    [1, 0, 1, 0, 0],
    [0, 1, 0, 0, 0],
    [1, 0, 0, 0, 1],
    [0, 0, 0, 1, 0],
]
GRID_SHIFT_5 = [
    [1, 0, 1, 0, 0],
    [0, 1, 0, 0, 0],
    [1, 0, 0, 0, 1],
    [0, 0, 0, 1, 0],
    [0, 0, 1, 0, 0],
]
GRID_GRS_6 = [
    [1, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, -1],
    [1, 0, 0, 0, -1, 0],
    [0, 0, 0, -1, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, -1, 0, 0, 0, 0],
]
GRID_SHIFT3_7 = [
    [1, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1],
]


def entries(matrix):
    return [[matrix.entry(i, j) for j in range(matrix.n)] for i in range(matrix.n)]


def test_build_matrix_grids():
    assert entries(build_matrix(UNIT, 5)) == GRID_PLAIN_5
    assert entries(build_matrix(UNIT1, 5)) == GRID_SHIFT_5
    assert entries(build_matrix(SequenceRule("grs", 1), 6)) == GRID_GRS_6
    assert entries(build_matrix(SequenceRule("unit", 3), 7)) == GRID_SHIFT3_7


def test_build_matrix_empty():
    mat = build_matrix(UNIT, 0)
    assert mat.diagonals == {}
    assert det_oracle(mat) == 1


def test_matrix_sparsity_bound():
    for n in (1, 7, 33, 100, 257):
        for m in (0, 1, 5, 12):
            mat = build_matrix(SequenceRule("unit", m), n)
            assert len(mat.diagonals) <= math.ceil(math.log2(2 * n + m))


def test_det_examples():
    assert det_oracle(build_matrix(UNIT, 5)) == 1
    assert det_oracle(build_matrix(UNIT1, 5)) == -1
    assert det_oracle(build_matrix(SequenceRule("powers", 0), 5)) == \
        LaurentPoly.variable(XVAR, 10)
    assert det_oracle(build_matrix(SequenceRule("grs", 1), 6)) == -1


def test_bareiss_matches_cofactor_on_integers():
    for m in (0, 1, 2):
        for n in range(0, 65):
            mat = build_matrix(SequenceRule("unit", m), n)
            assert det_oracle(mat, "bareiss") == det_oracle(mat, "cofactor"), (n, m)
    for n in range(0, 33):
        mat = build_matrix(SequenceRule("grs", 1), n)
        assert det_oracle(mat, "bareiss") == det_oracle(mat, "cofactor"), n


def test_bareiss_rejects_symbolic():
    with pytest.raises(TypeError):
        det_oracle(build_matrix(SequenceRule("generic", 0), 4), "bareiss")


def test_custom_rule():
    rule = SequenceRule("custom", 0, values={0: 2, 1: 3, 2: 5, 3: 7})
    mat = build_matrix(rule, 5)
    assert mat.entry(0, 0) == 2 and mat.entry(1, 2) == 5
    brute = sum(
        _parity(perm) * math.prod(mat.entry(i, perm[i]) for i in range(5)) for perm in _perms(5)
    )
    assert det_oracle(mat) == brute


def _perms(n):
    return itertools.permutations(range(n))


def _parity(perm):
    inv = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def test_bareiss_and_cofactor_on_random_dense_matrices():
    # the elimination engines are generic; exercise swaps, zero pivots,
    # singular matrices, and the lazy rescaling on arbitrary inputs
    import random

    from hankelmod2.hankel import _bareiss_sparse, _cofactor_sparse

    rng = random.Random(0xBA5E)
    for trial in range(300):
        n = rng.randrange(0, 7)
        density = rng.choice((0.3, 0.6, 1.0))
        rows = [
            {j: rng.randrange(-9, 10) for j in range(n) if rng.random() < density}
            for _ in range(n)
        ]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        dense = [[r.get(j, 0) for j in range(n)] for r in rows]
        brute = sum(
            _parity(perm) * math.prod(dense[i][perm[i]] for i in range(n))
            for perm in _perms(n)
        ) if n else 1
        assert _bareiss_sparse(rows) == brute, (trial, dense)
        assert _cofactor_sparse(rows) == brute, (trial, dense)


def test_perm_parity_counts_cycles_like_inversions():
    # the inversion count (_parity) is the O(n^2) reference for the cycle count
    import random

    from hankelmod2.hankel import _perm_parity

    for n in range(8):
        for perm in _perms(n):
            assert _perm_parity(perm) == _parity(perm), perm
    rng = random.Random(0xC7C1E)
    for n in [2048, 2047] + [rng.randrange(8, 2049) for _ in range(6)]:
        perm = list(range(n))
        rng.shuffle(perm)
        assert _perm_parity(perm) == _parity(perm), n


def _fraction_det(dense):
    """Gaussian elimination over Fraction with row swaps: the dense reference."""
    n = len(dense)
    a = [[Fraction(x) for x in row] for row in dense]
    det = Fraction(1)
    for c in range(n):
        r0 = next((r for r in range(c, n) if a[r][c]), None)
        if r0 is None:
            return 0
        if r0 != c:
            a[c], a[r0] = a[r0], a[c]
            det = -det
        det *= a[c][c]
        pivot = [(j, a[c][j]) for j in range(c + 1, n) if a[c][j]]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                for j, v in pivot:
                    a[r][j] -= f * v
    assert det.denominator == 1
    return det.numerator


def test_bareiss_against_fraction_elimination_on_sparse_matrices():
    # larger and sparser than the dense test above: non-unit pivots, lazy
    # rescaling of rows several stages behind, fill-in and cancellation
    import random

    from hankelmod2.hankel import _bareiss_sparse

    rng = random.Random(0x5BA2E)
    big, singular = 0, 0
    for trial in range(240):
        n = rng.randrange(0, 41)
        density = rng.choice((0.05, 0.1, 0.2, 0.4))
        dense = [[rng.randrange(-9, 10) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(n)]
        # keep most matrices nonsingular-looking: a random permutation of
        # nonzeros under the noise
        if n and trial % 4:
            for i, j in enumerate(rng.sample(range(n), n)):
                dense[i][j] = dense[i][j] or rng.choice((-3, -2, -1, 1, 2, 3))
        if n >= 2 and trial % 7 == 0:  # singular: one row a multiple of another
            i, k = rng.sample(range(n), 2)
            f = rng.choice((-2, -1, 1, 3))
            dense[k] = [f * x for x in dense[i]]
        rows = [{j: v for j, v in enumerate(row) if v} for row in dense]
        want = _fraction_det(dense)
        assert _bareiss_sparse(rows) == want, (trial, dense)
        assert rows == [{j: v for j, v in enumerate(row) if v} for row in dense]  # input untouched
        big += abs(want) > 1
        singular += want == 0
    assert big > 120 and singular > 30, (big, singular)
    assert _bareiss_sparse([{}, {}]) == 0
    assert _bareiss_sparse([{0: 2, 1: 3}, {0: 4, 1: 6}]) == 0


def _scan_diagonals(rule, n):
    """Every antidiagonal t < 2n - 1 asked of the rule: the plain reference."""
    diagonals = {}
    for t in range(2 * n - 1):
        v = rule.value_at(t)
        if v is not None:
            diagonals[t] = v
    return diagonals


def test_build_matrix_visits_exactly_the_nonzero_antidiagonals():
    values = {k: 2 * k + 3 for k in range(10)}
    n_max = 200
    for m in range(71):
        rules = [SequenceRule(kind, m) for kind in ("unit", "generic", "powers", "doubling")]
        rules.append(SequenceRule("custom", m, values=values))
        if m:
            rules.append(SequenceRule("grs", m))
        for rule in rules:
            full = _scan_diagonals(rule, n_max)
            for n in range(n_max + 1):
                want = [(t, v) for t, v in full.items() if t < 2 * n - 1]
                assert list(build_matrix(rule, n).diagonals.items()) == want, (rule, n)
    # the rule's own errors still surface: grs has no x0, custom lacks x5
    sparse = SequenceRule("custom", 3, values={k: 1 for k in range(5)})
    for rule in (SequenceRule("grs", 0), sparse):
        for n in range(40):
            try:
                want = _scan_diagonals(rule, n)
            except (ValueError, KeyError) as exc:
                with pytest.raises(type(exc)):
                    build_matrix(rule, n)
            else:
                assert build_matrix(rule, n).diagonals == want


def nimble_enumerate(n, m=0):
    """Brute force: every (images, sign) whose determinant term survives,
    that is with i + pi(i) + m + 1 a power of two in every row."""
    return [(perm, _parity(perm)) for perm in _perms(n)
            if all((i + j + m + 1) & (i + j + m) == 0 for i, j in enumerate(perm))]


def block_images(n, m=0):
    """(images, sign) of the permutation ``nimble_blocks(n, m)`` describes,
    or None: each block (k, L) maps the top L open rows order-reversing
    through antidiagonal 2^k - m - 1."""
    blocks = nimble_blocks(n, m)
    if blocks is None:
        return None
    images = [0] * n
    hi = n
    for k, length in blocks:
        for i in range(hi - length, hi):
            images[i] = (1 << k) - 1 - m - i
        hi -= length
    return tuple(images), blocks_sign(blocks)


def test_nimble_examples():
    assert block_images(5, 0) == ((0, 2, 1, 4, 3), 1)
    assert block_images(4, 1)[0] == (2, 1, 0, 3)
    assert block_images(6, 3) is None
    assert block_images(3, 0) == ((0, 2, 1), -1)
    assert block_images(0, 0) == ((), 1)


def test_nimble_first_permutations():
    # pi_1 .. pi_5 in image notation
    expected = [(0,), (1, 0), (0, 2, 1), (3, 2, 1, 0), (0, 2, 1, 4, 3)]
    assert [block_images(n, 0)[0] for n in range(1, 6)] == expected


def test_nimble_enumerate_examples():
    assert nimble_enumerate(5, 0) == [((0, 2, 1, 4, 3), 1)]
    assert nimble_enumerate(3, 0) == [((0, 2, 1), -1)]
    assert nimble_enumerate(6, 3) == []


def test_nimble_uniqueness_small():
    for n in range(8):
        for m in range(5):
            found = nimble_enumerate(n, m)
            det = det_oracle(build_matrix(SequenceRule("unit", m), n))
            assert len(found) == (1 if det != 0 else 0), (n, m)
            if found:
                assert found[0] == block_images(n, m)
                assert found[0][1] == det
            else:
                assert block_images(n, m) is None


def test_binom_parity_against_comb():
    for a in range(64):
        for b in range(-2, a + 3):
            expect = math.comb(a, b) % 2 if 0 <= b <= a else 0
            assert binom_parity(a, b) == expect, (a, b)
    assert binom_parity(3, 1) == 1
    assert binom_parity(2, 1) == 0
    assert binom_parity(10**6, 0) == 1


def test_ldlt_plain_displayed_factors():
    assert plain_lower_factor(4) == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, -1, 1, 0],
        [1, 1, -1, 1],
    ]
    assert plain_diagonal(4) == [1, -1, 1, -1]
    assert ldlt_verify_plain(4)


def test_ldlt_shifted_diagonal_is_paperfolding():
    assert shifted_diagonal(6) == [1, 1, -1, 1, 1, -1]
    assert ldlt_verify_shifted(4)


def test_ldlt_sweep():
    for n in range(1, 65):
        assert ldlt_verify_plain(n), n
        assert ldlt_verify_shifted(n), n


def test_orthopoly_printed_list():
    printed = [
        UniPoly([1]),
        UniPoly([0, 1]),
        UniPoly([-1, 0, 1]),
        UniPoly([0, 0, 0, 1]),
        UniPoly([-1, 0, 1, 0, 1]),
        UniPoly([0, -1, 0, 0, 0, 1]),
        UniPoly([-1, 0, 0, 0, 1, 0, 1]),
        UniPoly([0, 0, 0, 0, 0, 0, 0, 1]),
    ]
    assert [orthopoly(n) for n in range(8)] == printed


def test_orthopoly_monic():
    for n in range(21):
        p = orthopoly(n)
        assert p.degree == n and p[n] == 1


def test_orthopoly_explicit_t_values():
    assert orthopoly(4, [1, -1, -1]) == UniPoly([-1, 0, 1, 0, 1])
    with pytest.raises(ValueError):
        orthopoly(5, [1])


def test_moment_orthogonality():
    assert moment_orthogonality(1, 2) == 0
    assert moment_orthogonality(0, 0) == 1
    # diagonal values are products of leading T's: L(p_n^2) = T_0 ... T_{n-1}
    assert moment_orthogonality(3, 3) == T_int(0) * T_int(1) * T_int(2)
    for i in range(13):
        for j in range(i + 1, 13):
            assert moment_orthogonality(i, j) == 0, (i, j)
        expect = math.prod(T_int(k) for k in range(i))
        assert moment_orthogonality(i, i) == expect, i


def test_moment_guard():
    with pytest.raises(ValueError):
        moment_orthogonality(21, 0)


def _hankel_product_parity(n, m):
    # direct oracle: the closed product for det(C_{i+j+m}) evaluated exactly
    h = Fraction(1)
    for j in range(1, m):
        for i in range(1, j + 1):
            h *= Fraction(2 * n + i + j, i + j)
    assert h.denominator == 1
    return h.numerator % 2


def test_catalan_shift_parity_against_product():
    for m in range(1, 7):
        for n in range(0, 41):
            assert catalan_shift_parity(n, m) == _hankel_product_parity(n, m), (n, m)


def test_catalan_shift_parity_examples():
    assert [catalan_shift_parity(n, 2) for n in range(6)] == [1, 0, 1, 0, 1, 0]
    assert catalan_shift_parity(4, 3) == 1
    assert catalan_shift_parity(2, 3) == 0


def test_catalan_shift_parity_residue_rule():
    for m in range(1, 17):
        for n in range(0, 129):
            assert catalan_shift_parity(n, m) == (1 if shift_support(n, m) else 0)


def test_catalan_shift_parity_large_n():
    # valuation arithmetic only, so huge n is fine
    assert catalan_shift_parity(10**6, 4) == 1
    assert catalan_shift_parity(10**6 + 1, 4) == 0


def test_render_grid():
    grid = build_matrix(SequenceRule("generic", 0), 3).render_grid()
    assert grid.splitlines() == ["x0  x1   0", "x1   0  x3", " 0  x3   0"]


def test_unit_rule_value_errors():
    with pytest.raises(ValueError):
        SequenceRule("nonsense")
    with pytest.raises(ValueError):
        build_matrix(SequenceRule("grs", 0), 2)  # x0 has no grs value


def test_oracle_matches_sign_closed_forms():
    for n in range(0, 80):
        assert det_oracle(build_matrix(UNIT, n)) == d_sign(n)
        assert det_oracle(build_matrix(UNIT1, n)) == D_sign(n)


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hankelmod2"


def _imports(path):
    """(package modules, absolute top-level modules) a file imports anywhere,
    function bodies included; ``from . import x`` names module x."""
    package, absolute = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                package.add(node.module.split(".")[0])
            else:
                package.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module.split(".")[0])
    return package, absolute


def _reach(module):
    """{package module: its absolute imports} for every module that ``module``
    reaches through relative imports, itself included."""
    reached, todo = {}, [module]
    while todo:
        name = todo.pop()
        if name not in reached:
            package, reached[name] = _imports(PACKAGE / f"{name}.py")
            todo.extend(package)
    return reached


def test_oracle_module_imports_no_closed_form():
    # the oracles reach nothing but the exact rings and the standard library
    reached = _reach("hankel")
    assert set(reached) <= {"hankel", "exactring"}, sorted(reached)
    for name, absolute in reached.items():
        assert absolute <= sys.stdlib_module_names, (name, absolute - sys.stdlib_module_names)
    # the benchmark's output checks are computed apart from the program
    package, absolute = _imports(ROOT / "bench" / "checks.py")
    assert not package and "hankelmod2" not in absolute, (package, absolute)
    # a closed form never calls the oracle it is checked against
    for name in ("closedform", "contfrac"):
        assert "hankel" not in _reach(name), name
