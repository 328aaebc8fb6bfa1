"""Output checks computed apart from hankelmod2.

Nothing here imports the program.  Each check either recomputes a value by
an independent formula from the paper, or tests a property the value must
have, and raises ``CheckError`` on a mismatch.  None of them compares with a
stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction


class CheckError(AssertionError):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def pm(parity: int) -> int:
    return -1 if parity & 1 else 1


# ---------------------------------------------------------------------------
# Bit formulas
# ---------------------------------------------------------------------------


def d_ref(n: int) -> int:
    """d(n) = (-1)^C(n,2)."""
    return pm((n * (n - 1) // 2) & 1)


def delta_ref(n: int) -> int:
    """Digit pairs 10 at positions >= 1, plus one for a trailing 11."""
    return ((n >> 1) & ~n & ~1).bit_count() + (1 if n & 3 == 3 else 0)


def D_ref(n: int) -> int:
    return pm(delta_ref(n))


def T_ref(n: int) -> int:
    """T_n = D(n) D(n+2)."""
    return D_ref(n) * D_ref(n + 2)


def favard_ref(n: int) -> tuple[int, int]:
    t = T_ref(2 * n) * T_ref(2 * n + 1)
    s = T_ref(0) if n == 0 else T_ref(2 * n - 1) + T_ref(2 * n)
    return s, t


def r_ref(n: int) -> int:
    """Golay-Rudin-Shapiro r(n) = (-1)^(number of 11 digit pairs)."""
    return pm((n & (n >> 1)).bit_count())


def s_ref(n: int) -> int:
    """s(2n) = (-1)^n s(n), s(2n+1) = s(n): one sign per 10 digit pair."""
    return pm(((n >> 1) & ~n).bit_count())


def v_ref(n: int) -> int:
    """v(2n+1) = v(n), v(4n) = (-1)^n v(2n), v(4n+2) = v(2n), v(0) = 1."""
    sign = 1
    while n:
        if n & 1:
            n = (n - 1) // 2
        elif n % 4 == 0:
            sign *= pm(n // 4)
            n //= 2
        else:
            n = (n - 2) // 2
    return sign


def support_ref(n: int, m: int) -> bool:
    """d(n, m) != 0 iff n = 0 or -m mod 2^(K+1), where 2^K < m <= 2^(K+1)."""
    period = 2
    while period < m:
        period *= 2
    return n % period == 0 or (n + m) % period == 0


def reversal_ref(n: int, m: int) -> int:
    """d(n, m) from the interval-reversal construction of the paper.

    The only surviving permutation reverses consecutive blocks: the top
    block [lo, hi) maps i to p - 1 - m - i for the least power of two
    p >= hi + m, then the prefix [0, lo) is handled the same way.  With all
    entries 1 the determinant is the permutation's sign, the product of
    (-1)^C(L, 2) over the block lengths L; it is 0 when some block cannot
    be formed.  Only block lengths are computed, so n may have thousands of
    bits.
    """
    parity = 0
    hi = n
    while hi > 0:
        p = 1 << (hi + m - 1).bit_length()
        if p > 2 * hi + m - 1:
            return 0
        lo = p - m - hi
        length = hi - lo
        parity ^= (length * (length - 1) // 2) & 1
        hi = lo
    return pm(parity)


def mu_ref(n: int) -> dict[int, int]:
    """The paper's periodic mu table: exponent of x_(2^k-1), k >= 1, in D(n).

    Written as a tent of height 2^k - 1 over the residue n mod 2^(k+1),
    centred between 2^k - 1 and 2^k.
    """
    out = {}
    for k in range(1, n.bit_length() + 1):
        i = n % (1 << (k + 1))
        e = (1 << k) - abs(2 * i - (1 << (k + 1)) + 1)
        if e > 0:
            out[k] = e
    return out


# ---------------------------------------------------------------------------
# Monomials, read from the canonical text form the program prints
# ---------------------------------------------------------------------------

XVAR = "x"  # the plain specialization variable
_FACTOR = re.compile(r"x(\d*)(?:\^(-?\d+))?$")


def _var_key(sub: str):
    if sub == "":
        return XVAR
    p = int(sub) + 1
    expect(p & (p - 1) == 0, f"x{sub} is not an x_(2^k-1) variable")
    return p.bit_length() - 1


def parse_monomial(text: str) -> tuple[int, dict]:
    """(coefficient, {k or "x": exponent}) of a single signed monomial.

    Raises CheckError when the text is not exactly one monomial.
    """
    text = text.strip()
    expect(text != "", "empty value")
    if text == "0":
        return 0, {}
    expect(" + " not in text and " - " not in text, f"{text!r} is not a single monomial")
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    coeff = sign
    exps: dict = {}
    num, _, den = text.partition("/")
    for part, esign in ((num, 1), (den, -1)):
        if not part:
            continue
        for factor in part.split("*"):
            if factor.isdigit():
                expect(esign > 0, f"integer in a denominator: {text!r}")
                coeff *= int(factor)
                continue
            m = _FACTOR.match(factor)
            expect(m is not None, f"bad factor {factor!r}")
            key = _var_key(m.group(1))
            exps[key] = exps.get(key, 0) + esign * int(m.group(2) or 1)
    return coeff, {k: e for k, e in exps.items() if e}


def monomial_of(value) -> tuple[int, dict]:
    """(coefficient, exponents) of a program value or of its printed form.

    Large values are read through ``monomial_parts`` rather than their text:
    at n of thousands of bits the subscripts 2^k - 1 have hundreds of digits.
    """
    if isinstance(value, str):
        return parse_monomial(value)
    if value.is_zero():
        return 0, {}
    if not value.is_monomial():
        raise CheckError(f"{value} is not a single monomial")
    coeff, exps = value.monomial_parts()
    # the program keys the plain variable x by a negative index
    return coeff, {(XVAR if k < 0 else k): e for k, e in exps.items() if e}


def check_hankel_monomial(value, n: int, m: int, sign: int | None, what: str) -> None:
    """A nonzero symbolic Hankel determinant of order n and shift m is one
    signed monomial whose exponents sum to n and whose variable subscripts,
    weighted by exponent, sum to n(n-1) + m n (the sum of i + j + m over
    one permutation)."""
    c, exps = monomial_of(value)
    expect(c in (1, -1), f"{what}: coefficient {c} is not a sign")
    if sign is not None:
        expect(c == sign, f"{what}: sign {c}, expected {sign}")
    expect(all(isinstance(k, int) and k >= 0 for k in exps), f"{what}: stray variable")
    expect(sum(exps.values()) == n, f"{what}: degree {sum(exps.values())} != {n}")
    weight = sum(e * ((1 << k) - 1) for k, e in exps.items())
    expect(weight == n * (n - 1) + m * n, f"{what}: subscript weight {weight}")


def check_T_monomial(value, n: int) -> None:
    """T_n = D(n) D(n+2) / D(n+1)^2: sign T_n, degree 0, subscript weight 2."""
    c, exps = monomial_of(value)
    expect(c == T_ref(n), f"T({n}) sign {c}")
    expect(sum(exps.values()) == 0, f"T({n}) degree")
    expect(sum(e * ((1 << k) - 1) for k, e in exps.items()) == 2, f"T({n}) weight")


def check_h_ratio(d_n, d_n1, D_n, n: int) -> None:
    """d(n) d(n+1) / D(n)^2 = (-1)^n x0."""
    c0, e0 = monomial_of(d_n)
    c1, e1 = monomial_of(d_n1)
    c2, e2 = monomial_of(D_n)
    total: dict = {}
    for exps, mult in ((e0, 1), (e1, 1), (e2, -2)):
        for k, e in exps.items():
            total[k] = total.get(k, 0) + mult * e
    total = {k: e for k, e in total.items() if e}
    expect(c0 * c1 * c2 * c2 == pm(n) and total == {0: 1}, f"h({n}) != (-1)^n x0")


# ---------------------------------------------------------------------------
# Hankel matrices: the single surviving permutation, and dense elimination
# ---------------------------------------------------------------------------


def power_index(t: int, m: int):
    """k with t + m + 1 = 2^k, or None: entry (i, j) lives on t = i + j."""
    p = t + m + 1
    return p.bit_length() - 1 if p & (p - 1) == 0 else None


def unique_matching(n: int, m: int):
    """The permutation pi with i + pi(i) + m + 1 a power of two, when exactly
    one exists; None when none does.  Raises CheckError when several exist
    (then the determinant would not be a single signed term).

    Found by augmenting paths on the bipartite support graph; uniqueness is
    the absence of an alternating cycle.
    """
    adj = []
    for i in range(n):
        cols = []
        p = 1
        while p <= 2 * n + m:
            j = p - 1 - m - i
            if 0 <= j < n:
                cols.append(j)
            p *= 2
        adj.append(cols)
    match_row = [-1] * n  # row -> column
    match_col = [-1] * n  # column -> row
    for i in range(n):
        # breadth-first search for an augmenting path from row i
        reached_from: dict[int, int] = {}  # column -> row it was reached from
        queue = [i]
        free = -1
        for r in queue:
            for j in adj[r]:
                if j in reached_from:
                    continue
                reached_from[j] = r
                if match_col[j] < 0:
                    free = j
                    break
                queue.append(match_col[j])
            if free >= 0:
                break
        if free < 0:
            return None
        j = free
        while j >= 0:
            r = reached_from[j]
            j_next = match_row[r]
            match_row[r], match_col[j] = j, r
            j = j_next
    perm = match_row
    # alternating cycle check: row i -> row match_col[j] for unmatched edges (i, j)
    succ = [[match_col[j] for j in adj[i] if j != perm[i]] for i in range(n)]
    state = [0] * n  # 0 new, 1 on stack, 2 done
    for s in range(n):
        if state[s]:
            continue
        state[s] = 1
        stack2 = [(s, iter(succ[s]))]
        while stack2:
            node, it = stack2[-1]
            for nxt in it:
                expect(state[nxt] != 1, f"order {n} shift {m}: more than one surviving permutation")
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack2.append((nxt, iter(succ[nxt])))
                    break
            else:
                state[node] = 2
                stack2.pop()
    return perm


def perm_sign(perm) -> int:
    seen = [False] * len(perm)
    parity = 0
    for s in range(len(perm)):
        if seen[s]:
            continue
        length = 0
        i = s
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        parity ^= (length - 1) & 1
    return pm(parity)


def grs_value(k: int) -> int:
    """The Golay-Rudin-Shapiro assignment: x1 -> 1, x_(2^k-1) -> (-1)^k else."""
    expect(k >= 1, "the grs assignment has no value for x0")
    return 1 if k == 1 else pm(k)


def expected_det(rule: str, n: int, m: int) -> int:
    """Exact determinant of an integer rule ("unit" or "grs") from the single
    surviving permutation: its sign times the product of its entries, or 0
    when there is no such permutation."""
    perm = unique_matching(n, m)
    if perm is None:
        return 0
    sign = perm_sign(perm)
    if rule == "grs":
        for i, j in enumerate(perm):
            sign *= grs_value(power_index(i + j, m))
    return sign


def dense_det(matrix: list[list[Fraction]]) -> Fraction:
    """Gaussian elimination over Fraction with row pivoting: the reference
    the self-tests hold ``expected_det`` to at small orders (at the orders
    the workload uses it would take seconds per query)."""
    a = [row[:] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    return det


def check_det(rule: str, n: int, m: int, value) -> None:
    expect(value in (-1, 0, 1), f"{rule} order {n} shift {m}: {value} not in {{-1, 0, 1}}")
    want = expected_det(rule, n, m)
    expect(value == want, f"{rule} order {n} shift {m}: {value}, expected {want}")


# ---------------------------------------------------------------------------
# Continued fractions: weighted lattice paths (Flajolet 1980)
# ---------------------------------------------------------------------------


def s_fraction_series(c: list[int], order: int) -> list[int]:
    """Coefficients of 1/(1 - c0 z/(1 - c1 z/(1 - ...))) mod z^order.

    The coefficient of z^n counts Dyck paths of semilength n, each weighted
    by the product of c_h over its down steps from height h+1 to h.
    """
    out = [0] * order
    if order == 0:
        return out
    # w[h] = weighted count of partial paths ending at height h after t steps
    w = [1] + [0] * order
    out[0] = 1
    for step in range(1, 2 * order - 1):
        nw = [0] * (order + 1)
        top = min(step, 2 * order - 2 - step, order)
        for h in range(top + 1):
            v = 0
            if h > 0:
                v += w[h - 1]  # up step from h-1
            if h + 1 <= order:
                v += w[h + 1] * c[h]  # down step from h+1 to h
            nw[h] = v
        w = nw
        if step % 2 == 0:
            out[step // 2] = w[0]
    return out


def target_ref(order: int, alternating: bool) -> list[int]:
    """sum_k (+-1)^k z^(2^k - 1) mod z^order."""
    out = [0] * order
    k = 0
    while (1 << k) - 1 < order:
        out[(1 << k) - 1] = pm(k) if alternating else 1
        k += 1
    return out


def check_series(got: list, want: list[int], what: str) -> None:
    expect(len(got) == len(want), f"{what}: {len(got)} coefficients, expected {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        expect(g == w, f"{what}: coefficient of z^{i} is {g}, expected {w}")


# ---------------------------------------------------------------------------
# Table output
# ---------------------------------------------------------------------------

_JSON_RECORD = re.compile(r"\{[^{}]*\}")
FIELDS = ["n", "m", "rule", "method", "value"]


def table_rows(text: str, fmt: str):
    """Yield the records of a ``table`` output one at a time (the whole
    output is never turned into a list, so checking adds little memory)."""
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        expect(header == FIELDS, f"csv header {header}")
        for row in reader:
            expect(len(row) == len(FIELDS), f"csv row {row}")
            yield dict(zip(FIELDS, row))
        return
    body = text.strip()
    expect(body.startswith("[") and body.endswith("]"), "json output is not one array")
    count = 0
    for match in _JSON_RECORD.finditer(body):
        rec = json.loads(match.group(0))
        expect(sorted(rec) == sorted(FIELDS), f"json record {rec}")
        count += 1
        yield rec
    expect(count == body.count("{"), "json record split")


def check_table_value(seq: str, rule: str, m: int, n: int, value: str) -> None:
    if seq == "D":
        expect(int(value) == D_ref(n), f"D({n}) = {value}")
    elif seq == "T":
        expect(int(value) == T_ref(n), f"T({n}) = {value}")
    elif seq == "d" and rule == "unit":
        v = int(value)
        expect((v != 0) == support_ref(n, m), f"d({n}, {m}) = {v} breaks the residue rule")
        expect(v == reversal_ref(n, m), f"d({n}, {m}) = {v}")
    elif seq == "d":
        if not support_ref(n, m):
            expect(value == "0", f"d({n}, {m}) = {value} off the residue support")
        else:
            check_hankel_monomial(value, n, m, None, f"d({n}, {m})")
    elif seq == "mu":
        c, exps = parse_monomial(value)
        expect(c == 1, f"mu({n}) coefficient {c}")
        expect(exps == mu_ref(n), f"mu({n}) = {value}")
        expect(sum(exps.values()) == n, f"mu({n}) degree")
        expect(sum(e * ((1 << k) - 1) for k, e in exps.items()) == n * n, f"mu({n}) weight")
    else:
        raise CheckError(f"no check for --seq {seq}")


def check_table(text: str, fmt: str, seq: str, rule: str, m: int, lo: int, hi: int) -> int:
    """Every n in [lo, hi] appears once, in order, with a correct value.
    Returns the number of rows."""
    want_n = lo
    for rec in table_rows(text, fmt):
        n = int(rec["n"])
        expect(n == want_n, f"row n={n}, expected n={want_n}")
        expect(int(rec["m"]) == m and rec["rule"] == rule, f"row {rec}")
        check_table_value(seq, rule, m, n, str(rec["value"]))
        want_n += 1
    expect(want_n == hi + 1, f"table ends at n={want_n - 1}, expected {hi}")
    return hi - lo + 1
