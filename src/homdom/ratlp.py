"""Exact rational linear programming.

A small dense two-phase simplex with Bland's anti-cycling rule, pivoting
on a tableau of Python ints (integer-preserving Bareiss pivots, as in
Avis's lrs). The canonical form is built on ints: each row is scaled by
lam, the lcm of its denominators, so its slack column stands for lam
times the slack, and the objective by mu. The tableau holds D times the
rational tableau, D > 0 the determinant of the current basis, and a pivot
is the exact division (p*a - f*w) // D. Fractions are built only from the
final tableau: x_j = rhs / D and y_i = -lam_i * (the reduced cost of slack
i) / (D * mu). Every optimal solve returns a dual vector and is
self-checked on Fractions, by exact primal and dual feasibility and
strong duality, before being handed back.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import HomdomError


class LPError(HomdomError):
    pass


MAX_LP_DIM = 400

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPProblem:
    """sense in {"max","min"}; rows are (coeffs, relation, rhs) with
    relation in {"<=", ">=", "="}; nonneg[j] says whether x_j >= 0
    (False means free)."""

    sense: str
    objective: tuple
    rows: tuple
    nonneg: tuple
    names: tuple = ()

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise LPError(f"bad sense {self.sense!r}")
        n = len(self.objective)
        if len(self.nonneg) != n:
            raise LPError("nonneg length mismatch")
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != n:
                raise LPError("row length mismatch")
            if rel not in ("<=", ">=", "="):
                raise LPError(f"bad relation {rel!r}")
        if n > MAX_LP_DIM or len(self.rows) > MAX_LP_DIM:
            raise LPError("problem exceeds dimension cap")

    @property
    def num_vars(self):
        return len(self.objective)


@dataclass(frozen=True)
class LPSolution:
    status: str  # optimal | infeasible | unbounded
    optimum: Fraction = None
    primal: tuple = None
    dual: tuple = None


def make_lp(sense, objective, rows, nonneg=True, names=()):
    """Convenience constructor accepting ints/strs for all coefficients."""
    obj = tuple(Fraction(c) for c in objective)
    if isinstance(nonneg, bool):
        nn = tuple(nonneg for _ in obj)
    else:
        nn = tuple(bool(b) for b in nonneg)
    rws = tuple(
        (tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs))
        for coeffs, rel, rhs in rows
    )
    return LPProblem(sense, obj, rws, nn, tuple(names))


# ---------------------------------------------------------------------------
# exact integer rows and the simplex core: max c.x  s.t.  A x <= b, x >= 0
# ---------------------------------------------------------------------------

def _integer_row(v):
    """(ints, l): l the lcm of the denominators of the ints and Fractions
    in v, and the ints equal to l * v."""
    scale = lcm(*(x.denominator for x in v))
    return [x.numerator * (scale // x.denominator) for x in v], scale


def bareiss_pivot(mat, r, col, d):
    """One fraction-free pivot of the integer rows mat on entry p at (r, col),
    in place: each other row a becomes (p * a - f * w) // d, w the pivot row
    and f = a[col], exact when d is the previous pivot. Returns p."""
    prow = mat[r]
    p = prow[col]
    for i, row in enumerate(mat):
        f = row[col]
        if i != r and (f or p != d):
            mat[i] = [(p * a - f * w) // d for a, w in zip(row, prow)]
    return p


def _simplex_canonical(c, arows, b):
    """Bland two-phase simplex on the integer canonical form, on the
    tableau of the module docstring (d is its D). A row with b_i < 0 is
    negated and gets an artificial; the phase-1 row holds d times the
    reduced costs of -sum(artificials).

    Returns (status, optimum, x, y) where y is the dual of the <= rows
    (y >= 0, y.A >= c on every column, c.x = y.b at optimality).
    """
    m = len(arows)
    n = len(c)
    art = [i for i in range(m) if b[i] < 0]
    total = n + m + len(art)
    # columns: 0..n-1 structural, n..n+m-1 slack, then artificials, then rhs
    tab = []
    basis = []
    for i in range(m):
        sign = -1 if b[i] < 0 else 1
        row = [sign * v for v in (*arows[i], b[i])]
        row[n:n] = [0] * (total - n)
        row[n + i] = sign
        if sign < 0:
            basis.append(n + m + art.index(i))
            row[basis[-1]] = 1
        else:
            basis.append(n + i)
        tab.append(row)
    tab.append(list(c) + [0] * (total - n + 1))
    if art:
        # -1 on every artificial, priced out against their (basic) rows
        cost1 = [0] * (n + m) + [-1] * len(art) + [0]
        tab.append([sum(col) for col in zip(cost1, *(tab[i] for i in art))])
    d = 1

    def pivot(r, col):
        nonlocal d
        d = bareiss_pivot(tab, r, col, d)
        if d < 0:  # only when driving out an artificial; keep d > 0
            tab[:] = [[-a for a in row] for row in tab]
            d = -d
        basis[r] = col

    def run_phase(ncols):
        # maximize the cost in the last tableau row over its first ncols
        # columns; Bland's rule. Basic columns have reduced cost 0.
        while True:
            cost = tab[-1]
            enter = next((j for j in range(ncols) if cost[j] > 0), -1)
            if enter < 0:
                return "optimal"
            leave = -1
            for r in range(m):
                a = tab[r][enter]
                if a > 0:
                    if leave < 0:
                        leave, best_a, best_b = r, a, tab[r][-1]
                        continue
                    # rhs_r / a < best_b / best_a, by cross-multiplying
                    lhs, rhs = tab[r][-1] * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave, best_a, best_b = r, a, tab[r][-1]
            if leave < 0:
                return "unbounded"
            pivot(leave, enter)

    if art:
        status = run_phase(total)
        assert status == "optimal"  # phase 1 is always bounded
        # the phase-1 row's rhs is d times the artificials' total value
        if tab.pop()[-1] != 0:
            return "infeasible", None, None, None
        # drive remaining artificials out of the basis. Every canonical row
        # keeps its own slack column, so the first n + m columns have rank m
        # and no tableau row is zero on all of them.
        for r in range(m):
            if basis[r] >= n + m:
                pivot(r, next(j for j in range(n + m) if tab[r][j]))

    status = run_phase(n + m)
    if status == "unbounded":
        return "unbounded", None, None, None

    x = [_ZERO] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tab[r][-1], d)
    opt = sum(ci * xi for ci, xi in zip(c, x))
    # dual of row i = minus the reduced cost of its slack column; the
    # build-time row negation is already baked into that column, so no
    # sign fixup
    cost = tab[m]
    y = [Fraction(-cost[n + i], d) for i in range(m)]
    return "optimal", opt, x, y


# the canonical <= rows of one original row: itself, negated, or both
_ROW_SIGNS = {"<=": (1,), ">=": (-1,), "=": (1, -1)}


def _canonicalize(p):
    """Rewrite an LPProblem as max c~.x~, A~ x~ <= b~, x~ >= 0 on ints:
    the objective and each row with its rhs scaled by _integer_row, free
    variables split into differences, each row in its _ROW_SIGNS copies.
    Returns the canonical data, mu, each copy's lam and the recovery maps.
    """
    colmap = []  # per original var: (pos_col, neg_col or None)
    ncols = 0
    for nonneg in p.nonneg:
        if nonneg:
            colmap.append((ncols, None))
            ncols += 1
        else:
            colmap.append((ncols, ncols + 1))
            ncols += 2

    def widen(vec, sign):
        # sign * vec on the canonical columns; a row's rhs, last, is left out
        row = [0] * ncols
        for (pos, neg), v in zip(colmap, vec):
            row[pos] = sign * v
            if neg is not None:
                row[neg] = -sign * v
        return row

    csign = 1 if p.sense == "max" else -1
    obj, mu = _integer_row(p.objective)
    c = widen(obj, csign)
    arows, b, lam = [], [], []
    rowmap = []  # per original row: (canonical index, relation)
    for coeffs, rel, rhs in p.rows:
        ints, scale = _integer_row((*coeffs, rhs))
        rowmap.append((len(arows), rel))
        for sign in _ROW_SIGNS[rel]:
            arows.append(widen(ints, sign))
            b.append(sign * ints[-1])
            lam.append(scale)
    return c, arows, b, mu, lam, colmap, rowmap, csign


def _verify_optimal(p, x, y, opt):
    """Exact optimality certificate: primal + dual feasibility + equality."""
    n = p.num_vars
    for j in range(n):
        if p.nonneg[j] and x[j] < 0:
            raise AssertionError("primal sign violation")
    for (coeffs, rel, rhs), yi in zip(p.rows, y):
        lhs = sum(a * xj for a, xj in zip(coeffs, x) if a and xj)
        if rel == "<=" and lhs > rhs:
            raise AssertionError("primal row violation")
        if rel == ">=" and lhs < rhs:
            raise AssertionError("primal row violation")
        if rel == "=" and lhs != rhs:
            raise AssertionError("primal row violation")
        # dual sign convention (for max: <= rows y>=0, >= rows y<=0)
        s = 1 if p.sense == "max" else -1
        if rel == "<=" and s * yi < 0:
            raise AssertionError("dual sign violation")
        if rel == ">=" and s * yi > 0:
            raise AssertionError("dual sign violation")
    for j in range(n):
        ya = sum(p.rows[i][0][j] * y[i] for i in range(len(p.rows)) if y[i])
        gap = ya - p.objective[j]
        if p.sense == "min":
            gap = -gap
        # for max: y.A_j >= c_j on nonneg vars, = on free vars
        if p.nonneg[j]:
            if gap < 0:
                raise AssertionError("dual row violation")
            if gap != 0 and x[j] != 0:
                raise AssertionError("complementary slackness violation")
        elif gap != 0:
            raise AssertionError("dual row violation (free var)")
    yb = sum(y[i] * p.rows[i][2] for i in range(len(p.rows)))
    if yb != opt:
        raise AssertionError("strong duality violation")


def solve_lp(p):
    """Solve exactly; statuses are returned, never raised. The dual vector
    follows the usual sign convention for the problem's own sense and is
    verified by exact strong duality before return."""
    c, arows, b, mu, lam, colmap, rowmap, csign = _canonicalize(p)
    status, _, x, y = _simplex_canonical(c, arows, b)
    if status != "optimal":
        return LPSolution(status=status)
    primal = [x[pos] - (x[neg] if neg is not None else _ZERO) for pos, neg in colmap]
    # an original row's dual is the signed sum over its canonical copies
    y = [csign * scale * yi / mu for scale, yi in zip(lam, y)]
    dual = [sum(sign * y[idx + k] for k, sign in enumerate(_ROW_SIGNS[rel]))
            for idx, rel in rowmap]
    optimum = sum(cj * xj for cj, xj in zip(p.objective, primal))
    _verify_optimal(p, primal, dual, optimum)
    return LPSolution("optimal", optimum, tuple(primal), tuple(dual))


# ---------------------------------------------------------------------------
# the hardcoded Kopparty-Rossman LP family for C_2^{2i-2} C_{2i+1}^c vs C_3
# ---------------------------------------------------------------------------

KR_VARS = ("p1", "p2", "p3", "p12", "p13", "p23", "p123", "z")


def kr_lp(i):
    """min z over the 16-row entropy-style program whose optimum is the
    homomorphism domination exponent of C_2^(2i-2) C_{2i+1}^c over C_3.

    Variables p(S) for nonempty S in {1',2',3'} plus z, all free; rows are
    the three subadditivity and three submodularity constraints, the
    normalization p(1'2'3') = 1, and nine homomorphism rows.
    """
    if i < 2:
        raise LPError("need i >= 2")
    P1, P2, P3, P12, P13, P23, P123, Z = range(8)

    def row(coeffs, rel, rhs=0):
        vec = [_ZERO] * 8
        for var, cf in coeffs.items():
            vec[var] = Fraction(cf)
        return (tuple(vec), rel, Fraction(rhs))

    a = i - 1       # the +-(i-1) coefficient
    big = 2 * i - 2
    top = 2 * i - 1
    rows = [
        row({P13: -1, P1: 1, P3: 1}, ">="),
        row({P12: -1, P1: 1, P2: 1}, ">="),
        row({P23: -1, P2: 1, P3: 1}, ">="),
        row({P123: -1, P12: 1, P13: 1, P1: -1}, ">="),
        row({P123: -1, P12: 1, P23: 1, P2: -1}, ">="),
        row({P123: -1, P13: 1, P23: 1, P3: -1}, ">="),
        row({P123: 1}, "=", 1),
        row({P123: top, P12: a, P13: -a, Z: -1}, "<="),
        row({P123: top, P12: -a, P13: a, Z: -1}, "<="),
        row({P123: top, P12: -a, P13: -a, P23: big, Z: -1}, "<="),
        row({P123: top, P12: a, P23: -a, Z: -1}, "<="),
        row({P123: top, P12: -a, P23: a, Z: -1}, "<="),
        row({P123: top, P12: -a, P13: big, P23: -a, Z: -1}, "<="),
        row({P123: top, P13: a, P23: -a, Z: -1}, "<="),
        row({P123: top, P13: -a, P23: a, Z: -1}, "<="),
        row({P123: top, P12: big, P13: -a, P23: -a, Z: -1}, "<="),
    ]
    objective = tuple(_ZERO if v != Z else _ONE for v in range(8))
    return LPProblem("min", objective, tuple(rows), tuple(False for _ in range(8)), KR_VARS)


def kr_dual_certificate(i):
    """The explicit nonnegative combination proving z >= 2i-1:
    -(2i-1) times the normalization row plus 1/2 of each of the two
    homomorphism rows whose p(12)/p(13) terms cancel (rows 8 and 9)."""
    mult = [_ZERO] * 16
    mult[6] = Fraction(-(2 * i - 1))
    mult[7] = Fraction(1, 2)
    mult[8] = Fraction(1, 2)
    return tuple(mult)


def check_kr_certificate(i, p):
    """Verify the hand-written certificate implies z >= 2i-1 exactly on
    p, the LP kr_lp(i)."""
    mult = kr_dual_certificate(i)
    combo = [_ZERO] * p.num_vars
    rhs = _ZERO
    for (coeffs, rel, b), w in zip(p.rows, mult):
        if w == 0:
            continue
        if rel == "<=" and w < 0:
            return False
        if rel == ">=" and w > 0:
            return False
        for j, cf in enumerate(coeffs):
            combo[j] += w * cf
        rhs += w * b
    # the combination must read  -z <= -(2i-1), i.e. z >= 2i-1
    want = [_ZERO] * p.num_vars
    want[-1] = Fraction(-1)
    return combo == want and rhs == Fraction(-(2 * i - 1))


# ---------------------------------------------------------------------------
# JSON interchange with rational strings
# ---------------------------------------------------------------------------

MAX_RATIONAL_DIGITS = 4300  # Python's own cap on writing an int as text
_TOO_LONG = 10 ** (MAX_RATIONAL_DIGITS - 1)  # the least int of MAX_RATIONAL_DIGITS digits


def rational_too_long(text):
    """Whether ``Fraction(text)`` could build a numerator or denominator of
    MAX_RATIONAL_DIGITS digits or more (it has at most the text's digits
    plus its exponent, plus one), read before Fraction builds 10**exponent."""
    mantissa, e, exponent = text.replace("_", "").lower().partition("e")
    exponent = exponent.strip().lstrip("+-").lstrip("0")  # six digits already pass the cap
    return bool(e) and exponent.isdecimal() and (
        sum(map(str.isdigit, mantissa)) + int(exponent[:6]) >= MAX_RATIONAL_DIGITS)


def frac_to_str(x):
    """``str(Fraction(x))``, refused past MAX_RATIONAL_DIGITS - 1 digits."""
    x = Fraction(x)
    if max(abs(x.numerator), x.denominator) >= _TOO_LONG:
        raise HomdomError(f"a rational of {MAX_RATIONAL_DIGITS} or more digits is not printed")
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def lp_to_json(p):
    return json.dumps(
        {
            "sense": p.sense,
            "objective": [frac_to_str(c) for c in p.objective],
            "rows": [
                {"coeffs": [frac_to_str(c) for c in coeffs], "rel": rel, "rhs": frac_to_str(rhs)}
                for coeffs, rel, rhs in p.rows
            ],
            "nonneg": list(p.nonneg),
            "names": list(p.names),
        }
    )


def _key(d, key, kind=object, default=None):
    """``d[key]`` for a JSON object ``d``, or ``default`` when one is given
    and the key is absent; LPError naming the key when it is missing or
    its value is not a ``kind``."""
    if not isinstance(d, dict) or (key not in d and default is None):
        raise LPError(f"LP JSON: missing key {key!r}")
    value = d.get(key, default)
    if not isinstance(value, kind):
        raise LPError(f"LP JSON: key {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def _number(value, key):
    """A JSON number or numeric string as a Fraction, else LPError naming the
    key; a JSON boolean is no number."""
    if isinstance(value, str) and rational_too_long(value):
        raise LPError(f"LP JSON: key {key!r} holds {value!r}, {MAX_RATIONAL_DIGITS}+ digits")
    try:
        return Fraction(value if type(value) in (int, float, str) else None)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise LPError(f"LP JSON: key {key!r} holds {value!r}, not a number") from None


def _flag(value, key):
    """A JSON boolean, else LPError naming the key."""
    if not isinstance(value, bool):
        raise LPError(f"LP JSON: key {key!r} holds {value!r}, not a boolean")
    return value


def lp_from_json(text):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LPError(f"LP JSON: {exc}") from None
    except RecursionError:
        raise LPError("LP JSON: nested too deeply") from None
    return make_lp(
        _key(d, "sense"),
        [_number(c, "objective") for c in _key(d, "objective", list)],
        [([_number(c, "coeffs") for c in _key(r, "coeffs", list)], _key(r, "rel"),
          _number(_key(r, "rhs"), "rhs"))
         for r in _key(d, "rows", list)],
        nonneg=[_flag(b, "nonneg") for b in _key(d, "nonneg", list, [True] * len(d["objective"]))],
        names=_key(d, "names", list, []),
    )


def solution_to_data(sol):
    out = {"status": sol.status}
    if sol.status == "optimal":
        out["optimum"] = frac_to_str(sol.optimum)
        out["primal"] = [frac_to_str(v) for v in sol.primal]
        out["dual"] = [frac_to_str(v) for v in sol.dual]
    return out
