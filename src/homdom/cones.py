"""Tropicalization cones for cycle density/number profiles.

even_cycle_cone(k) is the proven cone for {C_2, C_4, ..., C_2k} in
log-density coordinates; all_cycle_cone(m) is the conjectured cone for
{C_2, C_3, ..., C_2m} in log-hom-number coordinates. Both come with
explicit generator rays and exact verification utilities.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .ratlp import frac_to_str, make_lp, solve_lp

_ZERO = Fraction(0)


class ConeError(Exception):
    pass


MAX_HULL_DIM = 10


@dataclass(frozen=True)
class Cone:
    """Halfspace rows a with meaning a.y >= 0, plus listed generator rays."""

    dim: int
    halfspaces: tuple  # tuple of coefficient tuples
    rays: tuple        # tuple of rational vectors
    coord_names: tuple = ()
    ray_names: tuple = ()

    def __post_init__(self):
        for row in self.halfspaces:
            if len(row) != self.dim:
                raise ConeError("halfspace dimension mismatch")
        for ray in self.rays:
            if len(ray) != self.dim:
                raise ConeError("ray dimension mismatch")

    def evaluate(self, y):
        """Exact slack a.y per halfspace."""
        if len(y) != self.dim:
            raise ConeError("point dimension mismatch")
        return tuple(sum(a * v for a, v in zip(row, y)) for row in self.halfspaces)

    def contains(self, y):
        return all(s >= 0 for s in self.evaluate(y))


def _vec(dim, entries):
    v = [_ZERO] * dim
    for idx, val in entries.items():
        v[idx] += Fraction(val)
    return tuple(v)


# ---------------------------------------------------------------------------
# even cycles: coordinates (y_2, y_4, ..., y_2k), log densities
# ---------------------------------------------------------------------------

def even_cycle_ray(i, k):
    """Ray r_i: coordinate 2j is -i-(j-1)(2i+1) for j <= i+1, else -2ij."""
    if not (1 <= i <= k - 1):
        raise ConeError("ray index out of range")
    out = []
    for j in range(1, k + 1):
        if j <= i + 1:
            out.append(Fraction(-i - (j - 1) * (2 * i + 1)))
        else:
            out.append(Fraction(-i * 2 * j))
    return tuple(out)


def even_cycle_cone(k):
    """The k-halfspace cone with rays r_1..r_{k-1} and s = (-1,...,-k).

    Rows: log-convexity y_{2i} - 2y_{2i+2} + y_{2i+4} >= 0 for i <= k-2,
    then 2k y_{2k-2} - (2k-2) y_{2k} >= 0, then -2k y_2 + y_{2k} >= 0.
    Coordinate j (0-based) is y_{2(j+1)}.
    """
    if k < 2:
        raise ConeError("need k >= 2")
    rows = []
    for i in range(1, k - 1):
        # indices: y_{2i} -> i-1, y_{2i+2} -> i, y_{2i+4} -> i+1
        rows.append(_vec(k, {i - 1: 1, i: -2, i + 1: 1}))
    rows.append(_vec(k, {k - 2: 2 * k, k - 1: -(2 * k - 2)}))
    rows.append(_vec(k, {0: -2 * k, k - 1: 1}))
    rays = [even_cycle_ray(i, k) for i in range(1, k)]
    rays.append(tuple(Fraction(-j) for j in range(1, k + 1)))
    names = tuple(f"y{2 * j}" for j in range(1, k + 1))
    rnames = tuple(f"r{i}" for i in range(1, k)) + ("s",)
    return Cone(k, tuple(rows), tuple(rays), names, rnames)


def even_cycle_expected_slack_row(ray_index, k):
    """The single non-tight row per the extreme-ray analysis: ray r_i is
    slack only on log-convexity row i (0-based i-1) for i <= k-2, r_{k-1}
    only on the Sidorenko-saturation row k-2, s only on the last row."""
    if ray_index == k - 1:  # the s ray
        return k - 1
    i = ray_index + 1
    return i - 1 if i <= k - 2 else k - 2


# ---------------------------------------------------------------------------
# all cycles: coordinates (y_2, y_3, ..., y_2m), log hom numbers
# ---------------------------------------------------------------------------

def _all_coord(j):
    """0-based coordinate index of y_j in (y_2, ..., y_2m)."""
    return j - 2


def all_cycle_cone(m, literal_text=False):
    """The conjectured cone for hom numbers of C_2..C_2m (dim 2m-1).

    The mixed odd/even family is implemented as
    2 y_{2i} + (2j-1-2i) y_{2j+1} - (2j+1-2i) y_{2j-1} >= 0 for 1 <= i < j < m,
    which is the open-problem inequality after relabeling. literal_text=True
    instead builds the degenerate published variant
    2 y_{2i} - (2j+1-2i) y_{2i-1} - y_{2j+1} >= 0 (only for i >= 2, where
    y_{2i-1} exists); it is kept for comparison, not for verification.
    """
    if m < 2:
        raise ConeError("need m >= 2")
    dim = 2 * m - 1
    rows = []
    names = []
    for i in range(2, m):
        rows.append(_vec(dim, {_all_coord(2 * i - 2): 1, _all_coord(2 * i): -2,
                               _all_coord(2 * i + 2): 1}))
        names.append(f"even-convexity i={i}")
    for i in range(1, m):
        rows.append(_vec(dim, {_all_coord(2 * i): 1, _all_coord(2 * i + 1): -2,
                               _all_coord(2 * i + 2): 1}))
        names.append(f"odd-between i={i}")
    for i in range(1, m):
        for j in range(i + 1, m):
            if literal_text:
                if 2 * i - 1 < 2:
                    continue  # y_{2i-1} does not exist at i=1
                rows.append(_vec(dim, {
                    _all_coord(2 * i): 2,
                    _all_coord(2 * i - 1): -(2 * j + 1 - 2 * i),
                    _all_coord(2 * j + 1): -1,
                }))
            else:
                rows.append(_vec(dim, {
                    _all_coord(2 * i): 2,
                    _all_coord(2 * j + 1): 2 * j - 1 - 2 * i,
                    _all_coord(2 * j - 1): -(2 * j + 1 - 2 * i),
                }))
            names.append(f"mixed i={i} j={j}")
    for i in range(2, m):
        rows.append(_vec(dim, {_all_coord(2 * i - 1): -1, _all_coord(2 * i + 1): 1}))
        names.append(f"odd-monotone i={i}")
    rows.append(_vec(dim, {_all_coord(3): 1}))
    names.append("y3")
    rows.append(_vec(dim, {_all_coord(3): -1, _all_coord(4): 1}))
    names.append("y4-y3")
    rows.append(_vec(dim, {_all_coord(2): -1, _all_coord(4): 1}))
    names.append("y4-y2")
    rows.append(_vec(dim, {_all_coord(2 * m - 2): m, _all_coord(2 * m): -(m - 1)}))
    names.append("saturation")

    rays = []
    rnames = []
    for i in range(1, m + 1):
        cutoff = 2 * i + 1
        r = tuple(
            Fraction(0) if (j % 2 == 1 and j < cutoff) else Fraction(j)
            for j in range(2, 2 * m + 1)
        )
        s = tuple(
            Fraction(0) if (j % 2 == 1 and j < cutoff) else Fraction(1)
            for j in range(2, 2 * m + 1)
        )
        rays.append(r)
        rnames.append(f"r{cutoff}")
        rays.append(s)
        rnames.append(f"s{cutoff}")
    coord_names = tuple(f"y{j}" for j in range(2, 2 * m + 1))
    return Cone(dim, tuple(rows), tuple(rays), coord_names, tuple(rnames))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_rays(cone):
    """Exact membership and tightness report for every listed ray."""
    report = {"all_member": True, "rays": []}
    for idx, ray in enumerate(cone.rays):
        slacks = cone.evaluate(ray)
        member = all(s >= 0 for s in slacks)
        report["all_member"] = report["all_member"] and member
        report["rays"].append({
            "name": cone.ray_names[idx] if cone.ray_names else str(idx),
            "member": member,
            "tight_rows": [i for i, s in enumerate(slacks) if s == 0],
            "slack_rows": [i for i, s in enumerate(slacks) if s != 0],
            "slacks": list(slacks),
        })
    return report


def _kernel_basis(rows, dim):
    """Exact rational kernel of the matrix with the given rows."""
    mat = [list(r) for r in rows]
    m = len(mat)
    pivots = []
    r = 0
    for c in range(dim):
        pr = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        v = [_ZERO] * dim
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -mat[ri][fc]
        basis.append(tuple(v))
    return basis


def extreme_rays_from_halfspaces(cone):
    """Extreme rays of {y : Ay >= 0}, assuming the cone is pointed.

    Enumerates the subsets of dim - 1 rows whose kernel is one-dimensional
    (a larger tight set of rank dim - 1 contains such a subset with the
    same kernel) and keeps the kernel direction (or its negation) that
    satisfies all halfspaces. Deduplicates up to positive scaling. Exact;
    feasible at dim <= 10.
    """
    if cone.dim > MAX_HULL_DIM:
        raise ConeError("dimension cap for hull computation")
    rows = cone.halfspaces
    found = {}
    for subset in itertools.combinations(range(len(rows)), cone.dim - 1):
        kern = _kernel_basis([rows[i] for i in subset], cone.dim)
        if len(kern) != 1:
            continue
        v = kern[0]
        for cand in (v, tuple(-x for x in v)):
            if all(s >= 0 for s in cone.evaluate(cand)) and any(x != 0 for x in cand):
                found[_normalize_ray(cand)] = cand
    return list(found.values())


def _normalize_ray(v):
    lead = next(x for x in v if x != 0)
    scale = abs(lead)
    return tuple(x / scale for x in v)


def in_conical_hull(point, rays):
    """Exact LP feasibility: point = nonnegative combination of rays."""
    n = len(rays)
    dim = len(point)
    rows = []
    for d in range(dim):
        rows.append(([Fraction(r[d]) for r in rays], "=", Fraction(point[d])))
    lp = make_lp("max", [0] * n, rows, nonneg=True)
    return solve_lp(lp).status == "optimal"


def cone_equals_hull(cone):
    """Both inclusions, exactly: listed rays inside the halfspace cone, and
    every extreme ray of the halfspace system inside the hull of the list.
    Once every listed ray is in the cone, an extreme ray is in their
    conical hull iff it is a positive multiple of one of them."""
    if not verify_rays(cone)["all_member"]:
        return False
    listed = {_normalize_ray(r) for r in cone.rays if any(x != 0 for x in r)}
    return all(_normalize_ray(ext) in listed for ext in extreme_rays_from_halfspaces(cone))


def constraint_matrix_determinant(cone):
    """Exact determinant of the halfspace matrix (square cones only)."""
    if len(cone.halfspaces) != cone.dim:
        raise ConeError("non-square constraint matrix")
    mat = [list(r) for r in cone.halfspaces]
    n = cone.dim
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pr is None:
            return _ZERO
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            det = -det
        det *= mat[c][c]
        pv = mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


# ---------------------------------------------------------------------------
# the union-of-even-cycles exponent LP
# ---------------------------------------------------------------------------

def union_exponent_lp(g_cycles, h_cycles, k):
    """C(G,H) for disjoint unions of edges/even cycles, via the cone LP.

    maximize -sum_{c in G} y_c subject to y in even_cycle_cone(k) and
    sum_{c in H} y_c = -1. Lengths are even, between 2 and 2k (2 = K_2).
    """
    if not h_cycles:
        raise ConeError("H must contain at least one cycle")
    for c in list(g_cycles) + list(h_cycles):
        if c % 2 != 0 or not (2 <= c <= 2 * k):
            raise ConeError(f"cycle length {c} not even in [2, {2 * k}]")
    cone = even_cycle_cone(k)
    obj = [_ZERO] * k
    for c in g_cycles:
        obj[c // 2 - 1] -= 1
    rows = [(list(row), ">=", _ZERO) for row in cone.halfspaces]
    norm = [_ZERO] * k
    for c in h_cycles:
        norm[c // 2 - 1] += 1
    rows.append((norm, "=", Fraction(-1)))
    lp = make_lp("max", obj, rows, nonneg=False)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise ConeError(f"union exponent LP is {sol.status}; modeling violation")
    return sol.optimum


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def cone_to_json(cone):
    return json.dumps({
        "dim": cone.dim,
        "coords": list(cone.coord_names),
        "halfspaces": [[frac_to_str(a) for a in row] for row in cone.halfspaces],
        "rays": {
            (cone.ray_names[i] if cone.ray_names else str(i)):
                [frac_to_str(a) for a in ray]
            for i, ray in enumerate(cone.rays)
        },
    })
