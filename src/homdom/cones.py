"""Tropicalization cones for cycle density/number profiles.

even_cycle_cone(k) is the proven cone for {C_2, C_4, ..., C_2k} in
log-density coordinates; all_cycle_cone(m) is the conjectured cone for
{C_2, C_3, ..., C_2m} in log-hom-number coordinates. Both come with
explicit generator rays and exact verification utilities.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul

from .graphs import HomdomError
from .ratlp import bareiss_pivot, make_lp, solve_lp


class ConeError(HomdomError):
    pass


MAX_HULL_DIM = 10
# all_cycle_cone(m) has O(m^2) rows of dimension 2m - 1; cone --all 60 takes about 0.6 s
MAX_ALL_CYCLE_M = 60


@dataclass(frozen=True)
class Cone:
    """Integer halfspace rows a with meaning a.y >= 0, plus listed integer
    generator rays."""

    dim: int
    halfspaces: tuple  # tuple of int tuples
    rays: tuple        # tuple of int tuples
    coord_names: tuple = ()
    ray_names: tuple = ()

    def __post_init__(self):
        for row in self.halfspaces:
            _check_ints(row, self.dim, "halfspace")
        for ray in self.rays:
            _check_ints(ray, self.dim, "ray")

    @cached_property
    def _sparse_halfspaces(self):
        """Each halfspace row as its (index, coefficient) pairs with a nonzero
        coefficient; all_cycle_cone rows have at most three."""
        return tuple(tuple((i, a) for i, a in enumerate(row) if a) for row in self.halfspaces)

    def evaluate(self, y):
        """Exact int slack a.y per halfspace, at the int point y."""
        _check_ints(y, self.dim, "point")
        return tuple(sum(a * y[i] for i, a in row) for row in self._sparse_halfspaces)


def _check_ints(v, dim, what):
    """ConeError unless v has dim entries, each an int (not a bool)."""
    if len(v) != dim:
        raise ConeError(f"{what} dimension mismatch")
    if not all(type(x) is int for x in v):
        raise ConeError(f"{what} entries must be ints, got {tuple(v)!r}")


def _vec(dim, entries):
    v = [0] * dim
    for idx, val in entries.items():
        v[idx] += val
    return tuple(v)


# ---------------------------------------------------------------------------
# even cycles: coordinates (y_2, y_4, ..., y_2k), log densities
# ---------------------------------------------------------------------------

def even_cycle_ray_entry(i, j):
    """Coordinate y_2j of ray r_i: -i-(j-1)(2i+1) for j <= i+1, else -2ij."""
    return -i - (j - 1) * (2 * i + 1) if j <= i + 1 else -2 * i * j


def even_cycle_ray(i, k):
    """Ray r_i of even_cycle_cone(k), for 1 <= i <= k-1."""
    if not (1 <= i <= k - 1):
        raise ConeError("ray index out of range")
    return tuple(even_cycle_ray_entry(i, j) for j in range(1, k + 1))


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
    rays.append(tuple(-j for j in range(1, k + 1)))
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
    if m > MAX_ALL_CYCLE_M:
        raise ConeError(f"all-cycle cone capped at m={MAX_ALL_CYCLE_M}, got {m}")
    dim = 2 * m - 1
    rows = []
    for i in range(2, m):
        rows.append(_vec(dim, {_all_coord(2 * i - 2): 1, _all_coord(2 * i): -2,
                               _all_coord(2 * i + 2): 1}))
    for i in range(1, m):
        rows.append(_vec(dim, {_all_coord(2 * i): 1, _all_coord(2 * i + 1): -2,
                               _all_coord(2 * i + 2): 1}))
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
    for i in range(2, m):
        rows.append(_vec(dim, {_all_coord(2 * i - 1): -1, _all_coord(2 * i + 1): 1}))
    rows.append(_vec(dim, {_all_coord(3): 1}))
    rows.append(_vec(dim, {_all_coord(3): -1, _all_coord(4): 1}))
    rows.append(_vec(dim, {_all_coord(2): -1, _all_coord(4): 1}))
    rows.append(_vec(dim, {_all_coord(2 * m - 2): m, _all_coord(2 * m): -(m - 1)}))

    rays = []
    rnames = []
    for i in range(1, m + 1):
        cutoff = 2 * i + 1
        r = tuple(0 if (j % 2 == 1 and j < cutoff) else j for j in range(2, 2 * m + 1))
        s = tuple(0 if (j % 2 == 1 and j < cutoff) else 1 for j in range(2, 2 * m + 1))
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
    """Exact membership report for every listed ray, with its slack on each row."""
    report = {"all_member": True, "rays": []}
    for idx, ray in enumerate(cone.rays):
        slacks = cone.evaluate(ray)
        member = all(s >= 0 for s in slacks)
        report["all_member"] = report["all_member"] and member
        report["rays"].append({
            "name": cone.ray_names[idx] if cone.ray_names else str(idx),
            "member": member,
            "slack_rows": [i for i, s in enumerate(slacks) if s != 0],
            "slacks": list(slacks),
        })
    return report


def _eliminate(rows, dim):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss).

    Returns (mat, pivots, det). Row i < len(pivots) of mat has the same
    nonzero entry d on its pivot column pivots[i], zeros on the other pivot
    columns, and the rows below are zero; d is the leading minor of the
    pivot block and det is d signed by the row swaps, so det is the
    determinant when the matrix is square and of full rank. Each pivot is
    one ratlp.bareiss_pivot.
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    pivots = []
    d, sign = 1, 1
    for c in range(dim):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if mat[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
            sign = -sign
        d = bareiss_pivot(mat, r, c, d)
        pivots.append(c)
    return mat, pivots, sign * d


def _kernel_basis(rows, dim):
    """Exact kernel of the integer matrix with the given rows, as primitive
    integer vectors, each positive on its free coordinate."""
    mat, pivots, _ = _eliminate(rows, dim)
    d = mat[0][pivots[0]] if pivots else 1
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        # reduced row i reads d*x[pivots[i]] + sum_f mat[i][f]*x[f] = 0
        v = [0] * dim
        v[fc] = d
        for ri, pc in enumerate(pivots):
            v[pc] = -mat[ri][fc]
        basis.append(_primitive(v if d > 0 else [-x for x in v]))
    return basis


def check_hull_dim(dim):
    """Refuse a hull computation in more than MAX_HULL_DIM dimensions."""
    if dim > MAX_HULL_DIM:
        raise ConeError("dimension cap for hull computation")


def extreme_rays_from_halfspaces(cone):
    """Extreme rays of the pointed cone {y : Ay >= 0}, as primitive integer
    vectors; ConeError when the rows have rank below dim (not pointed).

    Enumerates the subsets of dim - 1 rows whose kernel is one-dimensional
    (a larger tight set of rank dim - 1 contains such a subset with the
    same kernel) and keeps the kernel direction (or its negation) that
    satisfies all halfspaces. Exact; feasible at dim <= 10.
    """
    check_hull_dim(cone.dim)
    rows = cone.halfspaces
    if len(_eliminate(rows, cone.dim)[1]) < cone.dim:
        raise ConeError("cone is not pointed")
    found = {}
    for subset in itertools.combinations(rows, cone.dim - 1):
        kern = _kernel_basis(subset, cone.dim)
        if len(kern) != 1:
            continue
        v = kern[0]
        for cand in (v, tuple(-x for x in v)):
            if all(sum(map(mul, row, cand)) >= 0 for row in rows):
                found[cand] = None
    return list(found)


def _primitive(v):
    """The primitive integer vector on the ray of the nonzero int vector v."""
    g = gcd(*v)
    return tuple(x // g for x in v)


def in_conical_hull(point, rays):
    """Exact LP feasibility: point = nonnegative combination of rays."""
    n = len(rays)
    dim = len(point)
    rows = []
    for d in range(dim):
        rows.append(([r[d] for r in rays], "=", point[d]))
    lp = make_lp("max", [0] * n, rows, nonneg=True)
    return solve_lp(lp).status == "optimal"


def cone_equals_hull(cone):
    """Both inclusions, exactly: listed rays inside the halfspace cone, and
    every extreme ray of the halfspace system inside the hull of the list.
    Once every listed ray is in the cone, an extreme ray is in their
    conical hull iff it is a positive multiple of one of them."""
    if not verify_rays(cone)["all_member"]:
        return False
    listed = {_primitive(r) for r in cone.rays if any(x != 0 for x in r)}
    return all(ext in listed for ext in extreme_rays_from_halfspaces(cone))


def constraint_matrix_determinant(cone):
    """Exact determinant of the halfspace matrix (square cones only)."""
    if len(cone.halfspaces) != cone.dim:
        raise ConeError("non-square constraint matrix")
    _, pivots, det = _eliminate(cone.halfspaces, cone.dim)
    return det if len(pivots) == cone.dim else 0


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def cone_to_data(cone):
    return {
        "dim": cone.dim,
        "coords": list(cone.coord_names),
        "halfspaces": [[str(a) for a in row] for row in cone.halfspaces],
        "rays": {
            (cone.ray_names[i] if cone.ray_names else str(i)): [str(a) for a in ray]
            for i, ray in enumerate(cone.rays)
        },
    }
