import itertools
import random
from fractions import Fraction

import pytest

from homdom.cones import (
    Cone,
    ConeError,
    all_cycle_cone,
    cone_equals_hull,
    cone_to_data,
    constraint_matrix_determinant,
    even_cycle_cone,
    even_cycle_expected_slack_row,
    even_cycle_ray,
    extreme_rays_from_halfspaces,
    in_conical_hull,
    verify_rays,
)
from homdom.formulas import even_cycle_exponent, union_exponent_lp

ZERO = Fraction(0)


def fraction_kernel_basis(rows, dim):
    """Reference kernel: Gauss-Jordan on Fractions, one vector per free
    column with a 1 there."""
    mat = [[Fraction(a) for a in r] for r in rows]
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
        v = [ZERO] * dim
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -mat[ri][fc]
        basis.append(tuple(v))
    return basis


def fraction_normalize_ray(v):
    lead = next(x for x in v if x != 0)
    return tuple(Fraction(x) / abs(lead) for x in v)


def fraction_slacks(cone, y):
    return tuple(sum(a * v for a, v in zip(row, y)) for row in cone.halfspaces)


def fraction_extreme_rays(cone):
    """Reference hull: the kernel of every (dim - 1)-subset of rows, on
    Fractions, keyed by the ray scaled to a leading entry of +-1."""
    rows = cone.halfspaces
    found = set()
    for subset in itertools.combinations(rows, cone.dim - 1):
        kern = fraction_kernel_basis(subset, cone.dim)
        if len(kern) != 1:
            continue
        for cand in (kern[0], tuple(-x for x in kern[0])):
            if all(s >= 0 for s in fraction_slacks(cone, cand)):
                found.add(fraction_normalize_ray(cand))
    return found


def fraction_determinant(rows):
    """Reference determinant: Gaussian elimination on Fractions."""
    mat = [[Fraction(a) for a in r] for r in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pr is None:
            return ZERO
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


def assert_exact_ints(rays):
    assert all(type(x) is int for ray in rays for x in ray), rays


class TestEvenCycleCone:
    def test_golden_k3(self):
        cone = even_cycle_cone(3)
        assert cone.dim == 3
        assert cone.halfspaces == (
            (1, -2, 1),
            (0, 6, -4),
            (-6, 0, 1),
        )
        assert cone.rays == (
            (-1, -4, -6),
            (-2, -7, -12),
            (-1, -2, -3),
        )

    def test_ray_formula(self):
        assert even_cycle_ray(1, 3) == (-1, -4, -6)
        assert even_cycle_ray(2, 3) == (-2, -7, -12)
        with pytest.raises(ConeError):
            even_cycle_ray(3, 3)

    def test_tightness_pattern(self):
        # each listed ray, built from its closed form, lies in the cone and is
        # tight on all rows but exactly one: the proof union_exponent_lp rests on
        for k in range(2, 61):
            cone = even_cycle_cone(k)
            report = verify_rays(cone)
            assert report["all_member"]
            for idx, entry in enumerate(report["rays"]):
                expected = even_cycle_expected_slack_row(idx, k)
                assert entry["slack_rows"] == [expected], (k, entry)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_nonsingular(self, k):
        assert constraint_matrix_determinant(even_cycle_cone(k)) != 0

    @pytest.mark.parametrize("k", range(2, 7))
    def test_cone_equals_hull(self, k):
        assert cone_equals_hull(even_cycle_cone(k))

    def test_corrupted_cone_fails(self):
        # negative control: flipping one ray coordinate breaks equality
        cone = even_cycle_cone(3)
        bad_ray = (-1, -4, -7)
        bad = Cone(cone.dim, cone.halfspaces, (cone.rays[0], cone.rays[1],
                                               bad_ray),
                   cone.coord_names, cone.ray_names)
        assert not cone_equals_hull(bad)

    def test_listed_rays_up_to_scaling(self):
        # a listed ray scaled by 3, or an extra listed ray inside the cone
        # that is not extreme, leaves the conical hull unchanged
        cone = even_cycle_cone(4)
        scaled = (tuple(3 * x for x in cone.rays[0]),) + cone.rays[1:]
        extra = cone.rays + (tuple(a + b for a, b in zip(cone.rays[0], cone.rays[-1])),)
        for rays in (scaled, extra):
            assert cone_equals_hull(Cone(cone.dim, cone.halfspaces, rays))
        assert not cone_equals_hull(Cone(cone.dim, cone.halfspaces, cone.rays[1:]))

    def test_extreme_ray_count(self):
        # a simplicial cone in dim k has exactly k extreme rays
        for k in (2, 3, 4):
            assert len(extreme_rays_from_halfspaces(even_cycle_cone(k))) == k

    def test_small_k(self):
        with pytest.raises(ConeError):
            even_cycle_cone(1)


class TestFractionOracle:
    """The integer elimination against the Fraction code it replaced."""

    CONES = [even_cycle_cone(k) for k in range(2, 11)] + [all_cycle_cone(m) for m in (2, 3, 4)]

    @pytest.mark.parametrize("cone", CONES, ids=lambda c: f"dim{c.dim}-rows{len(c.halfspaces)}")
    def test_extreme_rays(self, cone):
        rays = extreme_rays_from_halfspaces(cone)
        assert_exact_ints(rays)
        assert len(set(rays)) == len(rays)
        assert {fraction_normalize_ray(r) for r in rays} == fraction_extreme_rays(cone)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_determinant(self, k):
        cone = even_cycle_cone(k)
        assert constraint_matrix_determinant(cone) == fraction_determinant(cone.halfspaces)

    def test_random_matrices(self):
        # random integer matrices, singular ones included; slacks at integer points
        rng = random.Random(5)
        singular = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = tuple(tuple(rng.randint(-3, 3) if rng.random() < 0.7 else 0
                               for _ in range(n)) for _ in range(n))
            cone = Cone(n, rows, ())
            det = constraint_matrix_determinant(cone)
            assert type(det) is int and det == fraction_determinant(rows)
            singular += det == 0
            y = tuple(rng.randint(-5, 5) for _ in range(n))
            assert cone.evaluate(y) == fraction_slacks(cone, y)
        assert singular > 0

    def test_sparse_slacks_match_the_dense_product(self):
        # evaluate sums only each row's nonzero entries; rows of every
        # density, all-zero rows and negative entries and points included
        rng = random.Random(11)
        zero_rows = 0
        for _ in range(300):
            dim = rng.randint(1, 8)
            rows = tuple(tuple(rng.randint(-9, 9) if rng.random() < density else 0
                               for _ in range(dim))
                         for density in [rng.choice((0, 0.2, 0.5, 1)) for _ in range(6)])
            zero_rows += sum(not any(row) for row in rows)
            cone = Cone(dim, rows, ())
            for _ in range(3):
                y = tuple(rng.randint(-20, 20) for _ in range(dim))
                got = cone.evaluate(y)
                assert got == tuple(sum(a * v for a, v in zip(row, y)) for row in rows)
                assert all(type(s) is int for s in got)
        assert zero_rows > 0

    @pytest.mark.parametrize("m", (2, 5))
    def test_slacks(self, m):
        cone = all_cycle_cone(m)
        report = verify_rays(cone)
        for ray, entry in zip(cone.rays, report["rays"]):
            assert tuple(entry["slacks"]) == fraction_slacks(cone, ray)


class TestExactRays:
    def test_int_and_fraction_rows_agree(self):
        # x >= 0, -x >= 0, y >= 0: the one extreme ray is (0, 1); int rows
        # gave (0.0, 1) through true division before
        rows = ((1, 0), (-1, 0), (0, 1))
        as_ints = extreme_rays_from_halfspaces(Cone(2, rows, ((0, 1),)))
        assert as_ints == [(0, 1)]
        assert_exact_ints(as_ints)

    def test_scaled_rows_same_rays(self):
        cone = even_cycle_cone(4)
        scaled = tuple(tuple(a * (2 + i) for a in r) for i, r in enumerate(cone.halfspaces))
        assert extreme_rays_from_halfspaces(Cone(4, scaled, cone.rays)) == \
            extreme_rays_from_halfspaces(cone)
        assert cone_equals_hull(Cone(4, scaled, cone.rays))

    def test_float_entries_rejected(self):
        for bad in (0.5, 1.0, Fraction(1), True):
            with pytest.raises(ConeError, match="halfspace entries must be ints"):
                Cone(2, ((bad, 1),), ())
            with pytest.raises(ConeError, match="ray entries must be ints"):
                Cone(2, ((1, 0),), ((1, bad),))
            with pytest.raises(ConeError, match="point entries must be ints"):
                Cone(2, ((1, 0),), ()).evaluate((bad, 1))

    @pytest.mark.parametrize("call, what", [
        (lambda: Cone(2, ((1, 0, 0),), ()), "halfspace"),
        (lambda: Cone(2, ((1, 0),), ((1,),)), "ray"),
        (lambda: Cone(2, ((1, 0),), ()).evaluate((1, 0, 0)), "point"),
    ])
    def test_dimension_mismatch_rejected(self, call, what):
        with pytest.raises(ConeError, match=f"^{what} dimension mismatch$"):
            call()

    def test_not_pointed(self):
        # (0, 1, 0) lies in the cone x >= 0 but is no multiple of (1, 0, 0)
        cone = Cone(3, ((1, 0, 0),), ((1, 0, 0),))
        with pytest.raises(ConeError, match="cone is not pointed"):
            cone_equals_hull(cone)
        with pytest.raises(ConeError, match="cone is not pointed"):
            extreme_rays_from_halfspaces(Cone(2, ((1, 1), (-1, -1)), ()))


class TestAllCycleCone:
    def test_dimensions(self):
        for m in (2, 3, 4):
            cone = all_cycle_cone(m)
            assert cone.dim == 2 * m - 1
            assert len(cone.rays) == 2 * m

    @pytest.mark.parametrize("m", range(2, 6))
    def test_rays_member(self, m):
        assert verify_rays(all_cycle_cone(m))["all_member"]

    def test_ray_shapes(self):
        cone = all_cycle_cone(3)
        names = dict(zip(cone.ray_names, cone.rays))
        # r_c zeroes the odd coordinates below c; elsewhere r is the index
        # vector and s is all ones
        assert names["r3"] == (2, 3, 4, 5, 6)
        assert names["s3"] == (1, 1, 1, 1, 1)
        assert names["r5"] == (2, 0, 4, 5, 6)
        assert names["s7"] == (1, 0, 1, 0, 1)

    def test_literal_variant_differs(self):
        repaired = all_cycle_cone(4)
        literal = all_cycle_cone(4, literal_text=True)
        assert repaired.halfspaces != literal.halfspaces
        # the repaired mixed rows accept the listed rays; the literal text
        # version rejects at least one of them
        assert verify_rays(repaired)["all_member"]
        assert not verify_rays(literal)["all_member"]

    def test_json(self):
        doc = cone_to_data(all_cycle_cone(2))
        assert doc["dim"] == 3
        assert doc["coords"] == ["y2", "y3", "y4"]
        assert set(doc["rays"]) == {"r3", "s3", "r5", "s5"}


class TestUnionExponentLP:
    def test_golden(self):
        assert union_exponent_lp([6], [4], 3) == Fraction(12, 7)
        assert union_exponent_lp([4, 4], [2], 2) == 8
        assert union_exponent_lp([4], [6], 3) == Fraction(2, 3)
        assert union_exponent_lp([4, 6], [2], 3) == 10

    def test_matches_formula_all_even_pairs(self):
        for a in range(1, 6):
            for b in range(1, 6):
                k = max(a, b, 2)
                lp_val = union_exponent_lp([2 * a], [2 * b], k)
                assert lp_val == even_cycle_exponent(a, 2 * b), (a, b)

    def test_single_edge_vector(self):
        # normalizing on K_2 makes the optimizer sit on the s ray
        cone = even_cycle_cone(3)
        s = cone.rays[-1]
        assert in_conical_hull(s, [s])
        assert union_exponent_lp([2], [2], 3) == 1

    def test_bad_inputs(self):
        with pytest.raises(ConeError):
            union_exponent_lp([3], [2], 3)
        with pytest.raises(ConeError):
            union_exponent_lp([2], [], 3)
        with pytest.raises(ConeError):
            union_exponent_lp([8], [2], 3)
