import json
from fractions import Fraction

import pytest

from homdom.cones import (
    Cone,
    ConeError,
    all_cycle_cone,
    cone_equals_hull,
    cone_to_json,
    constraint_matrix_determinant,
    even_cycle_cone,
    even_cycle_expected_slack_row,
    even_cycle_ray,
    extreme_rays_from_halfspaces,
    in_conical_hull,
    union_exponent_lp,
    verify_rays,
)
from homdom.formulas import even_cycle_exponent


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
        # each listed ray is tight on all rows but exactly one
        for k in range(2, 7):
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
        bad_ray = (Fraction(-1), Fraction(-4), Fraction(-7))
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
        doc = json.loads(cone_to_json(all_cycle_cone(2)))
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
