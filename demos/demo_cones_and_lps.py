"""Cycle tropicalization cones and exact rational LPs.

The valid pure binomial inequalities among even-cycle densities form a
polyhedral cone. This script prints the cone for {C_2, C_4, C_6}, checks
that the listed generator rays are exactly the extreme rays, and then
derives cross-cycle exponents as cone LP optima, each the best ratio
over the cone's certified rays. It finishes with the
entropy-style LP family whose optimum 2i-1 is certified by an explicit
dual combination.

Run:  python3 demos/demo_cones_and_lps.py
"""
from homdom import even_cycle_cone, union_exponent_lp
from homdom.cones import cone_equals_hull, verify_rays
from homdom.ratlp import check_kr_certificate, kr_lp, solve_lp


def main():
    cone = even_cycle_cone(3)
    print("cone for (y2, y4, y6) = log densities of (K2, C4, C6):")
    for row in cone.halfspaces:
        terms = " + ".join(f"{c}*{n}" for c, n in zip(row, cone.coord_names)
                           if c != 0)
        print(f"  {terms} >= 0")
    print("generator rays:")
    for name, ray in zip(cone.ray_names, cone.rays):
        print(f"  {name} = {ray}")
    print(f"all rays inside the cone: {verify_rays(cone)['all_member']}")
    print(f"cone equals the conical hull of the rays: {cone_equals_hull(cone)}\n")

    print("exponents recovered as cone LPs:")
    for g, h, k in (([6], [4], 3), ([4, 4], [2], 2), ([4], [6], 3)):
        val = union_exponent_lp(g, h, k)
        gs = " ".join(f"C{c}" for c in g)
        hs = " ".join(f"C{c}" for c in h)
        print(f"  C({gs}, {hs}) = {val}")

    print("\nentropy-style LP family (minimize z over 16 exact rows):")
    for i in (2, 3, 4, 5):
        lp = kr_lp(i)
        sol = solve_lp(lp)
        cert = check_kr_certificate(i, lp)
        print(f"  i={i}: optimum = {sol.optimum} (expect {2 * i - 1}), "
              f"dual certificate verified: {cert}")


if __name__ == "__main__":
    main()
