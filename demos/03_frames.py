"""Walkthrough: frames, points, spatiality, and the coherent isomorphisms.

For a distributive lattice L the ideal lattice Id(L) is a spatial frame whose
point space reproduces the Hochster-dual prime spectrum, and Id(L) itself is
the open-set lattice of that space.  M3 and N5 show what distributivity buys.
"""

from lattik.corpus import b2, m3, n5
from lattik.errors import NotAFrame
from lattik.frames import (
    as_frame,
    id_vs_omega_dual,
    is_spatial,
    points,
    pt_ideal_vs_hochster,
    support_union_map,
)
from lattik.ideals import all_ideals


def main():
    l = b2()
    idl = all_ideals(l)
    frame = as_frame(idl)
    print("Id(B2) is a frame on", list(frame.elements))

    pt = points(frame)
    print("\npoints of Id(B2):", list(pt.space.points))
    cert = is_spatial(frame)
    print("spatial:", cert.spatial, "(injective:", cert.injective,
          "surjective:", cert.surjective, ")")

    homeo = pt_ideal_vs_hochster(l)
    print("\nPt(Id(B2)) = Spc(B2)^v:", homeo.ok,
          " point map:", homeo.detail["point_map"])

    iso = id_vs_omega_dual(l)
    print("Id(B2) = Omega(Spc(B2)^v):", iso.ok, iso.detail)

    # non-distributive lattices fail at the very first step
    try:
        as_frame(m3())
    except NotAFrame as exc:
        print("\nM3 is not a frame:", exc)

    # and the support-union map collapses ideals
    for make, name in ((m3, "M3"), (n5, "N5")):
        idl, _, images = support_union_map(make())
        print(f"{name}: {len(idl)} ideals but only {len(set(images))} distinct "
              "open images -- not injective")


if __name__ == "__main__":
    main()
