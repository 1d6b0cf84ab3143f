"""Walkthrough: from a small lattice to its three spectra.

Builds the four-element Boolean lattice B2, lists its ideals and prime ideals,
and prints the ideal spectrum Sp, the prime spectrum Spc, and the Hochster
dual, each with its support sets.
"""

from lattik.corpus import b2, m3
from lattik.ideals import all_ideals, prime_masks
from lattik.order import dual, set_label
from lattik.topology import hochster_dual, sp_space, spc_space, specialization_order


def show_spectrum(title, spec):
    print(f"\n{title}")
    print(f"  points: {list(spec.space.points)}")
    print(f"  opens:  {[spec.space.subset_names(u) for u in spec.space.opens]}")
    for e, m in zip(spec.lattice.elements, spec.supp.sigma):
        print(f"  supp({e}) = {spec.space.subset_names(m)}")


def main():
    l = b2()
    print("lattice B2 on", list(l.elements))

    idl = all_ideals(l)
    print("\nideals:", list(idl.elements))
    print("prime ideals:", [set_label(l.elements, m) for m in prime_masks(l)])

    show_spectrum("Sp(B2) - all ideals, supp closed", sp_space(l))
    show_spectrum("Spc(B2) - prime ideals, supp closed", spc_space(l))
    show_spectrum("Spc(B2)^v - Hochster dual, supp open", hochster_dual(l))

    # the specialization order of Sp recovers ideal inclusion
    order = specialization_order(sp_space(l).space)
    print("\nspecialization order of Sp(B2) (covers):")
    for i in range(order.n):
        for j in range(order.n):
            if order.covers(i) >> j & 1:
                print(f"  {order.elements[i]} < {order.elements[j]}")

    # M3 has no prime ideals at all: its prime spectrum is empty
    print("\nprime ideals of M3:", prime_masks(m3()))
    print("Spc(M3) has", spc_space(m3()).space.n, "points")

    # and primes of the dual lattice are exactly the complements
    primes = set(prime_masks(l))
    dual_primes = set(prime_masks(dual(l)))
    print("\ncomplement duality on primes:", dual_primes == {l.full & ~m for m in primes})


if __name__ == "__main__":
    main()
