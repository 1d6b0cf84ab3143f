"""Walkthrough: tensor lattices, radical ideals, and the classification.

A tensor lattice is a join-semilattice with a unital, zero-absorbing product
distributing over joins on both sides.  Radical tensor ideals satisfy
<a> n <b> = <a x b>, the quotient L(x) is distributive, and its ideal lattice
classifies the radical tensor ideals.
"""

from lattik.corpus import b2, chain, lattice_corpus
from lattik.tensor import (
    TensorLattice,
    all_radical_tensor_ideals,
    check_classification,
    check_tensor_lemma,
    fuzz_tensor_lattices,
    generated_ideals,
    quotient_lattice,
)


def nilpotent_c3():
    l = chain(3)
    z, m, u = l.index("0"), l.index("m1"), l.index("1")
    product = [[z] * 3 for _ in range(3)]
    for a in range(3):
        product[u][a] = a
        product[a][u] = a
    product[m][m] = z
    return TensorLattice(l, product, u)


def tour(name, t):
    print(f"\n=== {name} ===")
    base = t.base
    for a, ideal in enumerate(generated_ideals(t)):
        members = base.subset_names(ideal)
        print(f"  <{base.elements[a]}> = {{{','.join(members)}}}")
    lattice = all_radical_tensor_ideals(t)
    print("  radical tensor ideals:", [lattice.elements[i] for i in range(lattice.n)])
    quotient, projection = quotient_lattice(t)
    print("  quotient L(x):", list(quotient.elements))
    print("  tensor lemma:", check_tensor_lemma(t).ok)
    print("  classification:", check_classification(t).to_json())


def main():
    l = b2()
    tour("B2 with x = meet, unit = top", TensorLattice(l, l.meet, l.top))
    tour("nilpotent chain: m x m = 0", nilpotent_c3())

    # fuzzed structures: random valid tensor products over small semilattices
    print("\n=== fuzzing ===")
    count = 0
    for t in fuzz_tensor_lattices(lattice_corpus(4), seed=42, count=200):
        assert check_tensor_lemma(t).ok
        assert check_classification(t).ok
        count += 1
    print(f"checked {count} fuzzed tensor lattices: lemma and classification hold")


if __name__ == "__main__":
    main()
