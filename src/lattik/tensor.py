"""Join-semilattices with a join-distributive tensor product and their radical ideals."""

from __future__ import annotations

import random

from .errors import (
    NotDistributiveOverJoin,
    SizeGuardExceeded,
    UnitLawFails,
    ZeroLawFails,
)
from .frames import id_vs_omega_dual
from .ideals import ideal_label, ideal_masks, is_ideal, join_irreducibles
from .order import (
    Certificate,
    SetLattice,
    bits,
    inclusion_isomorphism_failure,
    is_distributive,
)


class TensorLattice:
    """A finite join-semilattice with a validated multiplication and unit.

    The product must distribute over binary joins on both sides, absorb the
    bottom, and have the unit; it need not be commutative.  Associativity is
    not validated, but the tensor lemma and the classification assume it.
    """

    def __init__(self, base, product, unit):
        validate_tensor_axioms(base, product, unit)
        self.base = base
        self.product = tuple(tuple(row) for row in product)
        self.unit = unit

    @property
    def n(self):
        return self.base.n

    def tensor(self, a, b):
        return self.product[a][b]


def validate_tensor_axioms(base, product, unit):
    """Raise the first violated tensor axiom with a witness pair/triple.

    Monotonicity needs no check of its own: if b <= c, then
    a ⊗ c = a ⊗ (b ∨ c) = (a ⊗ b) ∨ (a ⊗ c) >= a ⊗ b, and likewise on the right.
    """
    n = base.n
    names = base.elements
    if len(product) != n or any(len(row) != n for row in product):
        raise ValueError("product table must be total over the carrier")
    z = base.bottom
    for a in range(n):
        if product[a][z] != z or product[z][a] != z:
            raise ZeroLawFails(
                f"{names[a]!r} does not absorb the bottom", witness=names[a]
            )
        if product[unit][a] != a or product[a][unit] != a:
            raise UnitLawFails(
                f"unit law fails at {names[a]!r}", witness=names[a]
            )
    for a in range(n):
        for b in range(n):
            for c in range(n):
                j = base.join[b][c]
                if product[a][j] != base.join[product[a][b]][product[a][c]]:
                    raise NotDistributiveOverJoin(
                        f"{names[a]!r} ⊗ ({names[b]!r} ∨ {names[c]!r}) fails",
                        witness=(names[a], names[b], names[c]),
                    )
                if product[j][a] != base.join[product[b][a]][product[c][a]]:
                    raise NotDistributiveOverJoin(
                        f"({names[b]!r} ∨ {names[c]!r}) ⊗ {names[a]!r} fails",
                        witness=(names[b], names[c], names[a]),
                    )


def is_radical_tensor_ideal(t, mask):
    """Ideal of the base, two-sided tensor-absorbing, and closed under square roots."""
    if not is_ideal(t.base, mask):
        return False
    for a in bits(mask):
        for b in range(t.n):
            if not mask >> t.product[a][b] & 1 or not mask >> t.product[b][a] & 1:
                return False
    for a in range(t.n):
        if mask >> t.product[a][a] & 1 and not mask >> a & 1:
            return False
    return True


def radical_closure(t, seeds):
    """Least radical tensor ideal containing the seeds, by fixpoint iteration.

    The four closure rules (downward, joins, two-sided absorption, radical)
    are applied until the member mask stabilizes; finiteness terminates it.
    """
    base = t.base
    mask = 1 << base.bottom
    for s in seeds:
        mask |= 1 << (base.index(s) if isinstance(s, str) else s)
    while True:
        new = mask
        for a in bits(mask):
            new |= base.down[a]
            for b in bits(mask):
                new |= 1 << base.join[a][b]
            for b in range(t.n):
                new |= 1 << t.product[a][b]
                new |= 1 << t.product[b][a]
        for a in range(t.n):
            if new >> t.product[a][a] & 1:
                new |= 1 << a
        if new == mask:
            return mask
        mask = new


def generated_ideal(t, a):
    """The radical tensor ideal generated by a single element."""
    return radical_closure(t, [a])


def radical_masks(t):
    """Masks of the radical tensor ideals, in ideal_masks order."""
    return [m for m in ideal_masks(t.base) if is_radical_tensor_ideal(t, m)]


def all_radical_tensor_ideals(t):
    """All radical tensor ideals, as (masks, bounded lattice ordered by inclusion).

    SetLattice checks only that inclusion makes a lattice.  Its meet is the
    intersection and its join is the least radical tensor ideal above both,
    which is the radical closure of the union; this function certifies
    neither description, the tests check the join.
    """
    masks = radical_masks(t)
    return masks, SetLattice(masks, lambda m: ideal_label(t.base, m)).lattice


class QuotientFormulaError(ValueError):
    """[a]∨[b] ≠ [a∨b] (formula "join") or [a]∧[b] ≠ [a⊗b] ("meet") at a pair."""

    def __init__(self, formula, a, b):
        self.reason = f"quotient {formula} formula fails"
        self.pair = (a, b)
        super().__init__(f"{self.reason} at ({a}, {b})")


def quotient_lattice(t):
    """L(⊗): the distinct generated ideals ⟨a⟩ ordered by inclusion.

    Returns (lattice, projection) where projection[a] is the quotient index
    of ⟨a⟩.  Certifies [a]∨[b] = [a∨b] and [a]∧[b] = [a⊗b]; raises
    QuotientFormulaError at the first pair (a, b) where one fails.
    """
    gen = [generated_ideal(t, a) for a in range(t.n)]

    def label(m):
        return "[" + "=".join(t.base.elements[a] for a in range(t.n) if gen[a] == m) + "]"

    classes = SetLattice(set(gen), label)
    lattice = classes.lattice
    projection = [classes.index_of_mask(g) for g in gen]
    # join and meet of classes are realized by ∨ and ⊗ on representatives
    for a in range(t.n):
        for b in range(t.n):
            ja = projection[a]
            jb = projection[b]
            if lattice.join[ja][jb] != projection[t.base.join[a][b]]:
                raise QuotientFormulaError("join", t.base.elements[a], t.base.elements[b])
            if lattice.meet[ja][jb] != projection[t.product[a][b]]:
                raise QuotientFormulaError("meet", t.base.elements[a], t.base.elements[b])
    return lattice, tuple(projection)


def check_tensor_lemma(t):
    """Verify ⟨a⟩ ∩ ⟨b⟩ = ⟨a ⊗ b⟩ for every pair; emit the witness on failure.

    The lemma assumes an associative product; a non-associative one can fail.
    """
    gen = [generated_ideal(t, a) for a in range(t.n)]
    for a in range(t.n):
        for b in range(t.n):
            lhs = gen[a] & gen[b]
            rhs = gen[t.product[a][b]]
            if lhs != rhs:
                return Certificate(
                    False,
                    {
                        "witness": (t.base.elements[a], t.base.elements[b]),
                        "intersection": t.base.subset_names(lhs),
                        "generated": t.base.subset_names(rhs),
                    },
                )
    return Certificate(True, {"pairs": t.n * t.n})


def check_classification(t):
    """Certify the classification chain for one tensor lattice.

    (i) L(⊗) is distributive; (ii) Id(L(⊗)) is isomorphic to the lattice of
    radical tensor ideals via I ↦ {a : [a] in I}, with inverse
    S ↦ {[a] : a in S}; (iii) composing with the open-set description,
    radical tensor ideals ≅ Ω(Spc(L(⊗))^v).  The chain is stated for an
    associative product; without associativity the quotient formulas can
    fail, and the certificate then reports that failure.
    """
    try:
        lattice, projection = quotient_lattice(t)
    except QuotientFormulaError as exc:
        return Certificate(False, {"reason": exc.reason, "pair": list(exc.pair)})
    if not is_distributive(lattice):
        return Certificate(False, {"reason": "quotient is not distributive"})

    def members(ideal):
        return sum(1 << a for a in range(t.n) if ideal >> projection[a] & 1)

    def classes(radical):
        mask = 0
        for a in bits(radical):
            mask |= 1 << projection[a]
        return mask

    radicals = radical_masks(t)
    reason = inclusion_isomorphism_failure(
        ideal_masks(lattice), radicals, members, classes
    )
    if reason is not None:
        return Certificate(False, {"reason": reason})
    omega_cert = id_vs_omega_dual(lattice)
    if not omega_cert.ok:
        return Certificate(
            False, {"reason": "open-set description fails", **omega_cert.detail}
        )
    return Certificate(
        True,
        {
            "quotient_size": lattice.n,
            "radical_ideal_count": len(radicals),
        },
    )


def is_associative(t):
    """True iff (a ⊗ b) ⊗ c = a ⊗ (b ⊗ c) for all triples.

    The tensor lemma and the classification assume it: ``lattik --seed 16
    classify --fuzz 2789`` draws a non-associative product on which the
    quotient meet formula fails.
    """
    for a in range(t.n):
        for b in range(t.n):
            for c in range(t.n):
                if t.product[t.product[a][b]][c] != t.product[a][t.product[b][c]]:
                    return False
    return True


def random_tensor_lattice(base, rng):
    """Draw a candidate tensor structure on the given semilattice, or None.

    Values are drawn on pairs of join-irreducibles and extended by the join
    decomposition; the full axiom set is then validated, rejecting the draw
    on any failure.  The bias keeps the acceptance rate workable.
    """
    n = base.n
    ji = join_irreducibles(base)
    unit = rng.randrange(n)
    t = {}
    for i in ji:
        for j in ji:
            t[i, j] = rng.randrange(n)
    product = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == unit:
                product[a][b] = b
                continue
            if b == unit:
                product[a][b] = a
                continue
            img = 0
            for i in ji:
                if not base.leq(i, a):
                    continue
                for j in ji:
                    if base.leq(j, b):
                        img |= 1 << t[i, j]
            product[a][b] = base.join_of_mask(img)
    try:
        return TensorLattice(base, product, unit)
    except (NotDistributiveOverJoin, UnitLawFails, ZeroLawFails):
        return None


def fuzz_tensor_lattices(bases, seed, count, max_draws=None):
    """Yield `count` valid tensor lattices fuzzed over the given semilattices.

    Deterministic for a fixed seed and base order.  Raises SizeGuardExceeded
    if the draw budget runs out before enough valid structures appear.
    """
    rng = random.Random(seed)
    bases = list(bases)
    budget = max_draws if max_draws is not None else count * 10_000
    produced = 0
    draws = 0
    while produced < count:
        if draws >= budget:
            raise SizeGuardExceeded(
                f"fuzzing produced only {produced} valid structures in {draws} draws"
            )
        base = bases[rng.randrange(len(bases))]
        draws += 1
        t = random_tensor_lattice(base, rng)
        if t is not None:
            produced += 1
            yield t
