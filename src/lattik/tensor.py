"""Finite lattices with a join-distributive tensor product and their radical ideals."""

from __future__ import annotations

import random

from .errors import (
    NotDistributiveOverJoin,
    SizeGuardExceeded,
    UnitLawFails,
    ZeroLawFails,
)
from .frames import id_vs_omega_dual
from .ideals import ideal_masks, is_ideal, join_irreducibles
from .order import (
    Certificate,
    SetLattice,
    bits,
    inclusion_isomorphism_failure,
    is_distributive,
    set_label,
)


class TensorLattice:
    """A finite bounded lattice with a validated multiplication and unit.

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

    Join-distributivity is tested at b < c only: both sides are symmetric in b
    and c and b = c never fails, so a scan of all triples meets each failure
    first at b < c, and would raise the same exception, message and witness.
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
    join = base.join
    for a in range(n):
        pa = product[a]
        qa = [row[a] for row in product]
        for b in range(n):
            for c in range(b + 1, n):
                j = join[b][c]
                if pa[j] != join[pa[b]][pa[c]]:
                    raise NotDistributiveOverJoin(
                        f"{names[a]!r} ⊗ ({names[b]!r} ∨ {names[c]!r}) fails",
                        witness=(names[a], names[b], names[c]),
                    )
                if qa[j] != join[qa[b]][qa[c]]:
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


def _closer(t):
    """The radical closure of a member mask, with the tables of t built once."""
    base = t.base
    # absorb[a]: every a ⊗ b and b ⊗ a; roots[c]: every a with a ⊗ a = c
    absorb, roots = [0] * t.n, [0] * t.n
    for a, row in enumerate(t.product):
        for b, c in enumerate(row):
            absorb[a] |= 1 << c
            absorb[b] |= 1 << c
        roots[row[a]] |= 1 << a

    def close(mask):
        while True:
            new = mask
            for a in bits(mask):
                new |= absorb[a]
            new = base.down[base.join_of_mask(new)]
            for c in bits(new):
                new |= roots[c]
            if new == mask:
                return mask
            mask = new

    return close


def radical_closure(t, seeds):
    """Least radical tensor ideal containing the seeds, by fixpoint iteration.

    Each round adds the members' products on both sides, then takes the least
    ideal above them: ↓ of their join, as an ideal holds the join of its members
    and every ↓m is an ideal.  It then adds every a with a ⊗ a in it.  A round
    adds only what each radical tensor ideal above the seeds holds, and a mask
    it keeps is such an ideal, so the fixpoint is the least.
    """
    base = t.base
    mask = 1 << base.bottom
    for s in seeds:
        mask |= 1 << (base.index(s) if isinstance(s, str) else s)
    return _closer(t)(mask)


def generated_ideals(t):
    """The radical tensor ideals ⟨a⟩ generated by each single element a."""
    close = _closer(t)
    return [close(1 << a) for a in range(t.n)]


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
    return masks, SetLattice(masks, lambda m: set_label(t.base.elements, m))


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
    gen = generated_ideals(t)

    def label(m):
        return "[" + "=".join(t.base.elements[a] for a in range(t.n) if gen[a] == m) + "]"

    lattice = SetLattice(set(gen), label)
    projection = [lattice.index_of_mask(g) for g in gen]
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
    gen = generated_ideals(t)
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
    p = t.product
    for pa in p:
        for b, ab in enumerate(pa):
            for ab_c, b_c in zip(p[ab], p[b]):  # (a ⊗ b) ⊗ c and b ⊗ c
                if ab_c != pa[b_c]:
                    return False
    return True


def random_tensor_lattice(base, rng):
    """Draw a candidate tensor structure on the given lattice, or None.

    The unit is drawn first, then a value at each pair (i, j) of
    join-irreducibles, i outer and j inner, an order the fuzz stream rests on.
    Both factors extend by their join decomposition: row[i][b] joins the values
    at (i, j) over j <= b, and a ⊗ b joins row[i][b] over i <= a.  Any failure
    of the axioms rejects the draw.
    """
    n = base.n
    if base._ji is None:
        base._ji = ji = join_irreducibles(base)
        base._ji_below = [[k for k, i in enumerate(ji) if base.leq(i, a)] for a in range(n)]
    unit = rng.randrange(n)
    drawn = [[rng.randrange(n) for _ in base._ji] for _ in base._ji]
    z, join = base.bottom, base.join
    rows = []
    for vals in drawn:
        row = []
        for ks in base._ji_below:
            acc = z
            for k in ks:
                acc = join[acc][vals[k]]
            row.append(acc)
        rows.append(row)
    product = []
    for a in range(n):
        pa = list(range(n))
        if a != unit:
            for b in range(n):
                acc = z
                for k in base._ji_below[a]:
                    acc = join[acc][rows[k][b]]
                pa[b] = acc
            pa[unit] = a
        product.append(pa)
    try:
        return TensorLattice(base, product, unit)
    except (NotDistributiveOverJoin, UnitLawFails, ZeroLawFails):
        return None


def fuzz_tensor_lattices(bases, seed, count, max_draws=None):
    """Yield `count` valid tensor lattices fuzzed over the given lattices.

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
