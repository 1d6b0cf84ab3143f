"""Finite lattices with a join-distributive tensor product and their radical ideals."""

from __future__ import annotations

import random
from itertools import chain, repeat

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
    image,
    inclusion_isomorphism_failure,
    is_distributive,
    preimage,
    set_label,
    transpose,
)


class TensorLattice:
    """A finite bounded lattice with a validated multiplication and unit.

    The product must distribute over binary joins on both sides, absorb the
    bottom, and have the unit; it need not be commutative.  Associativity is
    not validated, but the tensor lemma and the classification assume it.

    Every table is built here: the radical closure, ⟨a⟩ for each a, the
    radical tensor ideal masks (each a ↓m holding m ⊗ 1, 1 ⊗ m and its
    square roots), and L(⊗) with its projection.  Building L(⊗)
    never raises, associative or not.  ⟨a⟩, the least radical tensor ideal
    holding a, exists: the carrier is one, and so is an intersection of them.
    ⟨0⟩ lies below every ⟨a⟩, which holds the bottom.  ⟨a ∨ b⟩ is the least
    ⟨c⟩ above ⟨a⟩ and ⟨b⟩: it holds a and b, an ideal being a down-set, and
    a ⟨c⟩ that holds a and b holds a ∨ b.  So SetLattice finds a least member
    and every join, and the label of a class, its members, is its own.
    """

    def __init__(self, base, product, unit):
        validate_tensor_axioms(base, product, unit)
        self.base = base
        self.n = base.n
        self.product = tuple(tuple(row) for row in product)
        self.unit = unit
        self._close = close = _closer(self)
        self._generated = gen = tuple(close(1 << a) for a in range(self.n))
        self._radicals = tuple(m for m in ideal_masks(base) if is_radical_tensor_ideal(self, m))

        def label(m):
            return "[" + "=".join(base.elements[a] for a in range(self.n) if gen[a] == m) + "]"

        lattice = SetLattice(set(gen), label)
        self._quotient = lattice, tuple(map(lattice.index_of_mask, gen))


def validate_tensor_axioms(base, product, unit):
    """Raise the first violated tensor axiom with a witness pair/triple.

    A table that is not n × n, or a unit or an entry that is not an element
    index 0..n-1, is a ValueError before any axiom is read.  An index is an
    int: a float or a bool equal to one is not.

    Monotonicity needs no check of its own: if b <= c, then
    a ⊗ c = a ⊗ (b ∨ c) = (a ⊗ b) ∨ (a ⊗ c) >= a ⊗ b, and likewise on the right.

    Join-distributivity is tested at the pairs b < c of ``base.join_pairs()``
    only: both sides are symmetric in b and c and b = c never fails, so a scan
    of all triples meets each failure first at b < c, and would raise the same
    exception, message and witness.
    """
    n = base.n
    names = base.elements
    if len(product) != n or any(len(row) != n for row in product):
        raise ValueError("product table must be total over the carrier")
    if type(unit) is not int or not 0 <= unit < n:
        raise ValueError(f"unit {unit!r} is not an element index of the carrier")
    carrier = frozenset(range(n))
    entries = list(chain.from_iterable(product))
    if not carrier.issuperset(entries) or not {int}.issuperset(map(type, entries)):
        a, b = next(
            (a, b)
            for a, row in enumerate(product)
            for b, v in enumerate(row)
            if type(v) is not int or v not in carrier
        )
        raise ValueError(
            f"product entry {product[a][b]!r} at ({names[a]!r}, {names[b]!r})"
            " is not an element index of the carrier"
        )
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
    pairs = base.join_pairs()
    for a in range(n):
        pa = product[a]
        qa = [row[a] for row in product]
        for b, c, j in pairs:
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
    """An ideal ↓m of the base that holds m ⊗ 1, 1 ⊗ m and every a with a ⊗ a in it.

    ⊗ is monotone in each argument (validate_tensor_axioms), so a ⊗ b <= m ⊗ 1
    and b ⊗ a <= 1 ⊗ m for every a <= m and every b: the down-set ↓m absorbs
    every product on both sides iff it holds these two.
    """
    if not is_ideal(t.base, mask):
        return False
    m, top, p = t.base.join_of_mask(mask), t.base.top, t.product
    absorbs = mask >> p[m][top] & 1 and mask >> p[top][m] & 1
    return absorbs and all(mask >> a & 1 for a in range(t.n) if mask >> p[a][a] & 1)


def _closer(t):
    """The radical closure of a member mask, with the tables of t built once."""
    base, p, top = t.base, t.product, t.base.top
    # absorb[a]: a ⊗ 1 and 1 ⊗ a; roots[c]: every a with a ⊗ a = c
    absorb = [1 << p[a][top] | 1 << p[top][a] for a in range(t.n)]
    roots = transpose([1 << p[a][a] for a in range(t.n)], t.n)

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

    Each round adds a ⊗ 1 and 1 ⊗ a for each member a, then takes the least
    ideal above them: ↓ of their join, as an ideal holds the join of its members
    and every ↓m is an ideal; ⊗ being monotone, it holds every a ⊗ b and b ⊗ a.
    It then adds every a with a ⊗ a in it.  A round adds only what each radical
    tensor ideal above the seeds holds, and a mask it keeps is such an ideal,
    so the fixpoint is the least.  A seed is an element name or index: a name
    that is no element raises UnknownName, as Poset.index does, and any other
    seed ValueError, an index off the carrier included.  An index is an int:
    a float or a bool is not.
    """
    base = t.base
    mask = 1 << base.bottom
    for s in seeds:
        if isinstance(s, str):
            s = base.index(s)
        elif type(s) is not int or not 0 <= s < base.n:
            raise ValueError(f"seed {s!r} is not an element index of the carrier")
        mask |= 1 << s
    return t._close(mask)


def generated_ideals(t):
    """The radical tensor ideals ⟨a⟩ generated by each single element a."""
    return list(t._generated)


def radical_masks(t):
    """Masks of the radical tensor ideals, in ideal_masks order."""
    return list(t._radicals)


def all_radical_tensor_ideals(t):
    """All radical tensor ideals, as the SetLattice of their masks.

    SetLattice checks only that inclusion makes a lattice.  Its meet is the
    intersection and its join is the least radical tensor ideal above both,
    which is the radical closure of the union; this function certifies
    neither description, the tests check the join.
    """
    return SetLattice(t._radicals, lambda m: set_label(t.base.elements, m))


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
    QuotientFormulaError at the first pair (a, b) where one fails.  The
    lattice and projection are built with t, and the formulas are checked
    on every call.
    """
    lattice, projection = t._quotient
    # join and meet of classes are realized by ∨ and ⊗ on representatives
    for a in range(t.n):
        for b in range(t.n):
            ja = projection[a]
            jb = projection[b]
            if lattice.join[ja][jb] != projection[t.base.join[a][b]]:
                raise QuotientFormulaError("join", t.base.elements[a], t.base.elements[b])
            if lattice.meet[ja][jb] != projection[t.product[a][b]]:
                raise QuotientFormulaError("meet", t.base.elements[a], t.base.elements[b])
    return lattice, projection


def check_tensor_lemma(t):
    """Verify ⟨a⟩ ∩ ⟨b⟩ = ⟨a ⊗ b⟩ for every pair; emit the witness on failure.

    The lemma assumes an associative product; a non-associative one can fail.
    """
    gen = t._generated
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
    fail, and the certificate then reports that failure.  A failure of (iii)
    nests the certificate of id_vs_omega_dual under "omega".
    """
    try:
        lattice, projection = quotient_lattice(t)
    except QuotientFormulaError as exc:
        return Certificate(False, {"reason": exc.reason, "pair": list(exc.pair)})
    if not is_distributive(lattice):
        return Certificate(False, {"reason": "quotient is not distributive"})

    radicals = t._radicals
    reason = inclusion_isomorphism_failure(
        ideal_masks(lattice),
        radicals,
        lambda ideal: preimage(projection, ideal),
        lambda radical: image(projection, radical),
    )
    if reason is not None:
        return Certificate(False, {"reason": reason})
    omega_cert = id_vs_omega_dual(lattice)
    if not omega_cert.ok:
        return Certificate(
            False, {"reason": "open-set description fails", "omega": omega_cert.to_json()}
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


def _cells(base):
    """The cell table of _draw: per pair (a, b), the flat indices i·m + j of the
    pairs of join-irreducibles ji[i] <= a and ji[j] <= b, m being their number."""
    ji = join_irreducibles(base)
    m = len(ji)
    below = [[k for k, i in enumerate(ji) if base.leq(i, a)] for a in range(base.n)]
    return tuple(tuple(tuple(i * m + j for i in ia for j in jb) for jb in below) for ia in below)


def _draw(base, cells, rng):
    """Draw a candidate tensor structure on the lattice as (unit, product), or None.

    The unit is drawn first, then a value at each pair (i, j) of
    join-irreducibles, i outer and j inner, an order the fuzz stream rests on;
    those are the m² cells of (1, 1).  a ⊗ b folds the join over the values
    at the cells of (a, b) in ``cells``, _cells(base), from the bottom; the
    unit row is the identity and column ``unit`` of every other row is a.
    Join is associative and commutative, so this equals joining, over
    i <= a, the join of the values at (i, j) over j <= b.

    Every value is drawn before any is read, so a rejected draw moves the RNG
    as far as a kept one.  None rejects a draw that validate_tensor_axioms
    would reject.  As a ⊗ u = u ⊗ a = a for the unit u, each test below is the
    zero law or join-distributivity at the pair (u, c):
    - the unit is the bottom of a lattice of at least 2 elements: then
      bottom ⊗ a = a for every a, and some a is not the bottom;
    - a row a ≠ u, tested once it is folded, has a ⊗ (u ∨ c) ≠ a ∨ (a ⊗ c);
    - once every row is kept, a column a ≠ u has
      (u ∨ c) ⊗ a ≠ a ∨ (c ⊗ a).
    The unit row and column pass the last two by the unit law.
    """
    n = base.n
    unit = rng.randrange(n)
    vals = list(map(rng.randrange, repeat(n, len(cells[base.top][base.top]))))
    z, join = base.bottom, base.join
    if unit == z and n > 1:
        return None
    ju = join[unit]
    product = []
    for a, row in enumerate(cells):
        if a == unit:
            product.append(tuple(range(n)))
            continue
        pa = []
        for cell in row:
            acc = z
            for k in cell:
                acc = join[acc][vals[k]]
            pa.append(acc)
        pa[unit] = a
        # a ⊗ (u ∨ c) against a ∨ (a ⊗ c), for every c
        if list(map(pa.__getitem__, ju)) != list(map(join[a].__getitem__, pa)):
            return None
        product.append(tuple(pa))
    for a in range(n):
        if a == unit:
            continue
        qa = [row[a] for row in product]
        if list(map(qa.__getitem__, ju)) != list(map(join[a].__getitem__, qa)):
            return None
    return unit, tuple(product)


def _tensor_or_none(base, product, unit):
    """TensorLattice(base, product, unit), or None if it fails a tensor axiom."""
    try:
        return TensorLattice(base, product, unit)
    except (NotDistributiveOverJoin, UnitLawFails, ZeroLawFails):
        return None


def random_tensor_lattice(base, rng):
    """Draw a candidate tensor structure on the given lattice, or None.

    The draw is that of _draw, on a cell table built for this call.  None if
    _draw rejects it, which it does only where a ⊗ u = u ⊗ a = a forces the
    zero law or join-distributivity at a pair (u, c) to fail, so
    validate_tensor_axioms would reject it too; else None if the validation
    fails.
    """
    drawn = _draw(base, _cells(base), rng)
    return None if drawn is None else _tensor_or_none(base, drawn[1], drawn[0])


def fuzz_tensor_lattices(bases, seed, count):
    """Yield `count` valid tensor lattices fuzzed over the given lattices.

    Deterministic for a fixed seed and base order.  Raises SizeGuardExceeded
    if the draw budget runs out before enough valid structures appear.  Every
    draw is made, so the stream is that of random_tensor_lattice.  A draw that
    _draw rejects is skipped before it is keyed: its unit is the bottom, or a
    row or column fails a ⊗ (u ∨ c) = a ∨ (a ⊗ c) or its mirror, each an
    instance of the zero law or of join-distributivity as a ⊗ u = u ⊗ a = a,
    so validate_tensor_axioms would reject it too.  Each distinct kept draw
    (same base position, unit and product) is validated once: a repeat gets
    the earlier verdict, and a valid repeat yields the earlier TensorLattice,
    so the tables a structure is built with are built once per distinct
    structure.  Each base's cell table is built once per call.  Raises
    ValueError, on the first next(), unless count is a positive int (a bool
    is none) and there is at least one base.
    """
    if type(count) is not int or count < 1:
        raise ValueError(f"fuzz count must be a positive int, got {count!r}")
    bases = list(bases)
    if not bases:
        raise ValueError("fuzz needs at least one base lattice")
    rng = random.Random(seed)
    budget = count * 10_000
    produced = 0
    draws = 0
    # per base position: the unit and product entries, one char each -> the
    # TensorLattice of the first such draw, or None if it is invalid; a str of
    # code points below 256 takes one byte per char
    seen = [{} for _ in bases]
    cells = list(map(_cells, bases))
    while produced < count:
        if draws >= budget:
            raise SizeGuardExceeded(
                f"fuzzing produced only {produced} valid structures in {draws} draws"
            )
        k = rng.randrange(len(bases))
        draws += 1
        drawn = _draw(bases[k], cells[k], rng)
        if drawn is None:
            continue
        unit, product = drawn
        key = "".join(map(chr, chain((unit,), *product)))
        memo = seen[k]
        if key not in memo:
            memo[key] = _tensor_or_none(bases[k], product, unit)
        t = memo[key]
        if t is not None:
            produced += 1
            yield t
