"""Tensor structures on semilattices, radical tensor ideals, and the classification."""

import hashlib
import json
import random
import re
from collections import Counter

import pytest

from lattik import frames, tensor
from lattik.corpus import b2, chain, lattice_corpus, m3, n5
from lattik.errors import (
    NotDistributiveOverJoin,
    SizeGuardExceeded,
    TensorAxiomError,
    UnitLawFails,
    UnknownName,
    ZeroLawFails,
)
from lattik.ideals import join_irreducibles
from lattik.order import bits, canonical_key, is_distributive, two
from lattik.tensor import (
    QuotientFormulaError,
    TensorLattice,
    all_radical_tensor_ideals,
    check_classification,
    check_tensor_lemma,
    fuzz_tensor_lattices,
    generated_ideals,
    is_associative,
    is_radical_tensor_ideal,
    quotient_lattice,
    radical_closure,
    radical_masks,
    random_tensor_lattice,
    validate_tensor_axioms,
)


def meet_tensor(l):
    """The canonical example: ⊗ = ∧ with unit the top."""
    return TensorLattice(l, l.meet, l.top)


def nilpotent_c3():
    """0 < m1 < 1 with m1 ⊗ m1 = 0 and unit 1."""
    l = chain(3)
    z, m, u = l.index("0"), l.index("m1"), l.index("1")
    product = [[z] * 3 for _ in range(3)]
    for a in range(3):
        product[u][a] = a
        product[a][u] = a
    product[m][m] = z
    product[z][z] = z
    return TensorLattice(l, product, u)


@pytest.fixture(scope="module")
def fuzz_structures():
    """The 174 distinct structures of 1500 draws each, seeds 1, 7, 16 and 2026,
    on the lattices of at most 5 elements; 116 are not associative."""
    bases = lattice_corpus(5)
    out = {}
    for seed in (1, 7, 16, 2026):
        for t in fuzz_tensor_lattices(bases, seed, 1500):
            out.setdefault((id(t.base), t.unit, t.product), t)
    assert len(out) == 174
    return list(out.values())


class TestConstruction:
    def test_meet_tensor_on_b2(self):
        t = meet_tensor(b2())
        assert t.unit == t.base.top
        assert is_associative(t)

    def test_meet_tensor_on_nondistributive(self):
        # the tensor axioms need join-distributivity of ⊗, not of the lattice;
        # ∧ on M3 fails it, which is exactly the M3 distributivity defect
        with pytest.raises(NotDistributiveOverJoin):
            meet_tensor(m3())

    def test_nilpotent_c3(self):
        t = nilpotent_c3()
        m = t.base.index("m1")
        assert t.product[m][m] == t.base.index("0")
        assert is_associative(t)

    def test_join_with_bottom_unit_fails_zero_law(self):
        l = b2()
        with pytest.raises(ZeroLawFails):
            TensorLattice(l, l.join, l.bottom)

    def test_broken_unit(self):
        l = chain(3)
        product = [[l.meet[a][b] for b in range(3)] for a in range(3)]
        with pytest.raises(UnitLawFails):
            TensorLattice(l, product, l.index("m1"))

    def test_ragged_table_rejected(self):
        with pytest.raises(ValueError):
            TensorLattice(two(), [[0], [0, 1]], 1)

    @pytest.mark.parametrize("unit", [-1, 3])
    def test_unit_off_the_carrier_is_rejected(self, unit):
        l = chain(3)
        with pytest.raises(ValueError, match=f"unit {unit} is not an element index"):
            TensorLattice(l, l.meet, unit)

    @pytest.mark.parametrize("entry", [3, -1])
    def test_entry_off_the_carrier_is_rejected(self, entry):
        l = chain(3)
        product = [list(row) for row in l.meet]
        product[1][1] = entry
        with pytest.raises(ValueError, match=rf"product entry {entry} at \('m1', 'm1'\)"):
            TensorLattice(l, product, l.top)

    @pytest.mark.parametrize("index", [1.0, True], ids=["float", "bool"])
    def test_an_index_equal_to_an_int_is_not_one(self, index):
        # 1.0 == 1 == True, so a set lookup alone would let them through
        with pytest.raises(ValueError, match=rf"product entry {index!r} at \('1', '1'\)"):
            TensorLattice(chain(2), [[0, 0], [0, index]], 1)
        with pytest.raises(ValueError, match=f"unit {index!r} is not an element index"):
            TensorLattice(chain(2), [[0, 0], [0, 1]], index)


class TestRadicalClosure:
    def test_nilpotent_bottom_sweeps_up(self):
        t = nilpotent_c3()
        l = t.base
        # radical rule: m1 ⊗ m1 = 0 forces m1 into every radical ideal
        assert radical_closure(t, []) == (1 << l.index("0")) | (1 << l.index("m1"))

    def test_meet_tensor_closure_is_principal_downset(self):
        l = b2()
        t = meet_tensor(l)
        gen = generated_ideals(t)
        for a in range(l.n):
            assert gen[a] == l.down[a]

    def test_accepts_names(self):
        t = meet_tensor(b2())
        assert radical_closure(t, ["a"]) == t.base.down[t.base.index("a")]

    @pytest.mark.parametrize("seed", [4, 7, -1])
    def test_index_off_the_carrier_is_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed}"):
            radical_closure(meet_tensor(b2()), [seed])

    @pytest.mark.parametrize("seed", [True, False, 1.0, 2.0, None, (1,)])
    def test_seed_that_is_no_index_is_rejected(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed {seed!r} is not an element index")):
            radical_closure(meet_tensor(b2()), [seed])

    def test_name_that_is_no_element_is_rejected(self):
        # the UnknownName of Poset.index, an InputError and no ValueError
        with pytest.raises(UnknownName, match="unknown element 'zz'"):
            radical_closure(meet_tensor(b2()), ["zz"])

    def closure_examples(self):
        out = []
        for l in lattice_corpus(4):
            out.append(meet_tensor(l))
        out.append(nilpotent_c3())
        return out

    def test_is_a_closure_operator(self):
        for t in self.closure_examples():
            n = t.n
            for s1 in range(n):
                c1 = radical_closure(t, [s1])
                assert c1 >> s1 & 1  # extensive
                assert radical_closure(t, list(range(n))) & c1 == c1
                # idempotent: closing the closure adds nothing
                assert radical_closure(t, [a for a in range(n) if c1 >> a & 1]) == c1
                for s2 in range(n):
                    c2 = radical_closure(t, [s1, s2])
                    assert c2 & c1 == c1  # monotone

    def test_closure_is_radical_ideal(self):
        for t in self.closure_examples():
            gen = generated_ideals(t)
            for a in range(t.n):
                assert is_radical_tensor_ideal(t, gen[a])


class TestRadicalIdeals:
    def test_meet_tensor_b2_gives_four(self):
        t = meet_tensor(b2())
        lattice = all_radical_tensor_ideals(t)
        assert len(lattice.masks) == 4
        assert canonical_key(lattice) == canonical_key(b2())

    def test_nilpotent_c3_gives_two(self):
        t = nilpotent_c3()
        lattice = all_radical_tensor_ideals(t)
        assert len(lattice.masks) == 2
        assert canonical_key(lattice) == canonical_key(two())

    def test_trivial_lattice(self):
        t = meet_tensor(two())
        lattice = all_radical_tensor_ideals(t)
        assert len(lattice.masks) == 2

    def test_masks_are_the_radical_ideals(self, fuzz_structures):
        # every subset of the carrier, in the (size, mask) order of ideal_masks,
        # filtered by the literal definition
        structures = list(fuzz_tensor_lattices(lattice_corpus(4), seed=3, count=30))
        for t in structures + fuzz_structures:
            subsets = sorted(range(1 << t.n), key=lambda m: (bin(m).count("1"), m))
            expected = [m for m in subsets if literal_radical(t, m)]
            assert radical_masks(t) == expected == list(all_radical_tensor_ideals(t).masks)
            assert [m for m in subsets if is_radical_tensor_ideal(t, m)] == expected

    def test_join_is_radical_closure_of_union(self):
        for l in lattice_corpus(5):
            if not is_distributive(l):
                continue
            t = meet_tensor(l)
            lattice = all_radical_tensor_ideals(t)
            masks = lattice.masks
            for i, a in enumerate(masks):
                for j, b in enumerate(masks):
                    joined = masks[lattice.join[i][j]]
                    seeds = [x for x in range(t.n) if (a | b) >> x & 1]
                    assert joined == radical_closure(t, seeds)
                    assert masks[lattice.meet[i][j]] == a & b


class TestQuotient:
    def test_meet_tensor_quotient_is_base(self):
        l = b2()
        lattice, projection = quotient_lattice(meet_tensor(l))
        assert lattice.n == l.n
        assert sorted(projection) == list(range(l.n))
        assert canonical_key(lattice) == canonical_key(l)

    def test_nilpotent_collapses_to_two(self):
        t = nilpotent_c3()
        lattice, projection = quotient_lattice(t)
        assert lattice.n == 2
        assert projection[t.base.index("0")] == projection[t.base.index("m1")]

    def test_labels_show_merged_classes(self):
        lattice, _ = quotient_lattice(nilpotent_c3())
        assert "[0=m1]" in lattice.elements


class TestTensorLemma:
    def test_meet_tensor_examples(self):
        for l in lattice_corpus(5):
            if not is_distributive(l):
                continue
            cert = check_tensor_lemma(meet_tensor(l))
            assert cert.ok and cert.detail["pairs"] == l.n * l.n

    def test_nilpotent(self):
        assert check_tensor_lemma(nilpotent_c3()).ok

    def test_unit_pairs(self):
        # ⟨1⟩ ∩ ⟨b⟩ = ⟨b⟩ is the unit instance of the lemma
        t = meet_tensor(b2())
        gen = generated_ideals(t)
        for b in range(t.n):
            assert gen[t.unit] & gen[b] == gen[b]


class TestClassification:
    def test_meet_tensor_b2(self):
        cert = check_classification(meet_tensor(b2()))
        assert cert.ok
        assert cert.detail["quotient_size"] == 4
        assert cert.detail["radical_ideal_count"] == 4

    def test_nilpotent_c3(self):
        cert = check_classification(nilpotent_c3())
        assert cert.ok and cert.detail["quotient_size"] == 2

    def test_meet_tensor_on_n5_variant(self):
        # ∧ on N5 is not join-distributive either; construction refuses it
        with pytest.raises(NotDistributiveOverJoin):
            meet_tensor(n5())


class TestKeptTables:
    def test_returned_lists_do_not_reach_the_checks(self):
        l = b2()
        fresh = meet_tensor(l)
        lemma = check_tensor_lemma(fresh).to_json()
        classification = check_classification(fresh).to_json()
        t = meet_tensor(l)
        for _ in range(2):
            gen = generated_ideals(t)
            gen[:] = [l.full] * t.n
            masks = radical_masks(t)
            masks.reverse()
            masks.pop()
            assert check_tensor_lemma(t).to_json() == lemma
            assert check_classification(t).to_json() == classification
        assert generated_ideals(t) == list(l.down)
        assert radical_masks(t) == radical_masks(fresh)

    def test_equal_draws_are_one_structure_built_once(self, monkeypatch):
        built = Counter()
        closer = tensor._closer

        def counting_closer(t):
            built[id(t)] += 1
            return closer(t)

        monkeypatch.setattr(tensor, "_closer", counting_closer)
        bases = lattice_corpus(5)
        index = {id(l): k for k, l in enumerate(bases)}
        first = {}
        draws = list(fuzz_tensor_lattices(bases, seed=1, count=500))
        for t in draws:
            assert first.setdefault((index[id(t.base)], t.unit, t.product), t) is t
            check_tensor_lemma(t)
            check_classification(t)
            radical_closure(t, [t.unit])
        distinct = list({id(t): t for t in draws}.values())
        assert len(distinct) == len(first) < len(draws)
        assert built == Counter(id(t) for t in distinct)
        for t in distinct:
            fresh = TensorLattice(t.base, t.product, t.unit)
            assert check_tensor_lemma(fresh).to_json() == check_tensor_lemma(t).to_json()
            assert check_classification(fresh).to_json() == check_classification(t).to_json()

    def test_checks_run_on_every_call(self, monkeypatch):
        calls = Counter()
        for module in (tensor, frames):
            for name in ("inclusion_isomorphism_failure", "is_distributive"):
                orig = getattr(module, name)

                def counted(*args, orig=orig, name=name):
                    calls[name] += 1
                    return orig(*args)

                monkeypatch.setattr(module, name, counted)
        t = meet_tensor(b2())
        for k in range(1, 4):
            assert check_classification(t).ok
            assert calls == {"inclusion_isomorphism_failure": 2 * k, "is_distributive": 2 * k}

    def test_a_failing_quotient_fails_on_every_call(self):
        # draw 2789 of `lattik --seed 16 classify --fuzz 2789`: non-associative
        *_, t = fuzz_tensor_lattices(lattice_corpus(5), 16, 2789)
        assert not is_associative(t)
        for _ in range(2):
            with pytest.raises(QuotientFormulaError) as exc:
                quotient_lattice(t)
            assert exc.value.pair == ("e2", "e1")


class TestFuzz:
    def test_deterministic(self):
        bases = lattice_corpus(4)
        a = [t.product for t in fuzz_tensor_lattices(bases, seed=7, count=30)]
        b = [t.product for t in fuzz_tensor_lattices(bases, seed=7, count=30)]
        assert a == b

    def test_different_seeds_differ(self):
        bases = lattice_corpus(4)
        a = [t.product for t in fuzz_tensor_lattices(bases, seed=1, count=30)]
        b = [t.product for t in fuzz_tensor_lattices(bases, seed=2, count=30)]
        assert a != b

    def test_all_fuzzed_satisfy_lemma_and_classification(self):
        bases = lattice_corpus(5)
        for t in fuzz_tensor_lattices(bases, seed=11, count=120):
            lemma = check_tensor_lemma(t)
            assert lemma.ok, lemma.to_json()
            cls = check_classification(t)
            assert cls.ok, cls.to_json()

    def test_fuzzed_products_are_monotone(self):
        # follows from join-distributivity, which validation checks
        for t in fuzz_tensor_lattices(lattice_corpus(5), seed=2026, count=1000):
            l, prod = t.base, t.product
            for a in range(l.n):
                for b in range(l.n):
                    for c in bits(l.up[b]):
                        assert l.leq(prod[a][b], prod[a][c]) and l.leq(prod[b][a], prod[c][a])

    def test_budget_exhaustion(self, monkeypatch):
        def invalid(base, product, unit):
            raise ZeroLawFails("every draw is invalid")

        monkeypatch.setattr(tensor, "validate_tensor_axioms", invalid)
        with pytest.raises(SizeGuardExceeded, match="only 0 valid structures in 10000 draws"):
            list(fuzz_tensor_lattices(lattice_corpus(4), seed=3, count=1))

    @pytest.mark.parametrize("count", [True, 2.0, -3, 0])
    def test_count_that_is_no_positive_int_is_rejected(self, count):
        stream = fuzz_tensor_lattices(lattice_corpus(4), seed=1, count=count)
        with pytest.raises(ValueError, match=f"fuzz count must be a positive int, got {count!r}"):
            next(stream)

    def test_no_base_is_rejected(self):
        # not the ValueError of random.randrange(0)
        stream = fuzz_tensor_lattices(iter([]), seed=1, count=3)
        with pytest.raises(ValueError, match="^fuzz needs at least one base lattice$"):
            next(stream)

    def test_pinned_stream(self):
        # the structures the fuzzer draws, as (base index, unit, product) lines;
        # classify --fuzz prints only counts, so this pins the samples themselves
        bases = lattice_corpus(5)
        index = {id(l): k for k, l in enumerate(bases)}
        lines = [
            json.dumps([index[id(t.base)], t.unit, t.product])
            for t in fuzz_tensor_lattices(bases, 2026, 1000)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "2be7bc80a0bf28d9762eed4023d88e20d9b4fe1eff80ab2869102fba3804c2ac"


# Literal definitions that the kernel replaces with shortcuts; the tests below
# require the two to agree.


def four_rule_closure(t, seeds):
    """Least radical tensor ideal above the seeds, by the literal rules.

    The downward, join, two-sided absorption and radical rules are applied
    until the member mask stabilizes.
    """
    base = t.base
    mask = 1 << base.bottom
    for s in seeds:
        mask |= 1 << s
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


def literal_radical(t, mask):
    """A radical tensor ideal by the literal definition: an ideal by the subset
    axioms, absorbing at every pair (a, b) with a a member, and holding every a
    with a ⊗ a in it."""
    base, p = t.base, t.product
    members = [a for a in range(t.n) if mask >> a & 1]
    if mask & ~base.full or base.bottom not in members:
        return False
    below = all(mask >> a & 1 for b in members for a in range(t.n) if base.leq(a, b))
    joins = all(mask >> base.join[a][b] & 1 for a in members for b in members)
    absorbs = all(mask >> p[a][b] & 1 and mask >> p[b][a] & 1 for a in members for b in range(t.n))
    roots = all(mask >> a & 1 for a in range(t.n) if mask >> p[a][a] & 1)
    return below and joins and absorbs and roots


def full_scan_axioms(base, product, unit):
    """The tensor axioms, with join-distributivity tested at every (a, b, c)."""
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


def leq_draw(base, rng):
    """The draw of random_tensor_lattice as (product, unit), before any rejection.

    Each cell a ⊗ b is read from the order: the join of the values at (i, j)
    over the join-irreducibles i <= a and j <= b.
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
    return product, unit


def validate_every_draw(bases, seed, count):
    """fuzz_tensor_lattices as a loop that draws with leq_draw and validates every
    draw, repeats included, through TensorLattice."""
    rng = random.Random(seed)
    bases = list(bases)
    budget = count * 10_000
    produced = 0
    draws = 0
    seen = {}  # (base position, unit, product) -> the first valid draw of it
    while produced < count:
        if draws >= budget:
            raise SizeGuardExceeded(
                f"fuzzing produced only {produced} valid structures in {draws} draws"
            )
        k = rng.randrange(len(bases))
        draws += 1
        product, unit = leq_draw(bases[k], rng)
        try:
            t = TensorLattice(bases[k], product, unit)
        except TensorAxiomError:
            continue
        produced += 1
        yield seen.setdefault((k, t.unit, t.product), t)


def axiom_outcome(check, base, product, unit):
    try:
        check(base, product, unit)
    except TensorAxiomError as exc:
        return type(exc), str(exc), exc.witness
    return None


class TestOracles:
    def closure_structures(self):
        return list(fuzz_tensor_lattices(lattice_corpus(4), 3, 60)) + list(
            fuzz_tensor_lattices(lattice_corpus(5), 5, 300)
        )

    def test_closure_is_the_four_rule_fixpoint(self, fuzz_structures):
        # radical_closure absorbs a ⊗ 1 and 1 ⊗ a only; the literal closure
        # absorbs the whole row and column of each member, from every seed set
        structures = self.closure_structures() + fuzz_structures
        assert {is_associative(t) for t in structures} == {True, False}
        for t in structures:
            for mask in range(1 << t.n):
                assert radical_closure(t, bits(mask)) == four_rule_closure(t, bits(mask))
            assert generated_ideals(t) == [four_rule_closure(t, [a]) for a in range(t.n)]

    def test_validator_is_the_full_scan(self):
        # fuzz candidates as drawn (kind 0), with one cell changed (1), and with
        # every cell off the bottom and unit rows and columns redrawn (2)
        rng = random.Random(13)
        bases = lattice_corpus(5)
        seen = Counter()
        for _ in range(10_000):
            base = bases[rng.randrange(len(bases))]
            n = base.n
            product, unit = leq_draw(base, rng)
            kind = rng.randrange(3)
            if kind == 1:
                product[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            elif kind == 2:
                free = [x for x in range(n) if x not in (base.bottom, unit)]
                for a in free:
                    for b in free:
                        product[a][b] = rng.randrange(n)
            got = axiom_outcome(validate_tensor_axioms, base, product, unit)
            assert got == axiom_outcome(full_scan_axioms, base, product, unit)
            seen[got[0].__name__ if got else "valid", kind] += 1
            if got and got[0] is NotDistributiveOverJoin:
                seen["right" if got[1].startswith("(") else "left"] += 1
        for name in ("valid", "NotDistributiveOverJoin"):
            assert all(seen[name, kind] for kind in range(3)), seen
        assert seen["UnitLawFails", 1] and seen["ZeroLawFails", 1], seen
        assert seen["left"] and seen["right"], seen

    def test_row_extension_is_the_leq_extension(self):
        # a kept draw is leq_draw's (product, unit); a rejected one is a product
        # of leq_draw that validation rejects at the zero law or a join
        verdicts = Counter()
        for base in lattice_corpus(5):
            ours, theirs = random.Random(base.n), random.Random(base.n)
            cells = tensor._cells(base)
            for _ in range(200):
                drawn = tensor._draw(base, cells, ours)
                theirs_product, theirs_unit = leq_draw(base, theirs)
                outcome = axiom_outcome(validate_tensor_axioms, base, theirs_product, theirs_unit)
                if drawn is None:
                    assert outcome is not None
                    assert outcome[0] in (ZeroLawFails, NotDistributiveOverJoin)
                    verdicts["rejected", outcome[0].__name__] += 1
                else:
                    unit, product = drawn
                    assert (list(map(list, product)), unit) == (theirs_product, theirs_unit)
                    verdicts["kept", outcome[0].__name__ if outcome else "valid"] += 1
                assert ours.getstate() == theirs.getstate()
        assert verdicts["rejected", "ZeroLawFails"], verdicts
        assert verdicts["rejected", "NotDistributiveOverJoin"], verdicts
        assert verdicts["kept", "valid"] and verdicts["kept", "NotDistributiveOverJoin"], verdicts

    def test_random_tensor_lattice_is_the_validated_leq_draw(self):
        for base in lattice_corpus(5):
            ours, theirs = random.Random(base.n), random.Random(base.n)
            for _ in range(100):
                t = random_tensor_lattice(base, ours)
                product, unit = leq_draw(base, theirs)
                if axiom_outcome(validate_tensor_axioms, base, product, unit) is None:
                    assert (t.product, t.unit) == (tuple(map(tuple, product)), unit)
                else:
                    assert t is None
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("seed, count", [(1, 1000), (7, 1000), (2026, 1000), (16, 2789)])
    def test_memo_is_the_validate_every_draw_loop(self, monkeypatch, seed, count):
        bases = lattice_corpus(5)
        index = {id(l): k for k, l in enumerate(bases)}
        theirs = list(validate_every_draw(bases, seed, count))
        drawn = []  # the draws _draw keeps
        validated = Counter()
        draw, validate = tensor._draw, tensor.validate_tensor_axioms

        def record(base, cells, rng):
            kept = draw(base, cells, rng)
            if kept is not None:
                unit, product = kept
                drawn.append((index[id(base)], unit, product))
            return kept

        def spy(base, product, unit):
            validated[index[id(base)], unit, product] += 1
            validate(base, product, unit)

        monkeypatch.setattr(tensor, "_draw", record)
        monkeypatch.setattr(tensor, "validate_tensor_axioms", spy)
        ours = list(fuzz_tensor_lattices(bases, seed, count))
        monkeypatch.undo()

        def structures(ts):
            return [(index[id(t.base)], t.unit, t.product) for t in ts]

        def identity_pattern(ts):
            first = {}
            return [first.setdefault(id(t), i) for i, t in enumerate(ts)]

        assert structures(ours) == structures(theirs)
        assert identity_pattern(ours) == identity_pattern(theirs)
        # one validation per distinct kept draw, and every kept draw gets the
        # verdict of a fresh validation of it
        assert set(validated) == set(drawn) and set(validated.values()) == {1}
        # distinct kept draws, of 1592, 1651, 1647 and 3874 distinct draws
        assert len(validated) == {1: 68, 7: 77, 2026: 78, 16: 127}[seed]
        fresh = [
            d for d in drawn if axiom_outcome(validate_tensor_axioms, bases[d[0]], d[2], d[1]) is None
        ]
        assert fresh == structures(ours)
        assert len(drawn) > len(validated) > len(set(map(id, ours)))
        if seed == 16:
            assert not is_associative(ours[-1])
