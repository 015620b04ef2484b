import itertools
import random

import pytest

import algebra_reference
from ilgl.algebra import (BINOPS, AlgebraInterpretation,
                          FiniteLayeredHeytingAlgebra, _filter_frame,
                          algebra_from_dict, algebra_satisfaction_agrees,
                          algebra_to_dict, complex_algebra,
                          complex_algebra_with_elements, fep_complete,
                          interpret, prime_filters, representation_embed,
                          validate_algebra)
from ilgl import gen
from ilgl.formula import parse
from ilgl.gen import random_formula, random_frame, random_relational_model
from ilgl.relational import IntLayeredFrame, closure_pairs


def two_chain():
    """Bounds-only algebra with meet as the layering product; the Heyting
    arrow then serves as both residuals."""
    return FiniteLayeredHeytingAlgebra(
        size=2, leq=[[True, True], [False, True]],
        meet=[[0, 0], [0, 1]], join=[[0, 1], [1, 1]],
        himp=[[1, 1], [0, 1]], lconj=[[0, 0], [0, 1]],
        rres=[[1, 1], [0, 1]], lres=[[1, 1], [0, 1]], top=1, bot=0)


def diamond():
    """0 < {1, 2} < 3 with the degenerate (meet) layering."""
    leq = [[True, True, True, True], [False, True, False, True],
           [False, False, True, True], [False, False, False, True]]
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    join = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
    himp = [[3, 3, 3, 3], [2, 3, 2, 3], [1, 1, 3, 3], [0, 1, 2, 3]]
    return FiniteLayeredHeytingAlgebra(
        size=4, leq=leq, meet=meet, join=join, himp=himp, lconj=meet,
        rres=himp, lres=himp, top=3, bot=0)


def crossed_pair():
    """Complex algebra of two unordered worlds with 0 |> 1 landing in 0
    and 1 |> 0 in 1.  Its elements are the up-sets {}, {0}, {1}, {0,1},
    with ids 0 to 3."""
    return complex_algebra(IntLayeredFrame(
        2, frozenset([(0, 0), (1, 1)]), frozenset([(0, 1, 0), (1, 0, 1)])))


def derived_laws(alg):
    """The laws of residuated structures that follow from residuation,
    each True when it holds in ``alg``."""
    n = range(alg.size)
    lc, join, bot, top = alg.lconj, alg.join, alg.bot, alg.top
    return {
        "monotonicity": all(
            alg.le(lc[a][b], lc[a2][b2]) for a in n for a2 in n
            for b in n for b2 in n if alg.le(a, a2) and alg.le(b, b2)),
        "bottom absorption": all(lc[bot][a] == bot == lc[a][bot]
                                 for a in n),
        "unit laws": all(
            alg.rres[a][top] == alg.lres[a][top] == alg.rres[bot][a]
            == alg.lres[bot][a] == top for a in n),
        "join distribution": all(
            lc[join[a][a2]][b] == join[lc[a][b]][lc[a2][b]]
            and lc[b][join[a][a2]] == join[lc[b][a]][lc[b][a2]]
            for a in n for a2 in n for b in n),
    }


def non_distributive(name, himp_of):
    """M3 (0 < 1, 2, 3 < 4) or N5 (0 < 1 < 2 < 4 and 0 < 3 < 4) as an
    algebra whose layering is meet, with the Heyting table and residuals
    ``himp_of(leq, meet)`` gives."""
    covers = {"M3": [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
              "N5": [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]}[name]
    order = closure_pairs(covers, range(5))
    n = range(5)
    leq = [[(a, b) in order for b in n] for a in n]

    def bound(a, b, below):
        common = [c for c in n if (leq[c][a] and leq[c][b] if below
                                   else leq[a][c] and leq[b][c])]
        return next(c for c in common
                    if all(leq[d][c] if below else leq[c][d]
                           for d in common))

    meet = [[bound(a, b, True) for b in n] for a in n]
    join = [[bound(a, b, False) for b in n] for a in n]
    himp = himp_of(leq, meet)
    return FiniteLayeredHeytingAlgebra(
        size=5, leq=leq, meet=meet, join=join, himp=himp, lconj=meet,
        rres=himp, lres=himp, top=4, bot=0)


def greatest_candidate(leq, meet):
    """himp[a][b]: the greatest c with a & c <= b when there is one, else
    top."""
    n = range(len(leq))
    table = []
    for a in n:
        row = []
        for b in n:
            cs = [c for c in n if leq[meet[a][c]][b]]
            row.append(next((c for c in cs if all(leq[d][c] for d in cs)),
                            4))
        table.append(row)
    return table


HIMP_TABLES = {
    "greatest candidate": greatest_candidate,
    "all top": lambda leq, meet: [[4] * 5 for _ in range(5)],
    "random": lambda leq, meet: [[random.Random(a * 5 + b).randrange(5)
                                  for b in range(5)] for a in range(5)],
}


class TestValidate:
    @pytest.mark.parametrize("lattice", ["M3", "N5"])
    @pytest.mark.parametrize("himp", sorted(HIMP_TABLES))
    def test_non_distributive_lattice_breaks_adjunction(self, lattice,
                                                        himp):
        """Distributivity is not checked on its own: given the lattice
        laws, the Heyting adjunction makes meeting with a fixed element a
        left adjoint, which preserves joins.  So a lawful lattice that is
        not distributive breaks the adjunction, whatever the table."""
        laws = {v["law"] for v in validate_algebra(
            non_distributive(lattice, HIMP_TABLES[himp]))}
        assert "Heyting adjunction" in laws
        assert not any(law.startswith(("order", "meet", "join", "bot",
                                       "top", "table", "constants"))
                       for law in laws)

    def test_degenerate_two_chain(self):
        assert validate_algebra(two_chain()) == []

    def test_degenerate_diamond(self):
        assert validate_algebra(diamond()) == []

    def test_broken_residuation_reported(self):
        alg = two_chain()
        alg.lconj = [[0, 0], [0, 0]]  # top |> top = bot, residuals stale
        laws = {v["law"] for v in validate_algebra(alg)}
        assert any("residuation" in law for law in laws)

    def test_broken_lattice_reported(self):
        alg = two_chain()
        alg.join = [[0, 0], [0, 1]]
        assert validate_algebra(alg) != []

    @pytest.mark.parametrize("law, table, a, b, value", [
        ("monotonicity", "lconj", 1, 2, 3),
        ("bottom absorption", "lconj", 0, 3, 1),
        ("unit laws", "rres", 2, 3, 2),
        ("join distribution", "lconj", 3, 2, 3),
    ])
    def test_derived_law_break_reported(self, law, table, a, b, value):
        """Breaking any derived law breaks an axiom that validate_algebra
        checks, so the residuation suite need not check the laws again."""
        alg = crossed_pair()
        assert validate_algebra(alg) == []
        assert all(derived_laws(alg).values())
        getattr(alg, table)[a][b] = value
        assert not derived_laws(alg)[law]
        assert any(v["law"].startswith("residuation")
                   for v in validate_algebra(alg))

    def test_complex_algebras_always_valid(self):
        rng = random.Random(10)
        for _ in range(80):
            frame = random_frame(rng, rng.randrange(1, 5))
            assert validate_algebra(complex_algebra(frame)) == []


class TestInterpret:
    def test_constants(self):
        interp = AlgebraInterpretation(two_chain(), {})
        assert interpret(interp, parse("top")) == 1
        assert interpret(interp, parse("bot")) == 0

    def test_degenerate_layer_of_top(self):
        interp = AlgebraInterpretation(two_chain(), {"p": 1})
        assert interpret(interp, parse("p |> p")) == 1

    def test_layer_bottom_absorbs_everywhere(self):
        rng = random.Random(11)
        for _ in range(40):
            alg = complex_algebra(random_frame(rng, rng.randrange(1, 4)))
            for a in range(alg.size):
                interp = AlgebraInterpretation(alg, {"p": a})
                assert interpret(interp, parse("p |> bot")) == alg.bot
                assert interpret(interp, parse("bot |> p")) == alg.bot

    def test_unknown_atom_is_bottom(self):
        interp = AlgebraInterpretation(two_chain(), {})
        assert interpret(interp, parse("zzz")) == 0


class TestComplexAlgebra:
    def test_one_world_no_rel(self):
        frame = IntLayeredFrame(1, frozenset([(0, 0)]), frozenset())
        alg = complex_algebra(frame)
        assert alg.size == 2
        assert all(alg.lconj[a][b] == alg.bot
                   for a in range(2) for b in range(2))

    def test_discrete_two_worlds_carrier_four(self):
        frame = IntLayeredFrame(2, frozenset([(0, 0), (1, 1)]), frozenset())
        assert complex_algebra(frame).size == 4

    def test_himp_clause(self):
        # chain 0 <= 1: up-sets {} {1} {0,1}; {1} => {} holds exactly
        # where every successor inside {1} lands in {}: only impossible
        # at worlds seeing 1.
        frame = IntLayeredFrame(2, frozenset([(0, 0), (1, 1), (0, 1)]),
                                frozenset())
        alg, ups = complex_algebra_with_elements(frame)
        assert ups == [0, 2, 3]
        idx = {m: i for i, m in enumerate(ups)}
        assert alg.himp[idx[2]][idx[0]] == idx[0]
        assert alg.himp[idx[0]][idx[2]] == idx[3]

    def test_agreement_with_relational(self):
        rng = random.Random(12)
        for _ in range(150):
            model = random_relational_model(rng, rng.randrange(1, 5))
            f = random_formula(rng, 3)
            assert algebra_satisfaction_agrees(model, f)

    def test_corrupted_tables_disagree(self):
        rng = random.Random(13)
        model = random_relational_model(rng, 2)
        f = parse("p |> q")
        import ilgl.algebra as algmod
        original = algmod.complex_algebra_with_elements

        def corrupt(frame):
            alg, ups = original(frame)
            alg.lconj = [[alg.top] * alg.size for _ in range(alg.size)]
            return alg, ups

        algmod.complex_algebra_with_elements = corrupt
        try:
            disagreed = not algebra_satisfaction_agrees(model, f)
        finally:
            algmod.complex_algebra_with_elements = original
        assert disagreed


class TestPrimeFilters:
    def test_two_chain(self):
        assert prime_filters(two_chain()) == [frozenset([1])]

    def test_diamond_oracle(self):
        # Brute-force oracle over all 16 subsets, frozen expectations.
        alg = diamond()
        brute = []
        for bits in range(16):
            fs = {a for a in range(4) if bits >> a & 1}
            if not fs or 0 in fs:
                continue
            up = all(b in fs for a in fs for b in range(4) if alg.le(a, b))
            meet = all(alg.meet[a][b] in fs for a in fs for b in fs)
            prime = all(not (alg.join[a][b] in fs)
                        or a in fs or b in fs
                        for a in range(4) for b in range(4))
            if up and meet and prime:
                brute.append(frozenset(fs))
        assert sorted(brute, key=sorted) == [frozenset([1, 3]),
                                             frozenset([2, 3])]
        assert prime_filters(alg) == sorted(brute, key=sorted)

    def test_top_filter_not_prime_in_diamond(self):
        assert frozenset([3]) not in prime_filters(diamond())


def prime_filter_frame(alg):
    """The frame that ``representation_embed`` builds on."""
    return _filter_frame(alg)[0]


class TestPrimeFilterFrame:
    def test_two_chain_frame(self):
        frame = prime_filter_frame(two_chain())
        assert frame.worlds == 1
        # top |> top = top in the degenerate algebra, so R holds
        assert frame.rel == frozenset([(0, 0, 0)])
        assert frame.validate() == []

    def test_inclusion_is_partial_order(self):
        rng = random.Random(14)
        for _ in range(30):
            alg = complex_algebra(random_frame(rng, rng.randrange(1, 4)))
            frame = prime_filter_frame(alg)
            assert frame.validate() == []
            for i in range(frame.worlds):
                for j in range(frame.worlds):
                    if frame.leq(i, j) and frame.leq(j, i):
                        assert i == j


class TestRepresentation:
    def test_two_chain(self):
        h, report = representation_embed(two_chain())
        assert report == []
        assert h[0] == 0 and h[1] != h[0]

    def test_diamond(self):
        h, report = representation_embed(diamond())
        assert report == []
        assert len(set(h.values())) == 4

    def test_random_complex_algebras(self):
        rng = random.Random(15)
        for _ in range(40):
            alg = complex_algebra(random_frame(rng, rng.randrange(1, 4)))
            _, report = representation_embed(alg)
            assert report == []


def corrupted(rng):
    """The complex algebra of a random frame of 1 to 4 worlds with up to
    three entries changed at random, each to an in-range value: of
    ``leq``, of ``top`` or ``bot``, or of an operation table."""
    alg = complex_algebra(random_frame(rng, rng.randrange(1, 5)))
    n = alg.size
    for _ in range(rng.randrange(4)):
        what = rng.choice(("leq", "top", "bot") + BINOPS)
        if what == "leq":
            row, b = alg.leq[rng.randrange(n)], rng.randrange(n)
            row[b] = not row[b]
        elif what in ("top", "bot"):
            setattr(alg, what, rng.randrange(n))
        else:
            alg.op(what)[rng.randrange(n)][rng.randrange(n)] = \
                rng.randrange(n)
    return alg


class TestAgainstReference:
    """The bit-row laws, prime filters, filter frame and embedding give
    what the element scans of ``algebra_reference`` give."""

    def test_validate_same_violation_list(self):
        rng = random.Random(17)
        invalid = capped = 0
        for _ in range(1200):
            alg = corrupted(rng)
            want = algebra_reference.validate_algebra(alg)
            assert validate_algebra(alg) == want
            invalid += bool(want)
            capped += len(want) == 20
        assert invalid > 600 and capped > 50

    def test_prime_filters_frame_and_embedding(self):
        rng = random.Random(18)
        algebras = [two_chain(), diamond(), crossed_pair()] + [
            complex_algebra(random_frame(rng, rng.randrange(1, 6)))
            for _ in range(400)]
        for alg in algebras:
            assert prime_filters(alg) == algebra_reference.prime_filters(alg)
            assert (prime_filter_frame(alg)
                    == algebra_reference.prime_filter_frame(alg))
            assert (representation_embed(alg)
                    == algebra_reference.representation_embed(alg))


class TestFep:
    def test_bounds_only_subset_gives_two_chain(self):
        completed, inclusion, report = fep_complete(diamond(), [0, 3])
        assert report == []
        assert completed.size == 2

    def test_whole_algebra_is_identity(self):
        alg = diamond()
        completed, inclusion, report = fep_complete(alg, list(range(4)))
        assert report == []
        assert completed.size == 4
        assert algebra_to_dict(completed) == algebra_to_dict(alg)

    def test_random_pairs_embed(self):
        rng = random.Random(16)
        done = 0
        while done < 50:
            alg = complex_algebra(random_frame(rng, rng.randrange(1, 4)))
            if alg.size > 8:
                continue
            subset = sorted(rng.sample(range(alg.size),
                                       rng.randrange(1, min(5, alg.size + 1))))
            completed, inclusion, report = fep_complete(alg, subset)
            assert report == []
            assert validate_algebra(completed) == []
            done += 1


class TestDerivedLaws:
    """Residuated-structure consequences, checked on complex algebras."""

    def algebras(self, count=25, seed=18):
        rng = random.Random(seed)
        for _ in range(count):
            yield complex_algebra(random_frame(rng, rng.randrange(1, 4)))

    def test_monotonicity(self):
        for alg in self.algebras():
            n = alg.size
            for a, b, a2, b2 in itertools.product(range(n), repeat=4):
                if alg.le(a, a2) and alg.le(b, b2):
                    assert alg.le(alg.lconj[a][b], alg.lconj[a2][b2])

    def test_bottom_absorption(self):
        for alg in self.algebras():
            for a in range(alg.size):
                assert alg.lconj[a][alg.bot] == alg.bot
                assert alg.lconj[alg.bot][a] == alg.bot

    def test_residual_units(self):
        for alg in self.algebras():
            for a in range(alg.size):
                assert alg.rres[a][alg.top] == alg.top
                assert alg.lres[a][alg.top] == alg.top
                assert alg.rres[alg.bot][a] == alg.top
                assert alg.lres[alg.bot][a] == alg.top

    def test_join_distribution(self):
        for alg in self.algebras(15):
            n = alg.size
            for a, b, c in itertools.product(range(n), repeat=3):
                assert alg.lconj[alg.join[a][b]][c] \
                    == alg.join[alg.lconj[a][c]][alg.lconj[b][c]]
                assert alg.lconj[c][alg.join[a][b]] \
                    == alg.join[alg.lconj[c][a]][alg.lconj[c][b]]


class TestDecisionProcedureAgreement:
    def test_oracle_equals_algebra_sweep_at_matched_scale(self, monkeypatch):
        # "no counterexample among frames up to 3 worlds" must coincide
        # with "interpreted as top in every complex algebra of that same
        # frame family, under every valuation"; the satisfaction bridge
        # makes them the same search, asserted here on both code paths.
        # Both take one algebra per isomorphism class of the family.
        from ilgl.relational import (DEFAULT_REL_CAPS, _stacked_step,
                                     rel_valid_upto)
        from ilgl.formula import atoms as formula_atoms

        family = [complex_algebra(frame)
                  for n in (1, 2, 3)
                  for pos, frame, ups in _stacked_step(
                      n, DEFAULT_REL_CAPS[n]).entries]

        def algebra_side_valid(f):
            names = formula_atoms(f)
            for alg in family:
                for combo in itertools.product(range(alg.size),
                                               repeat=len(names)):
                    interp = AlgebraInterpretation(alg,
                                                   dict(zip(names, combo)))
                    if interpret(interp, f) != alg.top:
                        return False
            return True

        monkeypatch.setattr(gen, "ATOM_NAMES", ("p", "q"))  # two atoms
        rng = random.Random(19)
        checked = valid_count = 0
        while checked < 40:
            f = random_formula(rng, 3)
            oracle_valid = rel_valid_upto(f, 3, 2) is None
            assert oracle_valid == algebra_side_valid(f), f
            checked += 1
            valid_count += oracle_valid
        assert 0 < valid_count < checked  # both outcomes exercised


class TestAlgebraJson:
    def test_round_trip(self):
        for alg in (two_chain(), diamond()):
            data = algebra_to_dict(alg)
            back = algebra_from_dict(data)
            assert algebra_to_dict(back) == data
            assert validate_algebra(back) == []
