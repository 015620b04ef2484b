import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilgl.formula import (_FIXED, _KEYWORDS, _NODES, _PRED_FIXED,
                          _PRED_KEYWORDS, ATOM_RE, And, Atom, Bot, Contains,
                          Exists, Forall, Imp, ImpLeft, ImpRight, LayerConj,
                          Or, ParseError, PointsTo, Top, _tokenize, atoms,
                          parse, parse_pred, postfix, render, subformulas)
from ilgl.gen import random_formula

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestParse:
    def test_precedence_implication_over_or(self):
        assert parse("p -> q | r") == Imp(p, Or(q, r))

    def test_figure_formula(self):
        want = ImpLeft(q, LayerConj(q, Imp(p, Or(p, q))))
        assert parse("q <|- (q |> (p -> (p | q)))") == want

    def test_layer_chain_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("p |> q |> r")
        assert "non-associative" in str(err.value)

    def test_layer_binds_tightest(self):
        assert parse("p |> q & r") == And(LayerConj(p, q), r)
        assert parse("p & q |> r") == And(p, LayerConj(q, r))

    def test_or_and_precedence(self):
        assert parse("p & q | r") == Or(And(p, q), r)

    def test_implications_right_associative(self):
        assert parse("p -> q -> r") == Imp(p, Imp(q, r))
        assert parse("p -|> q -|> r") == ImpRight(p, ImpRight(q, r))

    def test_mixed_implications_rejected(self):
        with pytest.raises(ParseError):
            parse("p -> q -|> r")
        with pytest.raises(ParseError):
            parse("p <|- q -> r")

    def test_mixed_implications_with_parens(self):
        assert parse("p -> (q -|> r)") == Imp(p, ImpRight(q, r))

    def test_negation_sugar(self):
        assert parse("~p") == Imp(p, Bot())
        assert parse("~~p") == Imp(Imp(p, Bot()), Bot())

    def test_constants(self):
        assert parse("top") == Top()
        assert parse("bot") == Bot()

    def test_error_offset_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse("p -> ")
        assert err.value.offset == 5
        assert err.value.expected

    def test_error_on_trailing_input(self):
        with pytest.raises(ParseError) as err:
            parse("p q")
        assert err.value.offset == 2

    def test_uppercase_rejected(self):
        with pytest.raises(ParseError):
            parse("P")

    def test_totality_on_junk(self):
        for text in ["", "(", ")", "p ->", "-> p", "p |>", "p &", "~",
                     "p @ q", "p (q)", "top top", "(p))", "Contains(r)",
                     "p ~> q", "exists s. p"]:
            with pytest.raises(ParseError):
                parse(text)


class TestRender:
    def test_spec_examples(self):
        assert render(Imp(p, Or(q, r))) == "p -> q | r"
        assert render(LayerConj(p, q)) == "p |> q"
        assert render(Bot()) == "bot"

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(300):
            f = random_formula(rng, 5)
            assert parse(render(f)) == f

    def test_nested_layer_parenthesized(self):
        f = LayerConj(LayerConj(p, q), r)
        assert render(f) == "(p |> q) |> r"
        assert parse(render(f)) == f

    def test_mixed_implication_parenthesized(self):
        f = Imp(p, ImpRight(q, r))
        assert render(f) == "p -> (q -|> r)"
        assert parse(render(f)) == f


class TestInterning:
    def test_equal_formulas_are_one_node(self):
        text = "q <|- (q |> (p -> (p | q)))"
        assert parse(text) is parse(text)
        assert And(p, q) is And(p, q)
        assert parse_pred("exists s. Contains(s)") is Exists("s",
                                                             Contains("s"))

    def test_copy_and_pickle_give_the_same_node(self):
        f = parse("(p -> q) |> ~r & top")
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f

    def test_unheld_node_leaves_the_table(self):
        f = parse("gone1 -> gone2 & top")
        ref = weakref.ref(f)
        assert (Atom, "gone1") in _NODES
        del f
        gc.collect()
        assert ref() is None
        assert (Atom, "gone1") not in _NODES
        assert (Atom, "gone2") not in _NODES

    def test_fields_cannot_be_set(self):
        f = And(p, q)
        with pytest.raises(AttributeError):
            f.left = r
        with pytest.raises(AttributeError):
            del f.right
        with pytest.raises(AttributeError):
            p.name = "q"
        assert f.left is p and p.name == "p"

    def test_repr_reads_as_a_constructor(self):
        assert repr(Imp(p, Top())) == "Imp(Atom('p'), Top())"
        assert repr(PointsTo("a", "b")) == "PointsTo('a', 'b')"

    @pytest.mark.parametrize("build", [
        lambda: Atom("top"), lambda: Atom("bot"), lambda: Atom("P"),
        lambda: Atom("a b"), lambda: Contains("top"),
        lambda: Contains("exists"), lambda: Contains("Contains"),
        lambda: PointsTo("a b", "c"), lambda: PointsTo("c", "forall"),
        lambda: Exists("forall", Top()), lambda: Forall("bot", Top()),
        lambda: Exists("1s", Top())])
    def test_names_that_do_not_read_back_refused(self, build):
        with pytest.raises(ValueError):
            build()

    def test_refused_name_leaves_no_node(self):
        with pytest.raises(ValueError):
            Contains("top")
        assert (Contains, "top") not in _NODES


class TestSubformulas:
    def test_atom(self):
        assert subformulas(p) == [p]

    def test_duplicates_collapse(self):
        assert subformulas(And(p, p)) == [p, And(p, p)]

    def test_postorder(self):
        f = Imp(p, Or(p, q))
        assert subformulas(f) == [p, q, Or(p, q), f]

    def test_count_bounded_by_nodes(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_formula(rng, 4)

            def nodes(g):
                if hasattr(g, "left"):
                    return 1 + nodes(g.left) + nodes(g.right)
                return 1

            assert len(subformulas(f)) <= nodes(f)

    def test_quantifier_bodies(self):
        f = parse_pred("exists s. Contains(s) -> s ~> t")
        body = f.body
        assert subformulas(f) == [body.left, body.right, body, f]
        g = parse_pred("forall s. (exists t. t ~> s) & Contains(s)")
        inner = g.body.left
        assert subformulas(g) == [inner.body, inner, Contains("s"), g.body,
                                  g]

    def test_atoms(self):
        assert atoms(parse("p -> q | p")) == ["p", "q"]
        assert atoms(parse("forall -> exists")) == ["exists", "forall"]

    def test_postfix_every_occurrence_operands_first(self):
        def walk(g):
            if hasattr(g, "left"):
                return walk(g.left) + walk(g.right) + [g]
            if hasattr(g, "body"):
                return walk(g.body) + [g]
            return [g]

        rng = random.Random(7)
        formulas = [random_formula(rng, 5) for _ in range(100)] + [
            parse_pred("forall s. (exists t. t ~> s) & Contains(s) -> s ~> s")]
        for f in formulas:
            assert postfix(f) == walk(f)

    def test_postfix_leaves_no_garbage(self):
        # The cyclic collector is off, so a reference cycle made by the
        # call would still be there for ``collect`` to find.
        f = parse("(p |> q) -> (p |> (q | r)) & exists")
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                postfix(f)
            assert gc.collect() == 0
        finally:
            gc.enable()


def tokenize_by_probes(text: str, pred: bool) -> list:
    """The tokenizer the per-mode regular expressions replaced: every fixed
    token tried with ``str.startswith`` at every position.  Kept as the
    reference for ``_tokenize``."""
    fixed, keywords = ((_PRED_FIXED, _PRED_KEYWORDS) if pred
                       else (_FIXED, _KEYWORDS))
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for op in fixed:
            if text.startswith(op, i):
                tokens.append((op, op, i))
                i += len(op)
                break
        else:
            if c.isalpha():
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word in keywords:
                    tokens.append((word, word, i))
                elif ATOM_RE.match(word):
                    tokens.append(("ident", word, i))
                else:
                    raise ParseError(
                        f"bad identifier {word!r}", i, ("identifier",)
                    )
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _tokens_or_error(tokenize, text: str, pred: bool):
    try:
        return tokenize(text, pred)
    except ParseError as exc:
        return str(exc), exc.offset, exc.expected


# Operator characters and words, ASCII and Unicode letters, digits and
# spaces, and any other character.
_PIECES = st.one_of(
    st.sampled_from(_PRED_FIXED + _PRED_KEYWORDS + tuple(
        "-|<>&~(). \t\n_0123456789pqrxyzAPQZ\u00e9\u00b2\u0660\u3000")),
    st.characters())


class TestTokenize:
    def test_sweep_tokens_unchanged(self):
        for depth in (4, 5):
            rng = random.Random(20240)
            for _ in range(500):
                text = render(random_formula(rng, depth))
                for pred in (False, True):
                    assert _tokenize(text, pred) \
                        == tokenize_by_probes(text, pred), text

    @settings(max_examples=500)
    @given(st.lists(_PIECES, max_size=30).map("".join), st.booleans())
    def test_matches_probing_tokenizer(self, text, pred):
        assert _tokens_or_error(_tokenize, text, pred) \
            == _tokens_or_error(tokenize_by_probes, text, pred)


# Malformed inputs with the message, offset and expected set that each
# ParseError carried before the tokenizer and parser were rewritten for
# speed: (text, predicate mode, str(error), offset, expected).
UNIT = ("identifier", "top", "bot", "~", "(")
PINNED_ERRORS = [
    ('(p & q', False,
     "unexpected '' at offset 6 (expected ))",
     6, (')',)),
    ('p & q)', False,
     "trailing input ')' at offset 5 (expected end of input)",
     5, ('end of input',)),
    ('((p)', False,
     "unexpected '' at offset 4 (expected ))",
     4, (')',)),
    (')', False,
     "unexpected ')' at offset 0 (expected identifier, top, bot, ~, ()",
     0, UNIT),
    ('(', False,
     "unexpected 'end of input'"
     ' at offset 1 (expected identifier, top, bot, ~, ()',
     1, UNIT),
    ('p -> q -|> r', False,
     'mixing different implication operators requires parentheses at offset 7',
     7, ()),
    ('p <|- q -> r', False,
     'mixing different implication operators requires parentheses at offset 8',
     8, ()),
    ('(p -|> q) -> r <|- s', False,
     'mixing different implication operators requires parentheses'
     ' at offset 15',
     15, ()),
    ('p |> q |> r', False,
     "chained non-associative operator '|>' at offset 7",
     7, ()),
    ('(p |> q) |> r |> s', False,
     "chained non-associative operator '|>' at offset 14",
     14, ()),
    ('p |> q & r |> s |> t', False,
     "chained non-associative operator '|>' at offset 16",
     16, ()),
    ('P', False,
     "bad identifier 'P' at offset 0 (expected identifier)",
     0, ('identifier',)),
    ('Pq -> r', False,
     "bad identifier 'Pq' at offset 0 (expected identifier)",
     0, ('identifier',)),
    ('1p', False,
     "unexpected character '1' at offset 0",
     0, ()),
    ('p -> 2', False,
     "unexpected character '2' at offset 5",
     5, ()),
    ('é', False,
     "bad identifier 'é' at offset 0 (expected identifier)",
     0, ('identifier',)),
    ('pé & q', False,
     "bad identifier 'pé' at offset 0 (expected identifier)",
     0, ('identifier',)),
    ('p q', False,
     "trailing input 'q' at offset 2 (expected end of input)",
     2, ('end of input',)),
    ('p & q r', False,
     "trailing input 'r' at offset 6 (expected end of input)",
     6, ('end of input',)),
    ("~" * 101 + "p", False,
     'formula nested deeper than 100 levels at offset 100',
     100, ()),
    ("(" * 101 + "p" + ")" * 101, False,
     'formula nested deeper than 100 levels at offset 100',
     100, ()),
    ("p -> " * 100 + "p", False,
     'formula nested deeper than 100 levels at offset 0',
     0, ()),
    ('', False,
     "unexpected 'end of input'"
     ' at offset 0 (expected identifier, top, bot, ~, ()',
     0, UNIT),
    ('   ', False,
     "unexpected 'end of input'"
     ' at offset 3 (expected identifier, top, bot, ~, ()',
     3, UNIT),
    ('p &', False,
     "unexpected 'end of input'"
     ' at offset 3 (expected identifier, top, bot, ~, ()',
     3, UNIT),
    ('p & & q', False,
     "unexpected '&' at offset 4 (expected identifier, top, bot, ~, ()",
     4, UNIT),
    ('-> p', False,
     "unexpected '->' at offset 0 (expected identifier, top, bot, ~, ()",
     0, UNIT),
    ('p -> -> q', False,
     "unexpected '->' at offset 5 (expected identifier, top, bot, ~, ()",
     5, UNIT),
    ('p ->', False,
     "unexpected 'end of input'"
     ' at offset 4 (expected identifier, top, bot, ~, ()',
     4, UNIT),
    ('p $ q', False,
     "unexpected character '$' at offset 2",
     2, ()),
    ('_p', False,
     "unexpected character '_' at offset 0",
     0, ()),
    ('p_ & 9', False,
     "unexpected character '9' at offset 5",
     5, ()),
    ('top bot', False,
     "trailing input 'bot' at offset 4 (expected end of input)",
     4, ('end of input',)),
    ('p -| q', False,
     "unexpected character '-' at offset 2",
     2, ()),
    ('p <| q', False,
     "unexpected character '<' at offset 2",
     2, ()),
    ('p\t&\n(q', False,
     "unexpected '' at offset 6 (expected ))",
     6, (')',)),
    ('exists s. Contains(s)', False,
     "unexpected character '.' at offset 8",
     8, ()),
    ('p ~> q', False,
     "unexpected character '>' at offset 3",
     3, ()),
    ('p . q', False,
     "unexpected character '.' at offset 2",
     2, ()),
    ('p ∧ q', False,
     "unexpected character '∧' at offset 2",
     2, ()),
    ('~', False,
     "unexpected 'end of input'"
     ' at offset 1 (expected identifier, top, bot, ~, ()',
     1, UNIT),
    ('()', False,
     "unexpected ')' at offset 1 (expected identifier, top, bot, ~, ()",
     1, UNIT),
    ('p | | q', False,
     "unexpected '|' at offset 4 (expected identifier, top, bot, ~, ()",
     4, UNIT),
    ('p -> q -> r -|> s', False,
     'mixing different implication operators requires parentheses at offset 7',
     7, ()),
    ('p -|> q -|> r <|- s -|> t', False,
     'mixing different implication operators requires parentheses at offset 8',
     8, ()),
    ('~(p |> q |> r)', False,
     "chained non-associative operator '|>' at offset 9",
     9, ()),
    ('p |> (q |>', False,
     "unexpected 'end of input'"
     ' at offset 10 (expected identifier, top, bot, ~, ()',
     10, UNIT),
    ('p\xa0&& q', False,
     "unexpected '&' at offset 3 (expected identifier, top, bot, ~, ()",
     3, UNIT),
    ('exists s Contains(s)', True,
     "unexpected 'Contains' at offset 9 (expected .)",
     9, ('.',)),
    ('Contains(s', True,
     "unexpected '' at offset 10 (expected ))",
     10, (')',)),
    ('p', True,
     "bare name 'p': predicate formulas have no propositional atoms"
     ' at offset 0',
     0, ()),
    ('exists s. p', True,
     "bare name 'p': predicate formulas have no propositional atoms"
     ' at offset 10',
     10, ()),
    ('s ~>', True,
     "unexpected '' at offset 4 (expected ident)",
     4, ('ident',)),
    ('forall . Contains(s)', True,
     "unexpected '.' at offset 7 (expected ident)",
     7, ('ident',)),
    ('Contains s', True,
     "unexpected 's' at offset 9 (expected ()",
     9, ('(',)),
    ('Contains(s) |> Contains(s) |> Contains(s)', True,
     "chained non-associative operator '|>' at offset 27",
     27, ()),
    ('exists', True,
     "unexpected '' at offset 6 (expected ident)",
     6, ('ident',)),
    ('s ~> t ~> u', True,
     "trailing input '~>' at offset 7 (expected end of input)",
     7, ('end of input',)),
    ("exists s. " * 101 + "Contains(s)", True,
     'formula nested deeper than 100 levels at offset 1000',
     1000, ()),
    ('Contains(S)', True,
     "bad identifier 'S' at offset 9 (expected identifier)",
     9, ('identifier',)),
    ('contains(s)', True,
     "bare name 'contains': predicate formulas have no propositional atoms"
     ' at offset 0',
     0, ()),
    ('exists 1s. Contains(s)', True,
     "unexpected character '1' at offset 7",
     7, ()),
    ('top ~> s', True,
     "trailing input '~>' at offset 4 (expected end of input)",
     4, ('end of input',)),
    ('exists s. Contains(s) -> forall t. t ~> s -|> Contains(t)', True,
     "unexpected 'forall' at offset 25 (expected identifier, top, bot, ~, ()",
     25, UNIT),
    ('forall s. (Contains(s)', True,
     "unexpected '' at offset 22 (expected ))",
     22, (')',)),
    ('Contains()', True,
     "unexpected ')' at offset 9 (expected ident)",
     9, ('ident',)),
    ('s ~> top', True,
     "unexpected 'top' at offset 5 (expected ident)",
     5, ('ident',)),
]


class TestPinnedErrors:
    @pytest.mark.parametrize("text, pred, message, offset, expected",
                             PINNED_ERRORS)
    def test_error_unchanged(self, text, pred, message, offset, expected):
        with pytest.raises(ParseError) as err:
            (parse_pred if pred else parse)(text)
        assert (str(err.value), err.value.offset, err.value.expected) \
            == (message, offset, expected)

    def test_sweep_round_trips_to_the_same_node(self):
        for depth in (4, 5):
            rng = random.Random(20240)
            for _ in range(500):
                f = random_formula(rng, depth)
                assert parse(render(f)) is f
