"""The rule table of the Hilbert checker: its axioms are theorems, and
every rule rejects a conclusion whose main connective is wrong."""

import copy

from hilbert_corpus import corpus

from ilgl.formula import BINARY_NODES, Imp, parse
from ilgl.hilbert import RULES, Sequent, check_derivation
from ilgl.tableaux import prove

# Sides a schema leaves free: any formula may stand there.
FREE_SIDES = {("Top", 0), ("Bot", 1)}


def test_axiom_schemas_are_theorems():
    axioms = {key: conclusion for key, (conclusion, premises, _)
              in RULES.items() if not premises}
    assert set(axioms) == {"Ax", "Top", "Bot", ("And2", 1), ("And2", 2),
                           ("Or1", 1), ("Or1", 2)}
    for key, conclusion in axioms.items():
        left, _, right = conclusion.partition(" |- ")
        assert prove(Imp(parse(left), parse(right))).status == "proved", key


def _paths(d, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _paths(p, path + (i,))


def _node(d, path):
    for i in path:
        d = d.premises[i]
    return d


def test_wrong_main_connective_reported():
    checked = 0
    for item in corpus():
        for path, node in _paths(item["derivation"]):
            sides = (node.conclusion.left, node.conclusion.right)
            for i, side in enumerate(sides):
                if (not isinstance(side, BINARY_NODES)
                        or (node.rule, i) in FREE_SIDES):
                    continue
                for cls in BINARY_NODES:
                    if cls is type(side):
                        continue
                    bad = copy.deepcopy(item["derivation"])
                    changed = list(sides)
                    changed[i] = cls(side.left, side.right)
                    _node(bad, path).conclusion = Sequent(*changed)
                    report = check_derivation(bad)
                    assert list(path) in [r["path"] for r in report], \
                        (item["name"], path, i, cls.__name__)
                    checked += 1
    assert checked > 100
