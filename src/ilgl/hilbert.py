"""Checker for Hilbert-style ILGL derivations.

Derivations are trees of rule applications over sequents ``left |- right``;
each node is matched structurally against its rule schema.  This module
checks proofs, it does not search for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .formula import BINARY_NODES, Atom, Formula, Top, parse, render


@dataclass(frozen=True)
class Sequent:
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"{render(self.left)} |- {render(self.right)}"


@dataclass
class Derivation:
    rule: str
    conclusion: Sequent
    premises: List["Derivation"] = field(default_factory=list)
    index: Optional[int] = None  # side tag for And2 / Or1


# The paper's rules as schemas in the formula syntax: each maps to its
# conclusion, its premises and the words that say what its conclusion must
# be (Cut's conclusion matches every sequent).  The atoms a, b, c, d are
# metavariables.  And2 and Or1 have one entry per side index.
RULES = {
    "Ax": ("a |- a", [], "needs left == right"),
    "Cut": ("a |- c", ["a |- b", "b |- c"], ""),
    "Top": ("a |- top", [], "concludes phi |- top"),
    "Bot": ("bot |- a", [], "concludes bot |- phi"),
    "And1": ("a |- b & c", ["a |- b", "a |- c"],
             "concludes a conjunction"),
    ("And2", 1): ("a & b |- a", [], "eliminates a conjunction"),
    ("And2", 2): ("a & b |- b", [], "eliminates a conjunction"),
    ("Or1", 1): ("a |- a | b", [], "introduces a disjunction"),
    ("Or1", 2): ("b |- a | b", [], "introduces a disjunction"),
    "Or2": ("a | b |- c", ["a |- c", "b |- c"], "eliminates a disjunction"),
    "Imp1": ("a & d |- c", ["a |- b -> c", "d |- b"],
             "concludes from a conjunction"),
    "Imp2": ("a |- b -> c", ["a & b |- c"], "concludes an implication"),
    "LConj": ("a |> b |- c |> d", ["a |- c", "b |- d"],
              "concludes between layered conjunctions"),
    "RRes1": ("a |> d |- c", ["a |- b -|> c", "d |- b"],
              "concludes from a layered conjunction"),
    "RRes2": ("a |- b -|> c", ["a |> b |- c"], "concludes -|>"),
    "LRes1": ("d |> a |- c", ["a |- b <|- c", "d |- b"],
              "concludes from a layered conjunction"),
    "LRes2": ("b |- a <|- c", ["a |> b |- c"], "concludes <|-"),
}


def _schema(text: str) -> Sequent:
    left, _, right = text.partition(" |- ")
    return Sequent(parse(left), parse(right))


_SCHEMAS = {key: (_schema(conclusion), [_schema(p) for p in premises], phrase)
            for key, (conclusion, premises, phrase) in RULES.items()}
_ARITY = {key if isinstance(key, str) else key[0]: len(premises)
          for key, (_, premises, _) in RULES.items()}


def _match(pattern, f, binding: dict) -> bool:
    """Whether the formula or sequent ``f`` instantiates ``pattern``; an
    atom of the pattern binds ``f`` or must equal its earlier binding."""
    if isinstance(pattern, Atom):
        return binding.setdefault(pattern.name, f) == f
    if type(pattern) is not type(f):
        return False
    return not isinstance(pattern, (Sequent, *BINARY_NODES)) or (
        _match(pattern.left, f.left, binding)
        and _match(pattern.right, f.right, binding))


def _node_ok(d: Derivation) -> Optional[str]:
    """None when the node instantiates its rule schema, else the mismatch."""
    rule = d.rule
    if rule not in _ARITY:
        return f"unknown rule {rule!r}"
    if len(d.premises) != _ARITY[rule]:
        return (f"{rule} expects {_ARITY[rule]} premises, "
                f"got {len(d.premises)}")
    schema = _SCHEMAS.get(rule) or _SCHEMAS.get((rule, d.index))
    if schema is None:
        return f"{rule} needs index 1 or 2"
    conclusion, premises, phrase = schema
    binding: dict = {}
    if not _match(conclusion, d.conclusion, binding):
        return f"{rule} {phrase}"
    for i, (pattern, p) in enumerate(zip(premises, d.premises)):
        if not _match(pattern, p.conclusion, binding):
            which = ("first ", "second ")[i] if len(premises) == 2 else ""
            return f"{rule}: {which}premise mismatch"
    return None


def check_derivation(d: Derivation) -> List[dict]:
    """Structural check of every node; each failure carries its tree path."""
    problems = []

    def walk(node: Derivation, path: Tuple[int, ...]) -> None:
        msg = _node_ok(node)
        if msg is not None:
            problems.append({"path": list(path),
                             "conclusion": str(node.conclusion),
                             "rule": node.rule, "problem": msg})
        for i, p in enumerate(node.premises):
            walk(p, path + (i,))

    walk(d, ())
    return problems


def check_theorem(d: Derivation, f: Formula) -> bool:
    """True iff ``d`` is a valid derivation of ``top |- f``."""
    if check_derivation(d):
        return False
    return d.conclusion == Sequent(Top(), f)


# -- JSON derivation format ------------------------------------------------

def derivation_from_dict(data, where: str = "derivation") -> Derivation:
    """Raises ValueError naming the first missing or malformed field by
    its path, such as ``derivation.premises[0].conclusion``."""
    def field(obj, key: str, kind: type, at: str, default=None):
        if not isinstance(obj, dict):
            raise ValueError(f"{at} is not a JSON object")
        value = obj.get(key, default)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{at}.{key} is missing or not a "
                             f"{kind.__name__}: {value!r}")
        return value

    sides = field(data, "conclusion", dict, where)
    conclusion = Sequent(
        *(parse(field(sides, side, str, f"{where}.conclusion"))
          for side in ("left", "right")))
    premises = [derivation_from_dict(p, f"{where}.premises[{i}]")
                for i, p in enumerate(field(data, "premises", list, where,
                                            []))]
    index = data.get("index")
    return Derivation(field(data, "rule", str, where), conclusion, premises,
                      None if index is None
                      else field(data, "index", int, where))


def derivation_to_dict(d: Derivation) -> dict:
    out: dict = {
        "rule": d.rule,
        "conclusion": {"left": render(d.conclusion.left),
                       "right": render(d.conclusion.right)},
        "premises": [derivation_to_dict(p) for p in d.premises],
    }
    if d.index is not None:
        out["index"] = d.index
    return out
