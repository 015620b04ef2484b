"""Checker for Hilbert-style ILGL derivations.

Derivations are trees of rule applications over sequents ``left |- right``;
each node is matched structurally against its rule schema.  This module
checks proofs, it does not search for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .formula import (And, Bot, Formula, Imp, ImpLeft, ImpRight, LayerConj,
                      Or, Top, parse, render)


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


RULE_ARITY = {
    "Ax": 0, "Cut": 2, "Top": 0, "Bot": 0,
    "And1": 2, "And2": 0, "Or1": 0, "Or2": 2,
    "Imp1": 2, "Imp2": 1, "LConj": 2,
    "RRes1": 2, "RRes2": 1, "LRes1": 2, "LRes2": 1,
}


def _node_ok(d: Derivation) -> Optional[str]:
    """None when the node instantiates its rule schema, else the mismatch."""
    c = d.conclusion
    ps = [p.conclusion for p in d.premises]
    rule = d.rule
    if rule not in RULE_ARITY:
        return f"unknown rule {rule!r}"
    if len(ps) != RULE_ARITY[rule]:
        return (f"{rule} expects {RULE_ARITY[rule]} premises, "
                f"got {len(ps)}")
    if rule == "Ax":
        return None if c.left == c.right else "Ax needs left == right"
    if rule == "Cut":
        if ps[0].left != c.left:
            return "Cut: first premise must start at the conclusion's left"
        if ps[1].right != c.right:
            return "Cut: second premise must end at the conclusion's right"
        if ps[0].right != ps[1].left:
            return "Cut: premises do not meet"
        return None
    if rule == "Top":
        return None if isinstance(c.right, Top) else "Top concludes phi |- top"
    if rule == "Bot":
        return None if isinstance(c.left, Bot) else "Bot concludes bot |- phi"
    if rule == "And1":
        if not isinstance(c.right, And):
            return "And1 concludes a conjunction"
        if ps[0] != Sequent(c.left, c.right.left):
            return "And1: first premise mismatch"
        if ps[1] != Sequent(c.left, c.right.right):
            return "And1: second premise mismatch"
        return None
    if rule == "And2":
        if not isinstance(c.left, And):
            return "And2 eliminates a conjunction"
        if d.index not in (1, 2):
            return "And2 needs index 1 or 2"
        picked = c.left.left if d.index == 1 else c.left.right
        return None if c.right == picked else "And2: wrong conjunct"
    if rule == "Or1":
        if not isinstance(c.right, Or):
            return "Or1 introduces a disjunction"
        if d.index not in (1, 2):
            return "Or1 needs index 1 or 2"
        picked = c.right.left if d.index == 1 else c.right.right
        return None if c.left == picked else "Or1: wrong disjunct"
    if rule == "Or2":
        if not isinstance(c.left, Or):
            return "Or2 eliminates a disjunction"
        if ps[0] != Sequent(c.left.left, c.right):
            return "Or2: first premise mismatch"
        if ps[1] != Sequent(c.left.right, c.right):
            return "Or2: second premise mismatch"
        return None
    if rule == "Imp1":
        # phi |- psi -> chi  and  nu |- psi  give  phi & nu |- chi
        if not isinstance(c.left, And):
            return "Imp1 concludes from a conjunction"
        phi, nu = c.left.left, c.left.right
        if not isinstance(ps[0].right, Imp):
            return "Imp1: first premise must end in an implication"
        psi, chi = ps[0].right.left, ps[0].right.right
        if ps[0].left != phi or chi != c.right:
            return "Imp1: first premise mismatch"
        if ps[1] != Sequent(nu, psi):
            return "Imp1: second premise mismatch"
        return None
    if rule == "Imp2":
        if not isinstance(c.right, Imp):
            return "Imp2 concludes an implication"
        want = Sequent(And(c.left, c.right.left), c.right.right)
        return None if ps[0] == want else "Imp2: premise mismatch"
    if rule == "LConj":
        if not (isinstance(c.left, LayerConj)
                and isinstance(c.right, LayerConj)):
            return "LConj concludes between layered conjunctions"
        if ps[0] != Sequent(c.left.left, c.right.left):
            return "LConj: first premise mismatch"
        if ps[1] != Sequent(c.left.right, c.right.right):
            return "LConj: second premise mismatch"
        return None
    if rule == "RRes1":
        # phi |- psi -|> chi  and  nu |- psi  give  phi |> nu |- chi
        if not isinstance(c.left, LayerConj):
            return "RRes1 concludes from a layered conjunction"
        phi, nu = c.left.left, c.left.right
        if not isinstance(ps[0].right, ImpRight):
            return "RRes1: first premise must end in -|>"
        psi, chi = ps[0].right.left, ps[0].right.right
        if ps[0].left != phi or chi != c.right:
            return "RRes1: first premise mismatch"
        if ps[1] != Sequent(nu, psi):
            return "RRes1: second premise mismatch"
        return None
    if rule == "RRes2":
        # phi |> psi |- chi  gives  phi |- psi -|> chi
        if not isinstance(c.right, ImpRight):
            return "RRes2 concludes -|>"
        want = Sequent(LayerConj(c.left, c.right.left), c.right.right)
        return None if ps[0] == want else "RRes2: premise mismatch"
    if rule == "LRes1":
        # phi |- psi <|- chi  and  nu |- psi  give  nu |> phi |- chi
        if not isinstance(c.left, LayerConj):
            return "LRes1 concludes from a layered conjunction"
        nu, phi = c.left.left, c.left.right
        if not isinstance(ps[0].right, ImpLeft):
            return "LRes1: first premise must end in <|-"
        psi, chi = ps[0].right.left, ps[0].right.right
        if ps[0].left != phi or chi != c.right:
            return "LRes1: first premise mismatch"
        if ps[1] != Sequent(nu, psi):
            return "LRes1: second premise mismatch"
        return None
    if rule == "LRes2":
        # phi |> psi |- chi  gives  psi |- phi <|- chi
        if not isinstance(c.right, ImpLeft):
            return "LRes2 concludes <|-"
        want = Sequent(LayerConj(c.right.left, c.left), c.right.right)
        return None if ps[0] == want else "LRes2: premise mismatch"
    raise AssertionError(rule)


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


def load_derivation(path: str) -> Derivation:
    with open(path) as fh:
        return derivation_from_dict(json.load(fh))
