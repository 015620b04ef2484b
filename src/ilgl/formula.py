"""ILGL formulas: AST, ASCII parser, and printer.

Connectives, tightest-binding first: ``|>`` (layering conjunction), ``&``,
``|``, and the implication family ``->``, ``-|>``, ``<|-``.  ``|>`` is
non-associative (chains must be parenthesized), implications are
right-associative with themselves, and mixing two different implication
operators at one level requires parentheses.  ``~ f`` is accepted as sugar
for ``f -> bot``.

Predicate formulas (``parse_pred``) use the same grammar without bare
atoms, plus the units ``Contains(r)`` and ``r ~> s`` and a quantifier
prefix ``exists r.`` / ``forall r.`` that scopes as far right as possible.
Shadowed binders are renamed apart during parsing.  A formula nested
deeper than ``MAX_DEPTH`` levels is a ParseError.
"""

from __future__ import annotations

import re
import weakref
from typing import Union

ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_KEYWORDS = ("top", "bot")
_PRED_KEYWORDS = _KEYWORDS + ("exists", "forall", "Contains")


class _Node:
    """Base of the formula nodes, hash-consed: building a node returns the
    live node of the same kind and fields if there is one, so equal
    formulas are one object and ``==`` is ``is``.  The table holds nodes
    weakly.  Building nodes is not thread-safe: a race on one miss could
    make two equal nodes that compare unequal.  Each kind declares its
    fields as ``__slots__``; a name field matches ``ATOM_RE`` and is none
    of the kind's ``_keywords``, so that it reads back."""

    __slots__ = ("__weakref__",)
    _keywords = _PRED_KEYWORDS

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields, strict=True):
                if not isinstance(value, _Node) and (
                        not ATOM_RE.match(value) or value in cls._keywords):
                    raise ValueError(f"bad {cls.__name__} {name}: {value!r}")
                object.__setattr__(node, name, value)
            _NODES[key] = node
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(repr(getattr(self, n)) for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


_NODES = weakref.WeakValueDictionary()


class Atom(_Node):
    __slots__ = ("name",)
    _keywords = _KEYWORDS


class Top(_Node):
    __slots__ = ()


class Bot(_Node):
    __slots__ = ()


class And(_Node):
    __slots__ = ("left", "right")


class Or(_Node):
    __slots__ = ("left", "right")


class Imp(_Node):
    __slots__ = ("left", "right")


class LayerConj(_Node):
    """The layering conjunction: non-commutative, non-associative."""

    __slots__ = ("left", "right")


class ImpRight(_Node):
    """Right residual of layering: receiver composes on the left."""

    __slots__ = ("left", "right")


class ImpLeft(_Node):
    """Left residual of layering: receiver composes on the right."""

    __slots__ = ("left", "right")


class Contains(_Node):
    """Predicate atom: the world has a vertex of the resource's block."""

    __slots__ = ("resource",)


class PointsTo(_Node):
    """Predicate atom: a non-empty path inside the world runs from the
    source's block to the target's."""

    __slots__ = ("source", "target")


class Exists(_Node):
    __slots__ = ("var", "body")


class Forall(_Node):
    __slots__ = ("var", "body")


# Propositional formulas use the first nine node kinds; predicate formulas
# use all but Atom.
Formula = Union[Atom, Top, Bot, And, Or, Imp, LayerConj, ImpRight, ImpLeft,
                Contains, PointsTo, Exists, Forall]

TOP = Top()
BOT = Bot()

BINARY_NODES = (And, Or, Imp, LayerConj, ImpRight, ImpLeft)
IMP_NODES = (Imp, ImpRight, ImpLeft)
QUANT_NODES = (Exists, Forall)


class InputError(ValueError):
    """A malformed or refused input: the CLI reports it with exit 2."""


class ParseError(InputError):
    """Syntax error carrying the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)


# Tokens are (kind, text, offset); kind is the operator/keyword itself for
# fixed tokens, "ident" for names, "end" at EOF.  Predicate mode adds its
# tokens to both lists; "~>" must precede "~".
_FIXED = ("-|>", "<|-", "|>", "->", "&", "|", "~", "(", ")")
_PRED_FIXED = ("~>",) + _FIXED + (".",)


def _token_re(fixed: tuple) -> re.Pattern:
    """Whitespace, then a fixed token (the first in ``fixed`` that
    matches), a word (``\\w`` is ``str.isalnum`` or "_") or any other
    character."""
    ops = "|".join(map(re.escape, fixed))
    return re.compile(rf"\s+|({ops})|(\w+)|(.)", re.DOTALL)


_TOKEN_RE = {False: _token_re(_FIXED), True: _token_re(_PRED_FIXED)}


def _tokenize(text: str, pred: bool) -> list:
    keywords = _PRED_KEYWORDS if pred else _KEYWORDS
    tokens = []
    for m in _TOKEN_RE[pred].finditer(text):
        op, word, other = m.groups()
        i = m.start()
        if op:
            tokens.append((op, op, i))
        elif word and word[0].isalpha():
            if word in keywords:
                tokens.append((word, word, i))
            elif ATOM_RE.match(word):
                tokens.append(("ident", word, i))
            else:
                raise ParseError(
                    f"bad identifier {word!r}", i, ("identifier",)
                )
        elif word or other:
            raise ParseError(f"unexpected character {text[i]!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


# The deepest nesting a formula may have: of parentheses, ~ and quantifiers
# while parsing, and of the tree parsed.  The parser, the printer and the
# evaluators recurse once or more per level.
MAX_DEPTH = 100

_IMP_OPS = ("->", "-|>", "<|-")
_IMP_CLASS = {"->": Imp, "-|>": ImpRight, "<|-": ImpLeft}
_UNIT_EXPECTED = ("identifier", "top", "bot", "~", "(")


class _Parser:
    """Recursive descent over the token list.  In predicate mode a name is
    a resource, resolved through the binders in scope, and never an
    atom."""

    def __init__(self, tokens: list, pred: bool):
        self.tokens = tokens
        self.pos = 0
        self.pred = pred
        self.scope: list = []  # (surface name, real name) of the binders
        self.renamed = 0
        self.depth = 0  # open parentheses, ~ and quantifiers

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def take(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], (kind,))
        return self.take()

    def nested(self, parse_inner, offset: int) -> Formula:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels",
                             offset)
        f = parse_inner()
        self.depth -= 1
        return f

    def resolve(self, name: str) -> str:
        for surface, real in reversed(self.scope):
            if surface == name:
                return real
        return name

    def form(self) -> Formula:
        if self.pred and self.peek()[0] in ("exists", "forall"):
            return self.quantifier()
        # Collect the whole implication chain, then fold right-associatively.
        # A chain mixing two operator spellings is rejected outright.
        parts = [self.disj()]
        ops = []
        while self.peek()[0] in _IMP_OPS:
            ops.append(self.take())
            parts.append(self.disj())
        if not ops:
            return parts[0]
        if len({kind for kind, _, _ in ops}) > 1:
            raise ParseError(
                "mixing different implication operators requires parentheses",
                ops[1][2],
            )
        cls = _IMP_CLASS[ops[0][0]]
        f = parts[-1]
        for g in reversed(parts[:-1]):
            f = cls(g, f)
        return f

    def quantifier(self) -> Formula:
        # The binder scopes as far right as possible; a name already bound
        # in an enclosing scope is renamed apart.
        kind, _, off = self.take()
        var = self.expect("ident")[1]
        self.expect(".")
        real = var
        if any(surface == var for surface, _ in self.scope):
            # The new name is no identifier of the input, so it captures
            # no free name.
            taken = {text for k, text, _ in self.tokens if k == "ident"}
            while real in taken:
                self.renamed += 1
                real = f"{var}_{self.renamed}"
        self.scope.append((var, real))
        body = self.nested(self.form, off)
        self.scope.pop()
        return (Exists if kind == "exists" else Forall)(real, body)

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek()[0] == "|":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.layer()
        while self.peek()[0] == "&":
            self.take()
            f = And(f, self.layer())
        return f

    def layer(self) -> Formula:
        f = self.unit()
        if self.peek()[0] == "|>":
            self.take()
            f = LayerConj(f, self.unit())
            if self.peek()[0] == "|>":
                raise ParseError(
                    "chained non-associative operator '|>'", self.peek()[2]
                )
        return f

    def unit(self) -> Formula:
        kind, text, off = self.peek()
        if kind == "ident":
            self.take()
            if not self.pred:
                return Atom(text)
            if self.peek()[0] != "~>":
                raise ParseError(f"bare name {text!r}: predicate formulas "
                                 "have no propositional atoms", off)
            self.take()
            target = self.expect("ident")[1]
            return PointsTo(self.resolve(text), self.resolve(target))
        if kind == "Contains":
            self.take()
            self.expect("(")
            name = self.expect("ident")[1]
            self.expect(")")
            return Contains(self.resolve(name))
        if kind == "top":
            self.take()
            return TOP
        if kind == "bot":
            self.take()
            return BOT
        if kind == "~":
            self.take()
            return Imp(self.nested(self.unit, off), BOT)
        if kind == "(":
            self.take()
            f = self.nested(self.form, off)
            self.expect(")")
            return f
        raise ParseError(f"unexpected {text or 'end of input'!r}", off,
                         _UNIT_EXPECTED)


def _parse(text: str, pred: bool) -> Formula:
    parser = _Parser(_tokenize(text, pred), pred)
    f = parser.form()
    kind, tok, off = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok!r}", off, ("end of input",))
    # A tree is no higher than its number of tokens.
    if len(parser.tokens) > MAX_DEPTH and _height(f) > MAX_DEPTH:
        raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", 0)
    return f


def parse(text: str) -> Formula:
    """Parse ``text`` into a Formula, raising ParseError on any flaw."""
    return _parse(text, False)


def parse_pred(text: str) -> Formula:
    """Parse a predicate formula, raising ParseError on any flaw."""
    return _parse(text, True)


# Precedence levels used by the printer; higher binds tighter.  A
# quantifier body extends to the right, so a quantifier operand is always
# parenthesized.
(_LEVEL_QUANT, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_LAYER,
 _LEVEL_UNIT) = range(6)


_LEVEL = {Exists: _LEVEL_QUANT, Forall: _LEVEL_QUANT, Imp: _LEVEL_IMP,
          ImpRight: _LEVEL_IMP, ImpLeft: _LEVEL_IMP, Or: _LEVEL_OR,
          And: _LEVEL_AND, LayerConj: _LEVEL_LAYER}


_OP_TEXT = {Imp: "->", ImpRight: "-|>", ImpLeft: "<|-", And: "&", Or: "|",
            LayerConj: "|>"}


def render(f: Formula) -> str:
    """Print ``f`` with minimal parentheses; parse(render(f)) == f, and
    parse_pred(render(f)) == f for predicate formulas."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    op = _OP_TEXT.get(type(f))
    if op is None:
        if isinstance(f, Contains):
            return f"Contains({f.resource})"
        if isinstance(f, PointsTo):
            return f"{f.source} ~> {f.target}"
        word = "exists" if isinstance(f, Exists) else "forall"
        return f"{word} {f.var}. {render(f.body)}"
    if isinstance(f, IMP_NODES):
        left = _wrap(f.left, _LEVEL_OR)
        if (isinstance(f.right, QUANT_NODES) or isinstance(f.right, IMP_NODES)
                and type(f.right) is not type(f)):
            right = "(" + render(f.right) + ")"
        else:
            right = render(f.right)
    elif isinstance(f, Or):
        left = _wrap(f.left, _LEVEL_OR)
        right = _wrap(f.right, _LEVEL_AND)
    elif isinstance(f, And):
        left = _wrap(f.left, _LEVEL_AND)
        right = _wrap(f.right, _LEVEL_LAYER)
    else:
        left = _wrap(f.left, _LEVEL_UNIT)
        right = _wrap(f.right, _LEVEL_UNIT)
    return f"{left} {op} {right}"


def _wrap(f: Formula, min_level: int) -> str:
    text = render(f)
    if _LEVEL.get(type(f), _LEVEL_UNIT) < min_level:
        return "(" + text + ")"
    return text


def _height(f: Formula) -> int:
    """The number of nodes on the longest path from the root down."""
    deepest = 0
    stack = [(f, 1)]
    while stack:
        g, level = stack.pop()
        deepest = max(deepest, level)
        if isinstance(g, BINARY_NODES):
            stack.append((g.left, level + 1))
            stack.append((g.right, level + 1))
        elif isinstance(g, QUANT_NODES):
            stack.append((g.body, level + 1))
    return deepest


def postfix(f: Formula) -> list:
    """Every node occurrence of ``f``, operands before their connective."""
    out = []

    def walk(g: Formula) -> None:
        if isinstance(g, BINARY_NODES):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, QUANT_NODES):
            walk(g.body)
        out.append(g)

    walk(f)
    return out


def subformulas(f: Formula) -> list:
    """All distinct subformulas of ``f`` (including ``f``), in post-order."""
    return list(dict.fromkeys(postfix(f)))


def atoms(f: Formula) -> list:
    """Atom names occurring in ``f``, sorted."""
    return sorted({g.name for g in subformulas(f) if isinstance(g, Atom)})
