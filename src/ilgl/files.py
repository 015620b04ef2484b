"""The boundary between the CLI's files and the objects built from them.

``read`` opens a JSON file, recognises its kind from its keys, refuses a
kind the caller does not take and builds the object.  Every failure on
the way is an ``InputError`` that names the path: a file that cannot be
opened or decoded, JSON nested too deeply or holding a number too large
for an integer, a missing field, a field of the wrong type, or a value
the builder refuses.  ``write`` reports an output file that cannot be
written the same way.
"""

from __future__ import annotations

import json
from typing import Tuple

from . import algebra, graph, hilbert, predicate, relational
from .formula import InputError

# Looked up through their modules on each call, so that a wrapped builder
# (the benchmark's tracer wraps ``graph.model_from_dict``) is the one used.
BUILDERS = {
    "algebra": lambda data: algebra.algebra_from_dict(data),
    "frame": lambda data: relational.frame_from_dict(data),
    "model": lambda data: graph.model_from_dict(data),
    "resource model": lambda data: predicate.resource_model_from_dict(data),
    "derivation": lambda data: hilbert.derivation_from_dict(data),
}


def kind_of(data) -> str:
    """The kind of file a decoded JSON value is, from its keys."""
    if not isinstance(data, dict):
        raise InputError("not a JSON object")
    if "size" in data:
        return "algebra"
    if "worlds" in data:
        return "frame"
    if "X" in data:
        return ("resource model" if "placement" in data
                or "resources" in data else "model")
    if "rule" in data or "conclusion" in data:
        return "derivation"
    raise InputError("unrecognized file kind")


def read(path: str, *kinds: str) -> Tuple[str, object]:
    """(kind, object) of the file at ``path``; its kind must be one of
    ``kinds``."""
    try:
        with open(path, "rb") as fh:
            data = json.load(fh)
        kind = kind_of(data)
        if kind not in kinds:
            raise InputError(f"file kind {kind!r}, expected "
                             + " or ".join(map(repr, kinds)))
        return kind, BUILDERS[kind](data)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}") from exc
    except (ValueError, LookupError, TypeError, AttributeError,
            OverflowError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc
