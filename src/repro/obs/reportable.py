"""The one JSON rule every run artefact follows.

A report is a dataclass deriving from :class:`Reportable`, and its JSON
is its fields:

* ``to_dict()`` maps each field to a plain value (:func:`plain`);
* ``from_dict(data)`` rebuilds the object from the field annotations,
  ignoring unknown keys and ``schema``, and an absent key takes the
  field's default;
* ``to_json(indent=None)`` / ``from_json(text)`` wrap
  :func:`report_json` / ``json.loads``.

``schema`` (``"pyranet/<kind>/v<n>"``) names the document shape.  A
report whose JSON carries it declares it as a non-init field; the
others keep it as a class attribute, so their committed payloads stay
byte-identical (golden-tested in ``tests/obs/test_reportable.py``).
A class whose JSON is more than its fields says so in its own
``to_dict``.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from functools import lru_cache
from typing import (Any, Dict, Optional, Tuple, Type, TypeVar, Union,
                    get_args, get_origin, get_type_hints)

R = TypeVar("R", bound="Reportable")


def report_json(data: Dict[str, Any], indent: Optional[int] = None) -> str:
    """The canonical report serialisation: sorted keys, optional indent."""
    return json.dumps(data, indent=indent, sort_keys=True)


def plain(value: Any) -> Any:
    """``value`` as JSON-able data: nested reports as dicts, sequences
    as lists, dict keys as strings and enums as their values."""
    if isinstance(value, Reportable):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    if isinstance(value, Enum):
        return value.value
    return value


def _build(kind: Any, value: Any) -> Any:
    """``value`` read back as the annotated type ``kind``."""
    if value is None:
        return None
    origin = get_origin(kind) or kind
    args = get_args(kind)
    if origin is Union:  # Optional[X]
        inner = [arg for arg in args if arg is not type(None)]
        return _build(inner[0], value) if len(inner) == 1 else value
    if origin in (list, tuple):
        items = [_build(args[0] if args else Any, item) for item in value]
        return tuple(items) if origin is tuple else items
    if origin is dict:
        key_kind, item_kind = args or (Any, Any)
        return {int(key) if key_kind is int else key: _build(item_kind, item)
                for key, item in value.items()}
    if isinstance(origin, type):
        if issubclass(origin, Reportable):
            return origin.from_dict(value)
        if issubclass(origin, Enum):
            return origin(value)
    return value


@lru_cache(maxsize=None)
def _init_fields(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``(name, annotated type)`` of ``cls``'s init fields."""
    hints = get_type_hints(cls)
    return tuple((item.name, hints[item.name])
                 for item in dataclasses.fields(cls) if item.init)


class Reportable:
    """Base class of every report dataclass: its JSON is its fields."""

    def to_dict(self) -> Dict[str, Any]:
        return {item.name: plain(getattr(self, item.name))
                for item in dataclasses.fields(self)}

    def to_json(self, indent: Optional[int] = None) -> str:
        return report_json(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls: Type[R], data: Dict[str, Any]) -> R:
        return cls(**{name: _build(kind, data[name])
                      for name, kind in _init_fields(cls) if name in data})

    @classmethod
    def from_json(cls: Type[R], text: str) -> R:
        return cls.from_dict(json.loads(text))
