"""The one reporting contract every run artefact follows.

Before this module, each subsystem grew its own report class with its
own serialisation quirks (different ``to_json`` defaults, ad-hoc
``from_*`` names).  :class:`Reportable` pins the shared surface:

* a ``schema`` class attribute (``"pyranet/<kind>/v<n>"``) naming the
  document shape and version;
* ``to_dict()`` → plain JSON-able dict;
* ``to_json(indent=None)`` → ``json.dumps(..., sort_keys=True)``;
* ``from_dict(data)`` classmethod that round-trips ``to_dict`` output
  (and tolerates the ``schema`` key, present or not).

Legacy payload shapes are *not* changed — ``schema`` lives on the
class, not inside pre-existing ``to_dict`` outputs, so committed JSON
artefacts stay byte-identical (golden-tested in
``tests/obs/test_reportable.py``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Protocol, runtime_checkable

#: Namespace prefix shared by every schema identifier.
SCHEMA_PREFIX = "pyranet"


@runtime_checkable
class Reportable(Protocol):
    """Structural type for run artefacts (``isinstance`` checks methods
    only; the ``schema`` attribute is asserted separately in tests)."""

    def to_dict(self) -> Dict[str, Any]: ...

    def to_json(self, indent: Optional[int] = None) -> str: ...

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Reportable": ...


def report_json(data: Dict[str, Any], indent: Optional[int] = None) -> str:
    """The canonical report serialisation: sorted keys, optional indent."""
    return json.dumps(data, indent=indent, sort_keys=True)


def strip_schema(data: Dict[str, Any]) -> Dict[str, Any]:
    """``data`` without its ``schema`` key (for ``from_dict`` parsers
    written before the key existed)."""
    if "schema" in data:
        data = {key: value for key, value in data.items()
                if key != "schema"}
    return data

