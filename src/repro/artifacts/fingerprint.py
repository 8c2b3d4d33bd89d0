"""Canonical fingerprints for units of reproducible work.

Per-instance results in this repo are pure, bit-identical functions of
``(experiment id, configuration, root seed, instance index)`` — the
determinism contract every differential suite pins.  That contract is
exactly what makes *content-addressed caching* sound: if two runs hash
the same declarative description of their work, they would compute the
same bytes, so the second run may read the first one's result.

:func:`canonical` lowers an arbitrary configuration object — frozen
dataclasses nested in tuples, dicts, numpy scalars — into a
JSON-serializable structure with one unique form per value, and
:func:`fingerprint` hashes that form (SHA-256 over compact,
sorted-key JSON) together with :data:`SCHEMA_VERSION`, a salt bumped
whenever the *meaning* of stored payloads changes so stale ledger
entries can never be misread as current ones (DESIGN.md §11).

Encoding rules (one unique encoding per value, no aliasing):

- ``None`` / ``bool`` / ``int`` / ``str`` pass through; ``float`` stays
  a float (JSON round-trips floats exactly via ``repr`` shortest-form).
- dataclasses become ``{"__dataclass__": qualified name, "fields":
  {...}}`` — the class name is part of the identity, so two config
  types with identical fields never collide.
- tuples and lists both become JSON arrays (configs use them
  interchangeably for grids).
- dicts with string keys stay objects; dicts with structured keys
  (e.g. ``claims[(worker, task)]``) become sorted ``[key, value]``
  pair arrays.
- sets/frozensets become sorted arrays.
- numpy scalars and arrays lower to their Python equivalents.
- callables (e.g. a similarity function plugged into ``DateConfig``)
  are identified by qualified name — behaviour changes inside the
  function are invisible to the fingerprint, which is why the schema
  salt exists.
- non-dataclass config objects may implement ``__fingerprint__()``
  returning their identifying parameters (the hook the false-value
  distributions use); the encoding pairs that state with the class
  name.

Anything else raises :class:`FingerprintError` eagerly: an object the
encoder does not understand must never be silently stringified into a
colliding key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping
from typing import Any

import numpy as np

from ..errors import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "FingerprintError",
    "canonical",
    "canonical_json",
    "fingerprint",
]

#: Bump whenever the canonical encoding or the stored payload layout
#: changes meaning; every fingerprint mixes it in, so old ledger
#: entries simply stop matching instead of being misinterpreted.
SCHEMA_VERSION = 2


class FingerprintError(ReproError, TypeError):
    """A value cannot be canonically encoded for fingerprinting."""


def canonical(value: Any) -> Any:
    """Lower ``value`` to a JSON-safe structure with a unique form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [canonical(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if hasattr(value, "__fingerprint__") and not isinstance(value, type):
        cls = type(value)
        return {
            "__object__": f"{cls.__module__}.{cls.__qualname__}",
            "state": canonical(value.__fingerprint__()),
        }
    if isinstance(value, (tuple, list)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        encoded = [canonical(v) for v in value]
        return {"__set__": sorted(encoded, key=_sort_key)}
    if isinstance(value, Mapping):
        if all(isinstance(k, str) for k in value):
            return {k: canonical(v) for k, v in sorted(value.items())}
        pairs = [[canonical(k), canonical(v)] for k, v in value.items()]
        return {"__pairs__": sorted(pairs, key=_sort_key)}
    if callable(value):
        name = getattr(value, "__qualname__", None) or getattr(
            value, "__name__", None
        )
        module = getattr(value, "__module__", None)
        if name is None:
            raise FingerprintError(
                f"cannot fingerprint anonymous callable {value!r}"
            )
        return {"__callable__": f"{module}.{name}"}
    raise FingerprintError(
        f"cannot canonically encode {type(value).__qualname__!r} for "
        f"fingerprinting; supported: JSON scalars, dataclasses, "
        f"tuples/lists, dicts, sets, numpy scalars/arrays, named callables"
    )


def _sort_key(encoded: Any) -> str:
    """Total order over already-canonical values, via their JSON form."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """The canonical compact JSON text of ``value``."""
    return json.dumps(
        canonical(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of ``payload`` under the current schema salt."""
    text = canonical_json({"schema": SCHEMA_VERSION, "payload": payload})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
