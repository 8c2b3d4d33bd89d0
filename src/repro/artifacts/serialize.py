"""JSON payload codec for truth-discovery results that outlive a process.

A :class:`~repro.core.date.TruthDiscoveryResult` is stored as its
arrays, each as base64 of its little-endian bytes (``null`` when the
method has none), plus ``iterations``, ``converged`` and ``method``.
The bytes are the floats themselves, so a decoded result is
bit-identical.  Ids, values and pairs come from the index of the
campaign that adopts the result, which the snapshot fingerprint pins
to the content the result was computed on (DESIGN.md §11).
"""

from __future__ import annotations

import base64
from typing import Any

import numpy as np

from ..core.date import TruthDiscoveryResult, build_result
from ..core.engine import DependenceArrays
from ..core.indexing import DatasetIndex

__all__ = ["truth_result_from_payload", "truth_result_to_payload"]

#: Stored arrays and their on-disk dtypes.
_ARRAYS = {
    "truth_codes": "<i8",
    "claim_acc": "<f8",
    "group_post": "<f8",
    "group_support": "<f8",
    "p_ab": "<f8",
    "p_ba": "<f8",
}


def truth_result_to_payload(result: TruthDiscoveryResult) -> dict[str, Any]:
    """Lower a :class:`TruthDiscoveryResult` to a JSON-safe dict."""
    payload: dict[str, Any] = {}
    for name, dtype in _ARRAYS.items():
        array = getattr(result, name)
        payload[name] = None if array is None else base64.b64encode(
            np.ascontiguousarray(array, dtype=dtype).tobytes()
        ).decode("ascii")
    payload.update(
        iterations=result.iterations, converged=result.converged, method=result.method
    )
    return payload


def truth_result_from_payload(
    payload: dict[str, Any], index: DatasetIndex
) -> TruthDiscoveryResult:
    """Rebuild a :class:`TruthDiscoveryResult` over ``index``.

    Raises :class:`ValueError` when the stored arrays do not fit the
    index's task, claim or value-group counts.
    """
    arrays: dict[str, np.ndarray | None] = {}
    for name, dtype in _ARRAYS.items():
        text = payload[name]
        arrays[name] = None if text is None else np.frombuffer(
            base64.b64decode(text), dtype=dtype
        ).astype(dtype[1:])  # native byte order
    claims = index.arrays
    expected = {
        "truth_codes": index.n_tasks,
        "claim_acc": claims.n_claims,
        "group_post": claims.n_groups,
        "group_support": claims.n_groups,
    }
    for name, size in expected.items():
        if arrays[name] is not None and len(arrays[name]) != size:
            raise ValueError(
                f"stored {name} has {len(arrays[name])} entries; "
                f"the campaign index needs {size}"
            )
    dependence = None
    if arrays["p_ab"] is not None:
        dependence = DependenceArrays(p_ab=arrays["p_ab"], p_ba=arrays["p_ba"])
    return build_result(
        index,
        arrays["truth_codes"],
        arrays["claim_acc"],
        arrays["group_post"],
        arrays["group_support"],
        dependence,
        iterations=int(payload["iterations"]),
        converged=bool(payload["converged"]),
        method=str(payload["method"]),
    )
