"""Reverse-auction stage of IMC2 (Secs. II, V, VI).

- :mod:`repro.auction.soac` — the Social Optimization Accuracy
  Coverage problem (Eqs. 4-6): instance container, feasibility checks,
  cost accounting, and the CSR/CSC accuracy index;
- :mod:`repro.auction.config` — :class:`AuctionConfig`, the knobs of
  the auction stage;
- :mod:`repro.auction.reverse_auction` — Alg. 2's entry point:
  :class:`ReverseAuction` and its :class:`AuctionOutcome`;
- :mod:`repro.auction.engine` — Alg. 2 itself: greedy winner
  selection by effective accuracy unit cost, batched over the sparse
  accuracy index, plus critical-value payments by prefix-shared
  reruns (DESIGN.md §10).  Its bit-for-bit equivalence oracle, a
  scalar per-worker transcription, lives in ``tests/oracles/``;
- :mod:`repro.auction.optimal` — exact optimum via integer linear
  programming (scipy), for approximation-ratio studies on small
  instances;
- :mod:`repro.auction.properties` — empirical verification of the
  mechanism's claimed properties (individual rationality, truthfulness,
  monotonicity, approximation bound 2eH_Ω).
"""

from .config import AuctionConfig
from .optimal import solve_optimal
from .properties import (
    approximation_bound,
    bid_utility_curve,
    verify_individual_rationality,
    verify_monotonicity,
    verify_truthfulness,
)
from .reverse_auction import AuctionOutcome, ReverseAuction
from .soac import SOACInstance, SparseAccuracy

__all__ = [
    "AuctionConfig",
    "AuctionOutcome",
    "ReverseAuction",
    "SOACInstance",
    "SparseAccuracy",
    "approximation_bound",
    "bid_utility_curve",
    "solve_optimal",
    "verify_individual_rationality",
    "verify_monotonicity",
    "verify_truthfulness",
]
