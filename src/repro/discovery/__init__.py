"""Truth-discovery algorithm zoo behind the :class:`TruthDiscoverer` contract.

Membership bar: the conformance suite in
``tests/unit/test_discovery_conformance.py`` — every export here passes
permutation equivariance, unanimity, seed determinism, telemetry
bit-identity, and lossless ledger round-trips.
"""

from .adapters import (
    DateAdapter,
    EnumerateDependenceAdapter,
    MajorityVoteAdapter,
    NoCopierAdapter,
)
from .dawid_skene import FastDawidSkene, FastDawidSkeneConfig
from .lca import LatentCredibilityAnalysis, LcaConfig
from .protocol import DiscovererBase, TruthDiscoverer
from .registry import (
    ALGORITHM_NAMES,
    AlgorithmSpec,
    UnknownAlgorithmError,
    canonical_algorithm,
    list_algorithms,
    make_discoverer,
)
from .truthfinder import TruthFinder, TruthFinderConfig

__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmSpec",
    "DateAdapter",
    "DiscovererBase",
    "EnumerateDependenceAdapter",
    "FastDawidSkene",
    "FastDawidSkeneConfig",
    "LatentCredibilityAnalysis",
    "LcaConfig",
    "MajorityVoteAdapter",
    "NoCopierAdapter",
    "TruthDiscoverer",
    "TruthFinder",
    "TruthFinderConfig",
    "UnknownAlgorithmError",
    "canonical_algorithm",
    "list_algorithms",
    "make_discoverer",
]
