"""Scalar equivalence oracles for the product kernels.

Each module transcribes the paper's equations one element at a time —
per pair, per value group, per worker — the way they are written, so a
reader can audit them line by line.  The product (``src/repro``) has
exactly one implementation of each kernel; these oracles exist only so
the test suites can pin those kernels to the equations:

- :mod:`.dependence` — step 1 of DATE (Eqs. 7-15);
- :mod:`.independence` — step 2, the greedy ordering (Eq. 16);
- :mod:`.accuracy` — step 3, value posteriors and accuracies (Eqs. 17-20);
- :mod:`.support` — support counts and truth selection (Eq. 21, line 28);
- :mod:`.indexing` — the majority-vote / constant-ε starting point;
- :mod:`.date` — whole DATE, ED and NC runs over the step oracles;
- :mod:`.auction` — Alg. 2's greedy cover and critical payments.

Nothing under ``src/repro`` may import this package
(tests/unit/test_oracle_boundary.py).
"""
