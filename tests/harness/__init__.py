"""Reusable test harnesses.

:mod:`tests.harness.cache_corpus` and :mod:`tests.harness.system_corpus`
are recorded digest corpora: seeded random simulations whose digests the
simulator must reproduce.  :mod:`tests.harness.executor_contract` is the
conformance matrix every sweep executor must pass.
"""
