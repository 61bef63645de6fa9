"""Pinned table digests for E6 (variance) and E14 (availability).

Both tables come from many independent seeded runs, so a change anywhere
in the disk model, the stutter injector, the routers or the availability
meter can move a cell without breaking any shape test.  The digests below
are :meth:`Table.digest` at the default arguments; they were taken from
the code that produced the current EXPERIMENTS.md, and a PR that moves
them must say why.
"""

from repro.experiments import e06_variance, e14_availability


def test_e06_default_digest_pinned():
    assert e06_variance.run().digest() == (
        "7acbb3a50edc63902eb47c90ca925c6e4ebce549b56857a279d3ee2e81a26744"
    )


def test_e14_default_digest_pinned():
    assert e14_availability.run().digest() == (
        "cbfbf61aadcc8c0a7f843c3a8e9883769dfbedf234c8a8d1e8c36cf8d0b67b55"
    )
