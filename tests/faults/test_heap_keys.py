"""Pins on the discrete engine's exact event schedule.

The discrete campaign engine is the oracle every other engine is checked
against, and its request path is tuned for speed.  Any such tuning must
push every heap entry with the same ``(when, priority, seq)`` key, so
pop order -- and with it every digest -- stays the same.  Two pins per
(workload, policy) run catch a change: the outcome digest, and the
simulator's sequence counter after the run, which counts every heap
entry ever pushed (one entry added or dropped moves it even when the
results happen not to).
"""

import pytest

from repro.faults import campaign
from repro.policy import POLICIES

#: (workload, policy) -> (outcome digest, ``system._seq`` after run), for
#: magnitude scenario 0 at seed 7 on the discrete engine.
PINS = {
    ("raid10", "fixed-timeout"): (
        "e06573bb6d14c0b2455215266f2c8595ba4d6028ac412af7ed829a00fe9d9f81", 1284),
    ("raid10", "adaptive-timeout"): (
        "d52eb202cf45cf8d3f837e4618f62d32fefe8873a270b174240e092445f34cba", 1284),
    ("raid10", "retry-backoff"): (
        "409c89f4de5daf37358c6c414dfd0c6d54e2672d831463f25b5c54bc60de9708", 1284),
    ("raid10", "hedged"): (
        "5f0c9dc86722d79e68737bfc0fbe01b1875d7c95928934698f5bf80d9ae50f60", 1284),
    ("raid10", "stutter-aware"): (
        "031e676b701e3434230700486bc43bd0cf12acb57145e59eaa2d6ec1d50ded85", 964),
    ("dht", "fixed-timeout"): (
        "20efa503f50b59f9017862a5f55a101c9f727a7e07f0a461ccfff577d5d8a3b3", 4804),
    ("dht", "adaptive-timeout"): (
        "49ed822713914a3c729f08eb0ed82f3dd178285473381f396c4cabaff6d0e5b8", 4804),
    ("dht", "retry-backoff"): (
        "26e6e309d73d7ba44505a02db908f61d9ba32147c46e7e654245efc5fcbf0aac", 4804),
    ("dht", "hedged"): (
        "e9e76153cd0c78b7b8bf8d6fbf49a086c275c3db41f026c2926efca61fb678f9", 4804),
    ("dht", "stutter-aware"): (
        "303a5643fdc417fcb59ed0c8978b29cda5048c9ba66361a168f8e573ff6c29de", 3604),
}


def test_pins_cover_the_roster():
    assert {policy for _, policy in PINS} == set(POLICIES)


@pytest.mark.parametrize("workload_name,policy", sorted(PINS))
def test_discrete_run_keeps_its_digest_and_heap_entry_count(workload_name, policy):
    workload = campaign.WORKLOADS[workload_name]
    scenario = campaign.generate_scenario(workload, "magnitude", 7, 0)
    systems = []
    outcome = campaign.run_scenario(workload, scenario, policy,
                                    on_system=systems.append)
    assert not outcome.violations
    assert (outcome.digest(), systems[0]._seq) == PINS[workload_name, policy]
