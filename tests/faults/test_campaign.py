"""The fault-campaign engine: scenarios, policies, and the oracle.

The oracle tests plant deliberately misbehaving policies -- one that
drops requests, one that fabricates results, one that carries hidden
state across runs -- and assert each invariant catches its culprit.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults.campaign import (
    FAMILIES,
    WORKLOADS,
    CampaignWorkload,
    FaultEvent,
    InvariantOracle,
    generate_scenario,
    generate_scenarios,
    run_campaign,
    run_scenario,
)
from repro.policy import POLICIES, MitigationPolicy, make_policy

pytestmark = pytest.mark.campaign

# A shrunk raid10: plenty of queueing, a fraction of the runtime.
FAST = CampaignWorkload(
    name="raid10", substrate="storage", prefix="d",
    n_pairs=2, rate=5.5, work=0.5, gap=0.03, n_requests=80,
)


class TestScenarioGeneration:
    def test_same_seed_same_scenario(self):
        a = generate_scenario(FAST, "magnitude", seed=7, index=0)
        b = generate_scenario(FAST, "magnitude", seed=7, index=0)
        assert a == b

    def test_different_seeds_differ(self):
        drawn = {
            generate_scenario(FAST, "magnitude", seed=s, index=0).events
            for s in range(8)
        }
        assert len(drawn) > 1

    def test_every_family_generates_valid_events(self):
        names = {n for pair in FAST.group_names() for n in pair}
        for family in FAMILIES:
            for scenario in generate_scenarios(FAST, family, seed=3, count=4):
                assert scenario.events, family
                for event in scenario.events:
                    assert event.component in names
                    assert 0 <= event.onset <= FAST.span

    def test_correlated_hits_one_whole_pair(self):
        scenario = generate_scenario(FAST, "correlated", seed=7, index=0)
        hit = frozenset(e.component for e in scenario.events)
        assert hit in {frozenset(pair) for pair in FAST.group_names()}

    def test_failstop_family_is_failstop_only(self):
        for scenario in generate_scenarios(FAST, "failstop", seed=7, count=4):
            assert all(e.kind == "fail-stop" for e in scenario.events)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="gc-pause"):
            generate_scenario(FAST, "gc-pause", seed=7, index=0)

    def test_fault_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("d0", "flaky", onset=1.0)
        with pytest.raises(ValueError):
            FaultEvent("d0", "stutter", onset=1.0, duration=0.0, factor=0.5)


class TestPoliciesUnderTheOracle:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_roster_policy_passes_every_family(self, policy, family):
        scenario = generate_scenario(FAST, family, seed=7, index=0)
        outcome = run_scenario(FAST, scenario, policy)
        assert outcome.violations == []
        assert outcome.unresolved_requests == 0
        assert len(outcome.latencies) == FAST.n_requests - outcome.failed_requests
        latencies = outcome.latencies
        assert isinstance(latencies, np.ndarray)
        assert latencies.ndim == 1 and latencies.dtype == np.float64
        assert latencies.flags.c_contiguous

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_rerun_is_byte_identical(self, policy):
        scenario = generate_scenario(FAST, "correlated", seed=7, index=0)
        first = run_scenario(FAST, scenario, policy)
        second = run_scenario(FAST, scenario, policy)
        assert first.digest() == second.digest()

    def test_stutter_aware_consumes_spec_violations(self):
        scenario = generate_scenario(FAST, "correlated", seed=7, index=0)
        policy = make_policy("stutter-aware")
        run_scenario(FAST, scenario, policy)
        assert policy.violations_seen > 0

    def test_make_policy_unknown_name(self):
        with pytest.raises(KeyError, match="carrier-pigeon"):
            make_policy("carrier-pigeon")


class TestOutcomeDigest:
    """The digest hashes the float64 bytes: bitwise, container-blind."""

    @pytest.fixture(scope="class")
    def outcome(self):
        scenario = generate_scenario(FAST, "magnitude", seed=7, index=0)
        return run_scenario(FAST, scenario, "fixed-timeout")

    def test_list_and_array_digest_alike(self, outcome):
        as_list = replace(outcome, latencies=outcome.latencies.tolist())
        assert isinstance(as_list.latencies, np.ndarray)
        assert as_list.latencies.dtype == np.float64
        assert as_list.digest() == outcome.digest()

    def test_non_contiguous_input_is_coerced(self, outcome):
        doubled = np.repeat(outcome.latencies, 2)[::2]
        assert not doubled.flags.c_contiguous
        strided = replace(outcome, latencies=doubled)
        assert strided.latencies.flags.c_contiguous
        assert strided.digest() == outcome.digest()

    def test_one_ulp_anywhere_changes_the_digest(self, outcome):
        base = outcome.digest()
        for i in range(len(outcome.latencies)):
            bumped = outcome.latencies.copy()
            bumped[i] = np.nextafter(bumped[i], np.inf)
            assert replace(outcome, latencies=bumped).digest() != base, i

    def test_swapping_two_latencies_changes_the_digest(self, outcome):
        latencies = outcome.latencies.copy()
        i, j = 0, int(np.flatnonzero(latencies != latencies[0])[0])
        latencies[[i, j]] = latencies[[j, i]]
        assert replace(outcome, latencies=latencies).digest() != outcome.digest()

    def test_negative_zero_changes_the_digest(self, outcome):
        plus = replace(outcome, latencies=[0.0, 1.0])
        minus = replace(outcome, latencies=[-0.0, 1.0])
        assert plus.digest() != minus.digest()

    def test_sample_count_is_hashed(self, outcome):
        longer = np.append(outcome.latencies, 0.0)
        assert replace(outcome, latencies=longer).digest() != outcome.digest()

    @pytest.mark.parametrize("field", [
        "issued_work", "completed_work", "claimed_work", "wasted_work",
        "failed_work", "outstanding_attempts", "unresolved_requests",
        "failed_requests",
    ])
    def test_every_counter_is_hashed(self, outcome, field):
        value = getattr(outcome, field)
        changed = replace(outcome, **{field: value + 1})
        assert changed.digest() != outcome.digest()

    def test_identity_and_servers_are_hashed(self, outcome):
        base = outcome.digest()
        assert replace(outcome, policy="hedged").digest() != base
        assert replace(outcome, scenario_index=1).digest() != base
        servers = dict(outcome.server_work)
        name = sorted(servers)[0]
        servers[name] = np.nextafter(servers[name], np.inf)
        assert replace(outcome, server_work=servers).digest() != base


class _BlackHolePolicy(MitigationPolicy):
    """Violates no-hang: accepts requests and never routes them."""

    name = "black-hole"

    def start(self, request):
        pass


class _FabricatingPolicy(MitigationPolicy):
    """Violates work conservation: claims success no server earned."""

    name = "fabricator"

    def start(self, request):
        self.engine._resolve(request, 0.0)


class _StatefulPolicy(MitigationPolicy):
    """Violates seed determinism: routing depends on cross-run state."""

    name = "stateful"
    _calls = 0  # class-level: deliberately survives across runs

    def pick(self, request):
        type(self)._calls += 1
        live = self.engine.live_candidates(request)
        return live[type(self)._calls % len(live)]


class TestInvariantOracle:
    def test_no_hang_detects_dropped_requests(self):
        scenario = generate_scenario(FAST, "failstop", seed=7, index=0)
        outcome = run_scenario(FAST, scenario, _BlackHolePolicy)
        assert any("no-hang" in v for v in outcome.violations)

    def test_work_conservation_detects_fabricated_results(self):
        scenario = generate_scenario(FAST, "failstop", seed=7, index=0)
        outcome = run_scenario(FAST, scenario, _FabricatingPolicy)
        assert any("work-conservation" in v for v in outcome.violations)

    def test_determinism_check_detects_hidden_state(self):
        # Odd request count, so the stateful policy's leaked counter
        # changes parity between runs and actually shifts the routing.
        workload = replace(FAST, n_requests=81)
        scenario = generate_scenario(workload, "magnitude", seed=7, index=0)
        first = run_scenario(workload, scenario, _StatefulPolicy)
        second = run_scenario(workload, scenario, _StatefulPolicy)
        violations = InvariantOracle().check_determinism(first, second)
        assert violations and "determinism" in violations[0]

    def test_clean_run_has_no_violations(self):
        scenario = generate_scenario(FAST, "magnitude", seed=7, index=0)
        outcome = run_scenario(FAST, scenario, "fixed-timeout")
        assert InvariantOracle().check(outcome) == []


class TestCampaignSweep:
    def test_oracle_runs_on_every_scenario_and_scorecard_shape(self):
        result = run_campaign(
            seed=7,
            workloads=("raid10",),
            families=("correlated", "failstop"),
            scenarios_per_family=1,
            n_requests=80,
        )
        # families x policies cells, one outcome per (scenario, policy).
        assert len(result.cells) == 2 * len(POLICIES)
        assert len(result.outcomes) == 2 * len(POLICIES)
        assert result.violations == []
        table = result.table()
        assert table.column("oracle") == ["ok"] * len(table)

    def test_workload_roster(self):
        assert set(WORKLOADS) == {"raid10", "dht", "surge"}
        for workload in WORKLOADS.values():
            assert workload.expected_service > 0
            assert workload.horizon > workload.span
