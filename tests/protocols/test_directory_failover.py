"""Directory failover: crash → election → zero-loss recovery.

The acceptance property of the directory's resilience story: killing the
node hosting the elected directory (soft state wiped) must end with a
re-elected primary holding *every* advertisement again and answering
every request with row-identical results, and a follow-up handoff must
preserve both.  The experiment itself asserts nothing — the checks live
here and in the CI chaos path.
"""

from __future__ import annotations

from repro.core.directory import SemanticDirectory
from repro.experiments import directory_failover
from repro.obs import Observability
from repro.protocols.deployment import Deployment, DeploymentConfig


class TestFailover:
    def test_failover_recovers_all_advertisements(self):
        result = directory_failover(seed=0)
        assert result.extras["services_lost"] == 0, "advertisements lost in failover"
        assert result.extras["recovered"] == 1.0
        assert result.extras["results_equal"] == 1.0, "post-crash results diverged"
        assert result.extras["handoff_ok"] == 1.0, "handoff lost state"
        assert result.extras["caps_post"] == result.extras["caps_pre"]
        assert result.extras["caps_handoff"] == result.extras["caps_pre"]
        assert result.extras["recovery_s"] > 0

    def test_failover_emits_fault_chronology(self):
        events = []

        class _Sink:
            def emit(self, span):
                pass

            def emit_event(self, event):
                events.append(event)

        obs = Observability(sinks=[_Sink()])
        result = directory_failover(seed=1, obs=obs)
        assert result.extras["services_lost"] == 0
        kinds = {event.kind for event in events}
        assert any(kind.startswith("fault.") for kind in kinds), kinds
        # The pull-based export mirrors directory counters after recovery.
        names = {series["name"] for series in obs.metrics.snapshot()}
        assert "dir.capability_matches" in names


class TestRetiredShardKey:
    def test_retired_key_hosts_one_directory(self, small_workload):
        from repro.core.codes import CodeTable
        from repro.ontology.registry import OntologyRegistry

        table = CodeTable(OntologyRegistry(small_workload.ontologies))
        deployment = Deployment(
            DeploymentConfig(
                node_count=6,
                protocol="sariadne",
                seed=3,
                directory_capable_fraction=1.0,
                directory_shards=4,
            ),
            table=table,
        )
        deployment.run_until_directories(minimum=1)
        agent = next(iter(deployment.directory_agents.values()))
        assert type(agent.directory) is SemanticDirectory
        assert agent.local_capability_count() == 0
