"""Unit tests for the fault-injection subsystem.

Plans are pure data (validated, JSON round-trippable, deterministic);
the injector applies one plan to one machine build: OST state
transitions on the timeline, message loss/delay on the communicator,
rank crashes on registered processes.
"""

import pytest

from repro.errors import FaultPlanError
from repro.faults import (
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    resolve_fault_plan,
    two_ost_failure_plan,
)
from repro.lustre.ost import OstState
from repro.machines import jaguar
from repro.sim.rng import RngRegistry


def build(seed=0, n_osts=8, n_ranks=8, plan=None):
    return jaguar(n_osts=n_osts).build(
        n_ranks=n_ranks, seed=seed, faults=plan
    )


class TestPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=1.0, kind="ost_meltdown", target=0)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=-1.0, kind="ost_fail", target=0)

    def test_brownout_factor_range(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0.0, kind="ost_brownout", target=0, factor=0.0)
        FaultEvent(time=0.0, kind="ost_brownout", target=0, factor=0.5)

    def test_msg_loss_probability_range(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0.0, kind="msg_loss", factor=1.0)

    def test_events_sorted_by_time(self):
        plan = FaultPlan(events=(
            FaultEvent(time=2.0, kind="ost_fail", target=1),
            FaultEvent(time=1.0, kind="ost_fail", target=0),
        ))
        assert [e.time for e in plan.events] == [1.0, 2.0]

    @pytest.mark.parametrize("field", ["time", "duration"])
    def test_nan_time_or_duration_rejected(self, field):
        kwargs = {"time": 1.0, "kind": "ost_hang", "target": 0,
                  field: float("nan")}
        with pytest.raises(FaultPlanError):
            FaultEvent(**kwargs)

    @pytest.mark.parametrize("kind", ["msg_delay", "block_bitflip",
                                      "stale_index"])
    def test_nan_factor_rejected(self, kind):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0.0, kind=kind, target=0, factor=float("nan"))

    @pytest.mark.parametrize("field", ["mtbf", "mttr"])
    def test_nan_stochastic_means_rejected(self, field):
        kwargs = {"mtbf": 10.0, "max_stochastic": 1, field: float("nan")}
        with pytest.raises(FaultPlanError):
            FaultPlan(**kwargs)

    def test_stochastic_needs_budget(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(mtbf=10.0)

    def test_out_of_range_target_caught_at_materialize(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind="ost_fail", target=99),
        ))
        rng = RngRegistry(0).get("faults")
        with pytest.raises(FaultPlanError):
            plan.materialize(rng, n_osts=8, n_ranks=8)


class TestPolicy:
    def test_backoff_doubles_and_caps(self):
        p = RetryPolicy(backoff_base=0.25, backoff_cap=1.0)
        assert p.backoff(1) == 0.25
        assert p.backoff(2) == 0.5
        assert p.backoff(3) == 1.0
        assert p.backoff(10) == 1.0

    def test_bad_constants_rejected(self):
        with pytest.raises(FaultPlanError):
            RetryPolicy(write_timeout=0.0)
        with pytest.raises(FaultPlanError):
            RetryPolicy(backoff_base=2.0, backoff_cap=1.0)

    @pytest.mark.parametrize("field", [
        "write_timeout", "backoff_base", "backoff_cap",
        "heartbeat_interval", "sc_timeout", "run_timeout", "flush_timeout",
    ])
    def test_nan_constants_rejected(self, field):
        with pytest.raises(FaultPlanError):
            RetryPolicy(**{field: float("nan")})


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        plan = two_ost_failure_plan(osts=(1, 3), at=2.5).with_policy(
            max_retries=5
        )
        path = tmp_path / "plan.json"
        plan.save_json(str(path))
        loaded = FaultPlan.from_json(str(path))
        assert loaded == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"events": [], "surprise": 1})

    def test_bad_file_raises_plan_error(self, tmp_path):
        p = tmp_path / "nope.json"
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json(str(p))

    def test_unknown_event_kind_named_in_error(self):
        """from_dict must name the offending kind and event position,
        not blow up inside FaultEvent with a generic message."""
        with pytest.raises(FaultPlanError, match=r"events\[1\].*ost_meltdown"):
            FaultPlan.from_dict({
                "events": [
                    {"time": 1.0, "kind": "ost_fail", "target": 0},
                    {"time": 2.0, "kind": "ost_meltdown", "target": 1},
                ],
            })

    def test_nan_policy_in_json_rejected(self, tmp_path):
        """Python's json reads a bare NaN; the plan must not load."""
        path = tmp_path / "plan.json"
        path.write_text('{"events": [], "policy": {"write_timeout": NaN}}')
        with pytest.raises(FaultPlanError, match="write_timeout"):
            FaultPlan.from_json(str(path))

    def test_non_object_event_rejected(self):
        with pytest.raises(FaultPlanError, match=r"events\[0\]"):
            FaultPlan.from_dict({"events": ["ost_fail"]})

    def test_unknown_event_keys_name_position_and_kind(self):
        with pytest.raises(FaultPlanError, match=r"events\[0\].*ost_fail"):
            FaultPlan.from_dict({
                "events": [
                    {"time": 1.0, "kind": "ost_fail", "target": 0,
                     "surprise": 1},
                ],
            })


class TestResolution:
    def test_no_plan_means_no_injector(self):
        assert resolve_fault_plan() is None
        m = build()
        assert m.faults is None

    def test_explicit_plan_attaches_injector(self):
        m = build(plan=two_ost_failure_plan())
        assert m.faults is not None
        assert m.faults.policy == two_ost_failure_plan().policy

    def test_env_var_resolution(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        two_ost_failure_plan().save_json(str(path))
        monkeypatch.setenv("REPRO_FAULTS", str(path))
        assert resolve_fault_plan() == two_ost_failure_plan()

    def test_explicit_beats_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        two_ost_failure_plan(osts=(0,)).save_json(str(path))
        monkeypatch.setenv("REPRO_FAULTS", str(path))
        b = two_ost_failure_plan(osts=(1,))
        assert resolve_fault_plan(b) is b
        assert build(plan=b).faults.plan is b


class TestInjector:
    def test_timeline_applies_ost_states(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind="ost_fail", target=0),
            FaultEvent(time=1.0, kind="ost_hang", target=1, duration=2.0),
            FaultEvent(time=1.0, kind="ost_brownout", target=2,
                       factor=0.25),
        ))
        m = build(plan=plan)
        m.faults.arm()
        m.env.run(until=1.5)
        pool = m.pool
        assert pool.state[0] == OstState.FAILED
        assert pool.state[1] == OstState.HUNG
        assert pool.state[2] == OstState.DEGRADED
        # The hang has a duration: it recovers.
        m.env.run(until=4.0)
        assert pool.state[1] == OstState.UP

    def test_arm_is_idempotent(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind="ost_fail", target=0),
        ))
        m = build(plan=plan)
        m.faults.arm()
        m.faults.arm()
        m.env.run(until=2.0)
        assert len(m.faults.injected) == 1

    def test_crash_rank_kills_registered_process(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind="crash_rank", target=3),
        ))
        m = build(plan=plan)

        def forever(env):
            while True:
                yield env.timeout(10.0)

        victim = m.env.process(forever(m.env), name="victim")
        bystander = m.env.process(forever(m.env), name="bystander")
        m.faults.register(3, victim)
        m.faults.register(4, bystander)
        m.faults.arm()
        m.env.run(until=2.0)
        assert not victim.is_alive
        assert bystander.is_alive
        assert 3 in m.faults.crashed_ranks

    def test_register_after_crash_kills_immediately(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind="crash_rank", target=0),
        ))
        m = build(plan=plan)
        m.faults.arm()
        m.env.run(until=2.0)

        def forever(env):
            while True:
                yield env.timeout(10.0)

        late = m.env.process(forever(m.env), name="late")
        m.faults.register(0, late)
        assert not late.is_alive

    def test_message_loss_is_seeded_and_counted(self):
        plan = FaultPlan(events=(
            FaultEvent(time=0.0, kind="msg_loss", factor=0.5),
        ))

        def dropped_after(seed):
            m = build(seed=seed, plan=plan)
            from repro.mpi.comm import SimComm

            comm = SimComm(m.env, 4)
            comm.faults = m.faults
            m.faults.arm()
            m.env.run(until=0.1)
            for i in range(100):
                comm.send(0, 1, payload=i, tag=0)
            return m.faults.messages_dropped

        d1, d2 = dropped_after(7), dropped_after(7)
        assert d1 == d2  # same seed, same drops
        assert 0 < d1 < 100

    def test_stochastic_timeline_deterministic_per_seed(self):
        plan = FaultPlan(mtbf=5.0, mttr=2.0, max_stochastic=4)

        def timeline(seed):
            rng = RngRegistry(seed).get("faults")
            return plan.materialize(rng, n_osts=8, n_ranks=8)

        assert timeline(3) == timeline(3)
        assert timeline(3) != timeline(4)

    def test_summary_counts(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind="ost_fail", target=0),
        ))
        m = build(plan=plan)
        m.faults.arm()
        m.env.run(until=2.0)
        s = m.faults.summary()
        assert s["n_injected"] == 1.0
        assert s["n_crashed_ranks"] == 0.0
