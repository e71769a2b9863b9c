"""FaultPlan validation and serialization."""

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.faults.plan import (
    FaultPlan,
    KillSpec,
    full_plans,
    smoke_plans,
)


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(corrupt_rate=-0.1)

    def test_recovery_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(timeout_rounds=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(max_retries=0)

    def test_delay_rounds_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(delay_max_rounds=0)

    def test_wire_faults_property(self):
        assert not FaultPlan().wire_faults
        assert FaultPlan(drop_rate=0.01).wire_faults
        assert FaultPlan(delay_rate=0.01).wire_faults

    def test_killed_at(self):
        plan = FaultPlan(kills=(KillSpec(pe=2, at_event=5),
                                KillSpec(pe=2, at_event=3),
                                KillSpec(pe=0)))
        assert plan.killed_at(2) == 3
        assert plan.killed_at(0) == 0
        assert plan.killed_at(1) is None

    def test_kill_rows_must_be_counts(self):
        with pytest.raises(ConfigurationError):
            KillSpec(pe=1, at_event=-1)
        with pytest.raises(ConfigurationError):
            KillSpec(pe="1")

    @pytest.mark.parametrize("words", [7, 0, -1])
    def test_queue_holds_one_command(self, words):
        with pytest.raises(ConfigurationError, match="at least 8"):
            FaultPlan(queue_capacity_words=words)
        with pytest.raises(ConfigurationError, match="at least 8"):
            FaultPlan.from_dict({"queue_capacity_words": words})

    def test_a_one_command_queue_runs(self):
        def program(ctx):
            src, dst = ctx.alloc(4), ctx.alloc(4)
            flag = ctx.alloc_flag()
            src.data[:] = 1.0 + ctx.pe
            if ctx.pe == 0:
                ctx.put(1, dst, src, recv_flag=flag)
            else:
                yield from ctx.flag_wait(flag, 1)
            yield from ctx.barrier()
            return float(dst.data.sum())

        plan = FaultPlan(queue_capacity_words=8)
        machine = Machine(MachineConfig(num_cells=2, fault_plan=plan,
                                        memory_per_cell=1 << 20))
        assert machine.run(program) == [0.0, 4.0]

    @pytest.mark.parametrize("pe", [4, 9, -1])
    def test_machine_refuses_a_kill_outside_it(self, pe):
        plan = FaultPlan(name="stray", kills=(KillSpec(pe=pe),))
        with pytest.raises(ConfigurationError, match=rf"\[{pe}\]"):
            Machine(MachineConfig(num_cells=4, fault_plan=plan,
                                  memory_per_cell=1 << 20))


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan(
            name="rt", seed=7, drop_rate=0.1, delay_rate=0.2,
            kills=(KillSpec(pe=1, at_event=3),),
            degrade=True, queue_capacity_words=16)
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            FaultPlan.from_dict({"name": "x", "drop_rat": 0.5})
        assert "drop_rat" in str(err.value)

    @pytest.mark.parametrize(("entry", "key"), [
        ({"pe": 1, "at_events": 3}, "at_events"),
        ({"at_event": 3}, "'pe'"),
        ({"pe": 1, "at_event": "3"}, "at_event"),
        ([1, 3], "[1, 3]"),
    ])
    def test_malformed_kill_named(self, entry, key):
        with pytest.raises(ConfigurationError) as err:
            FaultPlan.from_dict({"kills": [entry]})
        assert key in str(err.value)

    @pytest.mark.parametrize(("data", "key", "instead"), [
        ({"stalls": [{"pe": 0, "at_resume": 2, "passes": 4}]}, "'stalls'",
         "drop the key"),
        ({"watchdog_passes": 6}, "'watchdog_passes'", "drop the key"),
        ({"kills": [{"pe": 1, "at_resume": 3}]}, "'kills[].at_resume'",
         "'kills[].at_event'"),
    ])
    def test_retired_keys_refused(self, data, key, instead):
        with pytest.raises(ConfigurationError) as err:
            FaultPlan.from_dict(data)
        assert key in str(err.value) and instead in str(err.value)

    def test_load_single_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps({"name": "a", "seed": 3}))
        plans = FaultPlan.load(single)
        assert [p.name for p in plans] == ["a"]

        many = tmp_path / "many.json"
        many.write_text(json.dumps(
            [{"name": "a"}, {"name": "b", "dup_rate": 0.5}]))
        plans = FaultPlan.load(many)
        assert [p.name for p in plans] == ["a", "b"]
        assert plans[1].dup_rate == 0.5


class TestBuiltinSets:
    def test_smoke_plans_hit_every_wire_fault_class(self):
        plans = smoke_plans()
        assert all(p.wire_faults for p in plans)
        rates = {}
        for p in plans:
            for attr in ("drop_rate", "dup_rate", "corrupt_rate",
                         "delay_rate"):
                rates[attr] = max(rates.get(attr, 0.0), getattr(p, attr))
        # The issue demands every fault class at >= 1% rates.
        assert all(rate >= 0.01 for rate in rates.values())

    def test_full_plans_cover_isolated_and_combined(self):
        names = {p.name for p in full_plans()}
        assert {"drop", "dup", "corrupt", "delay", "storm",
                "squeeze"} <= names

    def test_squeeze_plan_tightens_queues(self):
        squeeze = next(p for p in full_plans() if p.name == "squeeze")
        assert squeeze.queue_capacity_words == 16

