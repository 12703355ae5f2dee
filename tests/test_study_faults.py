"""Fault injection (repro.faults) and the sweep's recovery paths.

Every fault class the :class:`~repro.faults.FaultPlan` can inject —
worker crash, worker exception, straggler, parent interrupt, corrupted
write — has a test here (or in ``test_study_checkpoint.py`` /
``test_study_dataset.py``) driving the corresponding recovery or
rejection path, per the issue's acceptance criteria.
"""

import os
import subprocess
import sys

import pytest

from repro.apps import get_application
from repro.chips import get_chip
from repro.compiler import enumerate_configs
from repro.errors import InjectedFault
from repro.faults import CRASH_EXIT_CODE, FAULT_KINDS, FaultPlan
from repro.graphs import rmat_graph
from repro.graphs.inputs import StudyInput
from repro.study import StudyConfig, run_study


@pytest.fixture(scope="module")
def tiny_config() -> StudyConfig:
    """1 app x 1 input x 2 chips x 4 configurations: 8 shards."""
    graph = rmat_graph(6, edge_factor=6, seed=3, name="f-rmat")
    return StudyConfig(
        apps=[get_application("bfs-wl")],
        inputs={
            "f-rmat": StudyInput(
                name="f-rmat",
                input_class="social",
                description="fault test rmat",
                _builder=lambda: graph,
            )
        },
        chips=[get_chip("GTX1080"), get_chip("MALI")],
        configs=enumerate_configs()[::24],
    )


@pytest.fixture(scope="module")
def baseline(tiny_config):
    return run_study(tiny_config, jobs=1)


class TestFaultPlanTokens:
    def test_unarmed_fire_is_noop(self, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        assert plan.fire("error", "anywhere") is False

    def test_tokens_consumed_exactly_once(self, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("slow", "here", count=2, param=0.0)
        assert plan.fire("slow", "here") is True
        assert plan.fire("slow", "here") is True
        assert plan.fire("slow", "here") is False

    def test_arm_accumulates(self, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("slow", "k")
        plan.arm("slow", "k")
        assert plan.armed() == [("slow", "k"), ("slow", "k")]

    def test_keys_are_isolated(self, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("error", "shard-0-1")
        assert plan.fire("error", "shard-0-10") is False
        with pytest.raises(InjectedFault):
            plan.fire("error", "shard-0-1")

    def test_error_raises_injected_fault(self, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("error", "k")
        with pytest.raises(InjectedFault, match="injected error at k"):
            plan.fire("error", "k")

    def test_interrupt_raises_keyboard_interrupt(self, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("interrupt", "k")
        with pytest.raises(KeyboardInterrupt):
            plan.fire("interrupt", "k")

    def test_unknown_kind_rejected(self, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        with pytest.raises(ValueError):
            plan.arm("meteor", "k")
        with pytest.raises(ValueError):
            plan.arm("error", "k", count=0)

    def test_plan_survives_pickling(self, tmp_path):
        import pickle

        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("slow", "k")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.fire("slow", "k") is True
        assert plan.fire("slow", "k") is False  # same spool, shared tokens

    def test_seeded_plan_is_deterministic(self, tmp_path):
        keys = [f"shard-0-{i}" for i in range(50)]
        a = FaultPlan.seeded(str(tmp_path / "a"), 42, keys, rate=0.2)
        b = FaultPlan.seeded(str(tmp_path / "b"), 42, keys, rate=0.2)
        c = FaultPlan.seeded(str(tmp_path / "c"), 43, keys, rate=0.2)
        assert a.armed() == b.armed()
        assert 0 < len(a.armed()) < len(keys)
        assert a.armed() != c.armed()

    def test_kind_vocabulary(self):
        assert set(FAULT_KINDS) == {
            "crash",
            "error",
            "interrupt",
            "slow",
            "corrupt",
        }


class TestRecoveryPaths:
    """Injected faults in a parallel sweep must not change the dataset."""

    def test_worker_crash_requeues_shard(self, tiny_config, baseline, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("crash", "shard-1-2")
        messages = []
        dataset = run_study(
            tiny_config,
            progress=messages.append,
            jobs=2,
            faults=plan,
            backoff=0.01,
        )
        assert dataset == baseline
        assert any("pool died" in m and "re-queuing" in m for m in messages)
        assert plan.armed() == []  # the crash actually fired

    def test_worker_error_requeues_shard(self, tiny_config, baseline, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("error", "shard-0-1")
        messages = []
        dataset = run_study(
            tiny_config,
            progress=messages.append,
            jobs=2,
            faults=plan,
            backoff=0.01,
        )
        assert dataset == baseline
        assert any("re-queued (retry 1/" in m for m in messages)

    def test_repeated_pool_death_falls_back_in_process(
        self, tiny_config, baseline, tmp_path
    ):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("crash", "shard-0-0", count=5)
        messages = []
        dataset = run_study(
            tiny_config,
            progress=messages.append,
            jobs=2,
            faults=plan,
            retries=1,
            backoff=0.01,
        )
        assert dataset == baseline
        assert any("in-process" in m for m in messages)

    def test_repeated_shard_error_falls_back_in_process(
        self, tiny_config, baseline, tmp_path
    ):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("error", "shard-0-1", count=5)
        messages = []
        dataset = run_study(
            tiny_config,
            progress=messages.append,
            jobs=2,
            faults=plan,
            retries=1,
            backoff=0.01,
        )
        assert dataset == baseline
        assert any("failed 2 times" in m and "in-process" in m for m in messages)

    def test_slow_shard_changes_nothing(self, tiny_config, baseline, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("slow", "shard-0-0", param=0.05)
        dataset = run_study(tiny_config, jobs=2, faults=plan, backoff=0.01)
        assert dataset == baseline
        assert plan.armed() == []

    def test_negative_retries_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            run_study(tiny_config, jobs=2, retries=-1)

    def test_serial_sweep_fires_faults_too(self, tiny_config, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("error", "shard-0-0")
        with pytest.raises(InjectedFault):
            run_study(tiny_config, jobs=1, faults=plan)


class TestBlockOutcomes:
    """A block is one pool task, but its shards fail and retry alone."""

    def test_error_shard_comes_back_alone(self, tiny_config, baseline, tmp_path):
        from repro.study.dataset import TestCase
        from repro.study.runner import _price_block, collect_traces

        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("error", "shard-0-1")
        traces = collect_traces(tiny_config)
        programs = {app.name: app.program() for app in tiny_config.apps}
        state = (programs, traces, tiny_config.chips, tiny_config.configs,
                 tiny_config.repetitions, "batch")
        block = [(0, cfg_idx) for cfg_idx in range(len(tiny_config.configs))]
        outcomes = _price_block(block, state, plan)

        assert [task for task, _ in outcomes] == block
        failed = [t for t, result in outcomes if isinstance(result, Exception)]
        assert failed == [(0, 1)]
        assert isinstance(dict(outcomes)[(0, 1)], InjectedFault)
        chip = tiny_config.chips[0].short_name
        for (_, cfg_idx), rows in outcomes:
            if cfg_idx == 1:
                continue
            assert len(rows) == len(traces)
            for app, inp, times in rows:
                expected = baseline.times(
                    TestCase(app, inp, chip), tiny_config.configs[cfg_idx]
                )
                assert list(expected) == times

    def test_only_the_failed_shard_is_retried(
        self, tiny_config, baseline, tmp_path
    ):
        from repro.obs import Recorder

        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("error", "shard-0-1")
        messages = []
        rec = Recorder()
        dataset = run_study(
            tiny_config,
            progress=messages.append,
            jobs=2,
            faults=plan,
            backoff=0.0,
            recorder=rec,
        )
        assert dataset == baseline
        retried = [m for m in messages if "re-queued" in m]
        assert len(retried) == 1 and retried[0].startswith("shard-0-1 failed")
        assert rec.counter_value("study.shards.retried") == 1
        blocks = [s for s in rec.spans if s.name == "study.price_block"]
        # The armed shard starts a new block, so chip 0 is [0-0] and
        # [0-1, 0-2, 0-3] (the latter priced without its failed shard);
        # chip 1 is one block; then the one-shard retry: every shard
        # priced exactly once.
        assert sorted(s.attrs["shards"] for s in blocks) == [1, 1, 2, 4]

    @pytest.mark.parametrize(
        "chips, jobs, count",
        [(6, 4, 12), (4, 2, 4), (6, 1, 6), (2, 4, 4), (1, 2, 2), (3, 2, 6)],
    )
    def test_block_count_is_a_multiple_of_jobs(self, chips, jobs, count):
        from repro.study.runner import _blocks

        tasks = [(chip, cfg) for chip in range(chips) for cfg in range(96)]
        blocks = _blocks(tasks, jobs, per_shard=False)
        assert len(blocks) == count
        assert len({len(block) for block in blocks}) == 1
        assert [task for block in blocks for task in block] == tasks
        assert all(len({chip for chip, _ in block}) == 1 for block in blocks)

    def test_armed_shard_starts_a_block(self, tmp_path):
        from repro.study.runner import _blocks

        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("interrupt", "shard-0-1")
        plan.arm("error", "shard-0-2")
        tasks = [(chip, cfg) for chip in range(2) for cfg in range(4)]
        assert _blocks(tasks, 1, per_shard=False, faults=plan) == [
            [(0, 0)],
            [(0, 1)],
            [(0, 2), (0, 3)],
            [(1, 0), (1, 1), (1, 2), (1, 3)],
        ]
        assert _blocks(tasks, 2, per_shard=True, faults=plan) == [
            [task] for task in tasks
        ]


class TestSerialFaultOrder:
    """With ``jobs=1`` a shard's faults fire only after every earlier
    shard has completed and been checkpointed, as with one shard per
    task: a block never spends a later shard's fault tokens early."""

    def test_interrupt_leaves_a_later_error_armed(
        self, tiny_config, baseline, tmp_path
    ):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("interrupt", "shard-0-1")
        plan.arm("error", "shard-0-2")
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(KeyboardInterrupt):
            run_study(tiny_config, jobs=1, checkpoint=ckpt, faults=plan)
        assert sorted(_checkpointed(ckpt)) == ["shard-0000-0000.json",
                                              "shard-0000-0001.json"]
        assert plan.armed() == [("error", "shard-0-2")]

        with pytest.raises(InjectedFault):
            run_study(
                tiny_config, jobs=1, checkpoint=ckpt, resume=True, faults=plan
            )
        assert len(_checkpointed(ckpt)) == 2
        assert plan.armed() == []

        dataset = run_study(
            tiny_config, jobs=1, checkpoint=ckpt, resume=True, faults=plan
        )
        assert dataset == baseline

    def test_crash_keeps_earlier_shards(self, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("crash", "shard-0-2")
        ckpt = str(tmp_path / "ckpt")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-c", _CRASH_SCRIPT, ckpt, plan.directory],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == CRASH_EXIT_CODE, result.stderr
        assert sorted(_checkpointed(ckpt)) == ["shard-0000-0000.json",
                                              "shard-0000-0001.json"]


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``tiny_config``'s sweep at ``jobs=1`` in a process a crash may kill.
_CRASH_SCRIPT = """
import sys
from repro.apps import get_application
from repro.chips import get_chip
from repro.compiler import enumerate_configs
from repro.faults import FaultPlan
from repro.graphs import rmat_graph
from repro.graphs.inputs import StudyInput
from repro.study import StudyConfig, run_study

graph = rmat_graph(6, edge_factor=6, seed=3, name="f-rmat")
config = StudyConfig(
    apps=[get_application("bfs-wl")],
    inputs={"f-rmat": StudyInput(name="f-rmat", input_class="social",
                                 description="fault test rmat",
                                 _builder=lambda: graph)},
    chips=[get_chip("GTX1080"), get_chip("MALI")],
    configs=enumerate_configs()[::24],
)
run_study(config, jobs=1, checkpoint=sys.argv[1], faults=FaultPlan(sys.argv[2]))
"""


def _checkpointed(directory):
    """The shard files a checkpoint directory holds."""
    return [name for name in os.listdir(directory) if name.startswith("shard-")]
