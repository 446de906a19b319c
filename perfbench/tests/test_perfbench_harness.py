"""Tests of the benchmark harness (spans, percentiles, inputs, counting).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
from pathlib import Path

import numpy as np
import pytest

_PERFBENCH = Path(__file__).resolve().parent.parent
for _path in (_PERFBENCH, _PERFBENCH.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from harness import layers  # noqa: E402
from harness.spans import (  # noqa: E402
    Trace,
    Tracer,
    load_trace,
    summarize,
    tail_percentile,
)
from harness.workloads import (  # noqa: E402
    WORKLOADS,
    CampaignWorkload,
    Rep,
    count_failures,
    derive_seeds,
    front_digest,
    make_workload,
    pin_check,
    rep_seed,
    same_inputs_same_digest,
)


# --------------------------------------------------------------------- #
# self time
def _trace(rows):
    """A trace of ``(id, parent, name, start, end)`` rows, one process."""
    names = sorted({r[2] for r in rows})
    ids, parents, codes, starts, ends = zip(
        *[(i, p, names.index(n), a, b) for i, p, n, a, b in rows])
    return Trace(ids=np.array(ids), parents=np.array(parents), names=names,
                 codes=np.array(codes), starts=np.array(starts),
                 ends=np.array(ends), pids=np.zeros(len(rows), int))


def test_self_time_subtracts_direct_children_of_the_named_kind():
    # parent [0, 10] with children a [1, 3], a [4, 5], b [6, 8]; the
    # grandchild a [1.5, 2.5] sits under the first child.
    trace = _trace([
        (1, -1, "parent", 0.0, 10.0),
        (2, 1, "a", 1.0, 3.0),
        (3, 1, "a", 4.0, 5.0),
        (4, 1, "b", 6.0, 8.0),
        (5, 2, "a", 1.5, 2.5),
        (6, -1, "parent", 20.0, 21.0),
    ])
    assert trace.child_sums("parent", "a").tolist() == pytest.approx(
        [3.0, 0.0])
    self_time = (trace.of("parent") - trace.child_sums("parent", "a")
                 - trace.child_sums("parent", "b"))
    assert self_time.tolist() == pytest.approx([5.0, 1.0])


def test_not_under_drops_spans_nested_in_the_named_parent():
    trace = _trace([
        (1, -1, "batch", 0.0, 4.0),
        (2, 1, "call", 0.0, 2.0),
        (3, 1, "call", 2.0, 4.0),
        (4, -1, "call", 5.0, 6.0),
    ])
    assert trace.not_under("call", "batch").tolist() == [1.0]


def test_tracer_records_nesting_and_child_sums(tmp_path):
    tracer = Tracer(tmp_path)
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")

    def outer_body():
        for _ in range(3):
            inner()

    outer = tracer.wrap(outer_body, "outer")
    tracer.enabled = True
    outer()
    tracer.enabled = False
    outer()  # disabled: records nothing
    tracer.dump()
    trace = load_trace(tmp_path, os.getpid())
    assert len(trace.of("outer")) == 1 and len(trace.of("inner")) == 3
    outer_id = trace.ids[trace.mask("outer")][0]
    assert (trace.parents[trace.mask("inner")] == outer_id).all()
    inner_sum = trace.child_sums("outer", "inner")
    assert inner_sum[0] == pytest.approx(trace.of("inner").sum())
    assert trace.of("outer")[0] > inner_sum[0]


# --------------------------------------------------------------------- #
# percentile rule
@pytest.mark.parametrize("n, pct", [
    (0, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_summarize_reports_median_tail_and_count():
    small = summarize([3.0, 1.0, 2.0])
    assert (small.p50, small.tail, small.tail_pct, small.n) == (2.0, 2.0,
                                                                50.0, 3)
    values = np.arange(1, 1001, dtype=float)
    big = summarize(values)
    assert big.n == 1000 and big.tail_pct == 99.0
    assert big.p50 == pytest.approx(500.5)
    assert big.tail == pytest.approx(np.percentile(values, 99))
    assert (values > big.tail).sum() >= 10
    assert summarize([]).n == 0


# --------------------------------------------------------------------- #
# seed -> inputs
def test_derived_seeds_are_deterministic_and_distinct():
    for name in WORKLOADS:
        assert derive_seeds(name, 7) == derive_seeds(name, 7)
        assert derive_seeds(name, 7) != derive_seeds(name, 8)
    assert derive_seeds(WORKLOADS[0], 7) != derive_seeds(WORKLOADS[1], 7)
    with pytest.raises(ValueError):
        derive_seeds(WORKLOADS[0], -1)


def test_workload_inputs_depend_only_on_seed(tmp_path):
    for name in WORKLOADS:
        a = make_workload(name, 3, tmp_path, workers=2)
        b = make_workload(name, 3, tmp_path / "other", workers=1)
        c = make_workload(name, 4, tmp_path, workers=2)
        if isinstance(a, CampaignWorkload):
            assert a.params == b.params
            assert a.params != c.params
            assert a.params_of(1) == b.params_of(1) != a.params
        else:
            assert a.search_seed(0) == b.search_seed(0) != c.search_seed(0)
            assert a.search_seed(1) == b.search_seed(1) != a.search_seed(0)
            assert a.budget == b.budget


def test_repetition_zero_keeps_the_pinned_inputs():
    for name in WORKLOADS:
        assert rep_seed(name, 5, 0) == derive_seeds(name, 5, 1)[0]
        assert [rep_seed(name, 5, i) for i in range(4)] == derive_seeds(
            name, 5, 4)
    with pytest.raises(ValueError):
        rep_seed(WORKLOADS[0], 5, -1)


def test_campaign_params_are_an_in_bounds_latin_hypercube(tmp_path):
    from repro.tuning.bounds import lower_bounds, upper_bounds

    lo, hi = lower_bounds(), upper_bounds()
    k = CampaignWorkload.n_params
    for seed in range(20):
        params = np.array(make_workload("campaign-grid", seed, tmp_path,
                                        2).params)
        assert params.shape == (k, 5)
        assert (params >= lo).all() and (params <= hi).all()
        strata = np.floor((params - lo) / (hi - lo) * k).astype(int)
        for column in strata.T:  # one vector per k-th of each domain
            assert sorted(column.tolist()) == list(range(k))


def test_pin_check_fails_a_missing_pin_and_marks_unpinned_seeds():
    from harness.workloads import PINNED_SEEDS, load_pins

    pinned = load_pins()["mls-serial-d300"]["0"]
    assert pin_check("c", "mls-serial-d300", 0, [pinned]).ok
    assert not pin_check("c", "mls-serial-d300", 0, ["0" * 40]).ok
    assert not pin_check("c", "no-such-workload", 0, [pinned]).ok
    outside = pin_check("c", "mls-serial-d300", PINNED_SEEDS.stop, ["x"])
    assert outside.ok and outside.unpinned
    assert "unpinned" in outside.detail


def test_front_digest_ignores_row_order_only():
    rows = np.array([[1.0, -2.0, 3.0], [0.5, -1.0, 2.0]])
    assert front_digest(rows) == front_digest(rows[::-1])
    bumped = rows.copy()
    bumped[0, 0] = np.nextafter(bumped[0, 0], 2.0)
    assert front_digest(bumped) != front_digest(rows)


# --------------------------------------------------------------------- #
# failed_frac counting
def _rep(attempted, failed):
    return Rep(run_s=1.0, sims=0, attempted=attempted, failed=failed,
               result=None)


def test_count_failures():
    assert count_failures([_rep(10, 0), _rep(10, 0)], False) == (20, 0)
    assert count_failures([_rep(10, 2), _rep(10, 1)], False) == (20, 3)
    # a run that raised fails everything it attempted
    assert count_failures([_rep(10, 0)], True) == (10, 10)
    assert count_failures([], True) == (1, 1)


def test_same_inputs_check_compares_only_repeated_inputs():
    def rep(index, digest):
        return Rep(1.0, 1, 1, 0, digest, extra={"index": index})

    def digest(r):
        return r.result

    # every repetition ran its own inputs: nothing to compare
    assert same_inputs_same_digest("c", [rep(0, "a"), rep(1, "b")],
                                   digest) is None
    pairs = [rep(0, "a"), rep(0, "a"), rep(1, "b"), rep(1, "b")]
    assert same_inputs_same_digest("c", pairs, digest).ok
    pairs[3] = rep(1, "c")
    check = same_inputs_same_digest("c", pairs, digest)
    assert not check.ok and "differing [1]" in check.detail


# --------------------------------------------------------------------- #
# child-process span merging
def _child_work(fn):
    fn()


def test_spans_from_forked_workers_merge_with_parent(tmp_path):
    tracer = Tracer(tmp_path)
    work = tracer.wrap(lambda: sum(range(1000)), "work")
    ctx = mp.get_context("fork")
    procs = [ctx.Process(target=_child_work, args=(work,)) for _ in range(2)]

    def parent_body():
        work()
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)

    tracer.enabled = True
    tracer.wrap(parent_body, "parent")()
    tracer.enabled = False
    assert all(not p.is_alive() and p.exitcode == 0 for p in procs)
    tracer.dump()
    trace = load_trace(tmp_path, os.getpid())
    assert len(trace.of("work")) == 3
    worker = np.isin(trace.pids, [p.pid for p in procs])
    assert worker.sum() == 2
    # Worker spans name the parent-process span open when they forked.
    parent_id = trace.ids[trace.mask("parent")][0]
    assert (trace.parents[worker] == parent_id).all()
    assert len(set(trace.ids.tolist())) == len(trace.ids)


def test_merge_keeps_spans_of_reused_pids_apart(tmp_path):
    main = Tracer(tmp_path)
    workers = []

    def root_body():
        root_id = main._stack()[-1]
        for _ in range(2):  # two workers that happened to get one pid
            worker = Tracer(tmp_path)
            worker.enabled = True
            worker.pid = 4242
            worker._local.stack = [root_id]
            step = worker.wrap(lambda: None, "step")
            worker.wrap(step, "job")()
            workers.append(worker)

    main.enabled = True
    main.wrap(root_body, "root")()
    for tracer in [main, *workers]:
        tracer.dump()
    trace = load_trace(tmp_path, os.getpid())
    jobs = trace.ids[trace.mask("job")]
    assert len(set(jobs.tolist())) == 2
    assert sorted(trace.parents[trace.mask("step")].tolist()) == sorted(
        jobs.tolist())
    root = trace.ids[trace.mask("root")][0]
    assert (trace.parents[trace.mask("job")] == root).all()
    assert trace.child_sums("root", "job").shape == (1,)


# --------------------------------------------------------------------- #
# instrumentation
def test_instrumentation_traces_a_simulation_and_restores(tmp_path):
    from repro.manet.aedb import AEDBParams
    from repro.manet.runtime import get_runtime
    from repro.manet.scenarios import make_scenarios
    from repro.manet.simulator import BroadcastSimulator
    from repro.utils.flags import Flag

    scenario = make_scenarios(100, n_networks=1, n_nodes=10,
                              master_seed=5)[0]
    originals = (BroadcastSimulator.__dict__["run"], Flag.__dict__["read"])
    tracer = Tracer(tmp_path)
    inst = layers.Instrumentation(tracer)
    inst.install()
    try:
        expected = BroadcastSimulator(
            scenario, AEDBParams(), runtime=get_runtime(scenario)).run()
    finally:
        inst.uninstall()
    assert (BroadcastSimulator.__dict__["run"],
            Flag.__dict__["read"]) == originals
    assert BroadcastSimulator(
        scenario, AEDBParams(), runtime=get_runtime(scenario)
    ).run() == expected
    tracer.dump()
    trace = load_trace(tmp_path, os.getpid())
    assert trace.counts["manet.sims"] == 1
    assert len(trace.of("manet.sim_construct")) == 1
    ctx = {"main_pid": os.getpid(), "workers": 1, "nproc": 1,
           "traced_run_s": 1.0, "overhead": 1.0}
    table = layers.layer_metrics(trace, ctx)
    assert set(table) == set(layers.layer_metric_names())
    assert table["manet.sims"] == 1
    assert table["manet.events_per_sim"] > 0


def test_a_batch_of_k_configurations_is_one_evaluator_call(tmp_path):
    from repro.manet.aedb import AEDBParams
    from repro.manet.scenarios import make_scenarios
    from repro.tuning.evaluation import NetworkSetEvaluator

    scenarios = make_scenarios(100, n_networks=2, n_nodes=8, master_seed=5)
    evaluator = NetworkSetEvaluator(scenarios)
    k = 3
    batch = [AEDBParams(min_delay_s=0.1 * (i + 1)) for i in range(k)]
    tracer = Tracer(tmp_path)
    inst = layers.Instrumentation(tracer)
    inst.install()
    try:
        evaluator.evaluate_many(batch)
    finally:
        inst.uninstall()
    tracer.dump()
    trace = load_trace(tmp_path, os.getpid())
    ctx = {"main_pid": os.getpid(), "workers": 1, "nproc": 1,
           "traced_run_s": 1.0, "overhead": 1.0}
    table = layers.layer_metrics(trace, ctx)
    # The base evaluate_many calls evaluate once per configuration.
    assert len(trace.of("tuning.evaluate")) == k
    assert table["manet.sims"] == k * len(scenarios)
    assert table["tuning.evaluate_calls"] == 1
    assert table["tuning.evaluate_ms.n"] == 1
    assert table["tuning.sims_per_evaluate_call"] == k * len(scenarios)
