"""The benchmark's own checks.

    PYTHONPATH=src python3 -m pytest -q perfbench

They cover the input generator, the correctness gate and the tracer, and
run one short end-to-end invocation against the BENCHMARK.json contract.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import speed
import tracing
import worker
from gbei.cli import main as gbei_main
from gbei.graphs import Graph, classify, is_connected

REFS = json.loads(worker.REFS.read_text(encoding="utf-8"))


def _gbei_graph(n, edges) -> Graph:
    return Graph.from_edges(n, [tuple(e) for e in edges])


def _files(calls):
    return [Path(c.argv[c.argv.index("--graph") + 1]).read_text() for c in calls if "--graph" in c.argv]


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_passes_are_deterministic_per_seed(workload, tmp_path):
    a = worker.build_pass(workload, REFS["catalogue"], 7, 0, tmp_path / "a")
    a_files = _files(a)
    b = worker.build_pass(workload, REFS["catalogue"], 7, 0, tmp_path / "b")
    assert [x.key for x in a] == [x.key for x in b]
    assert a_files == _files(b)
    others = [worker.build_pass(workload, REFS["catalogue"], s, 0, tmp_path / f"s{s}") for s in range(8, 12)]
    assert any(([x.key for x in a], a_files) != ([x.key for x in c], _files(c)) for c in others)


def test_glued_graphs_are_connected_generalized_block_graphs():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 12)
        g = _gbei_graph(*gen.glue_cliques(rng, n, rng.randint(2, 5)))
        assert is_connected(g) and classify(g).generalized_block_graph, g


def test_catalogue_shapes_are_what_each_workload_promises():
    for n, rows, shape, labelings in REFS["catalogue"]["oracle"]:
        for g in map(lambda e: _gbei_graph(n, e), [shape, *labelings]):
            assert is_connected(g) and classify(g).generalized_block_graph and n * rows <= 12
    for n, rows, shape, labelings in REFS["catalogue"]["groebner"]:
        for g in map(lambda e: _gbei_graph(n, e), [shape, *labelings]):
            assert is_connected(g)
            assert n == 4 or (classify(g).generalized_block_graph and n * rows > 12)
    for n, rows, shape, labelings in REFS["catalogue"]["census"]:
        for g in map(lambda e: _gbei_graph(n, e), [shape, *labelings]):
            assert 12 <= n <= 16 and is_connected(g) and classify(g).generalized_block_graph
    # every connected graph on 4 vertices, one per isomorphism class
    four = {tuple(map(tuple, shape)) for n, rows, shape, _ in REFS["catalogue"]["groebner"] if n == 4}
    assert len(four) == 6 and {gen.canonical(4, e) for e in four} == four


def test_relabel_keeps_the_shape():
    rng = random.Random(5)
    n, edges = gen.glue_cliques(rng, 6, 4)
    assert gen.canonical(n, gen.relabel(rng, n, edges)) == gen.canonical(n, edges)


def _small_pass(tmp_path):
    """Three cheap calls: two verify with references, and a corpus whose
    reference the test derives from a plain run."""
    calls = []
    for n, rows, shape, labelings in REFS["catalogue"]["groebner"][:2]:
        path = worker.write_graph(tmp_path / f"{len(calls)}.txt", n, labelings[0])
        calls.append(worker.Call(["verify", "--graph", path, "--rows", str(rows), "--json"],
                                 worker.ref_key("verify", rows, gen.shape_key(n, shape))))
    calls.append(worker.corpus_call(5, "all", 2))
    return calls


def test_traced_and_plain_runs_give_identical_projections(tmp_path):
    import gbei.cli
    import gbei.poly
    import gbei.report

    calls = _small_pass(tmp_path)
    plain = [worker.invoke(gbei_main, c.argv) for c in calls]
    originals = (gbei.cli.main, gbei.report.classify, gbei.poly.normal_form)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gbei.report.classify is not originals[1]
        traced = [worker.invoke(gbei.cli.main, c.argv) for c in calls]
    finally:
        tracer.restore()
    assert (gbei.cli.main, gbei.report.classify, gbei.poly.normal_form) == originals
    assert [worker.project(json.loads(t)) for *_, t in plain] == [
        worker.project(json.loads(t)) for *_, t in traced
    ]
    assert [worker.check(c, code, t, REFS["expect"]) for c, (_, _, code, t) in zip(calls[:2], traced)] == [1, 1]
    # the poly-internal normal_form calls are seen, and self <= total
    nf = tracer.stat("poly.normal_form")
    assert nf.calls > 0 and 0 < nf.self_ns <= nf.total_ns
    assert tracer.stat("graphs.enumerate_connected_graphs").yielded == 728
    assert tracer.stat("cli.main").calls == 3


def test_a_wrong_reference_counts_as_a_failed_call(tmp_path):
    calls = _small_pass(tmp_path)
    expect = json.loads(json.dumps(REFS["expect"]))
    *_, text = worker.invoke(gbei_main, calls[2].argv)
    expect[calls[2].key] = worker.project(json.loads(text))
    right = worker.Tally()
    right.run_pass(gbei_main, calls, expect)
    assert (right.attempted, right.failed, right.pass_graphs) == (3, 0, [730])
    expect[calls[0].key]["formulas"]["dimension"] += 1
    expect[calls[2].key]["summary"]["pass"] -= 1
    wrong = worker.Tally()
    wrong.run_pass(gbei_main, calls, expect)
    assert (wrong.attempted, wrong.failed, wrong.pass_graphs) == (3, 2, [1])


def test_speed_adjustment_counts_time_at_the_reference_speed():
    probe = speed.SpeedProbe()
    ref = speed.KERNEL_REF_S
    probe.at = [0.5, 1.5, 2.5, 3.5, 4.5]
    probe.took = [ref, ref, 2 * ref, 2 * ref, ref]
    # samples inside [1, 3] and the nearest on each side: speeds 1, 1, 1/2, 1/2
    assert probe.adjust(2.0, 1.0, 3.0) == pytest.approx(2.0 * 0.75)
    assert probe.adjust(0.1, 0.55, 0.65) == pytest.approx(0.1)
    with speed.SpeedProbe() as live:
        while len(live.took) < 3:
            speed.kernel()
    assert not live._thread.is_alive() and live.speed(0.0, float("inf")) > 0


def test_one_run_meets_the_result_contract():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "3",
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=170, check=True,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
