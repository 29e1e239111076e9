"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

import compare
import run
import tracing
import workloads

sc = run.import_program()


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def ops(request):
    return request.param, workloads.build(sc, request.param, run.REFERENCE_SEED)


def test_same_seed_gives_identical_inputs(ops):
    workload, first = ops
    again = workloads.build(sc, workload, run.REFERENCE_SEED)
    assert [op.input_sha for op in first] == [op.input_sha for op in again]
    other = workloads.build(sc, workload, run.REFERENCE_SEED + 1)
    assert [op.input_sha for op in first] != [op.input_sha for op in other]


def test_every_pass_has_at_least_five_operations(ops):
    assert len(ops[1]) >= 5
    assert len({op.name for op in ops[1]}) == len(ops[1])


def test_traced_and_untraced_outputs_match_the_reference(ops):
    workload, op_list = ops
    harness = run.Harness(sc, op_list, run.load_reference(workload, run.REFERENCE_SEED))
    harness.run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_pass(tracer)
    finally:
        tracer.remove()
    assert harness.failures == []
    assert harness.attempted == 2 * len(op_list)
    assert {rec[1] for rec in tracer.spans} == set(range(len(op_list)))
    values = tracing.pass_layers(tracer.spans)
    assert values["cli.main_self_ms"] > 0
    assert set(values) | {"cli.input_bytes", "cli.report_bytes", "trace.overhead_pct"} \
        == {name for name, _, _ in tracing.PER_LAYER}


def test_wrappers_are_removed():
    originals = (sc.cli.main, sc.covers.is_chordal, sc._kernels.maximal_cliques,
                 sc.cli.maximal_cliques, sc.core.MultiColoring.__dict__["from_dict"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "strongcover.cli.main" in tracing.leftover_wrappers()
        assert "strongcover.covers.is_chordal" in tracing.leftover_wrappers()
        assert "strongcover.core.MultiColoring.from_dict" in tracing.leftover_wrappers()
    finally:
        tracer.remove()
    assert tracing.leftover_wrappers() == []
    after = (sc.cli.main, sc.covers.is_chordal, sc._kernels.maximal_cliques,
             sc.cli.maximal_cliques, sc.core.MultiColoring.__dict__["from_dict"])
    assert all(a is b for a, b in zip(originals, after))


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0, -1, 0.0, 1.0, 0, None],
        ["core.build", 0, 0, 0.1, 0.4, 0, 7],
        ["core.build", 0, 0, 0.5, 0.6, 0, 7],
        ["chordal.is_chordal", 0, 1, 0.2, 0.3, 0, None],
    ]
    values = tracing.pass_layers(spans)
    assert values["cli.main_self_ms"] == pytest.approx(600.0)
    assert values["core.build_ms"] == pytest.approx(300.0)
    assert values["core.build_calls"] == 2
    assert values["core.builds_per_op"] == 2.0


def test_changed_output_counts_as_failure():
    op_list = workloads.build(sc, "verify-corpus", run.REFERENCE_SEED)
    reference = run.load_reference("verify-corpus", run.REFERENCE_SEED)
    reference[0] = dict(reference[0], output_sha="0" * 64)
    harness = run.Harness(sc, op_list, reference)
    harness.run_pass()
    assert len(harness.failures) == 1
    assert "output differs" in harness.failures[0]


def test_reference_work_is_timed_beside_every_operation():
    op_list = workloads.build(sc, "verify-corpus", run.REFERENCE_SEED)
    harness = run.Harness(sc, op_list, run.load_reference("verify-corpus", run.REFERENCE_SEED))
    walls, latencies, setups, reference = run.measure(harness, 0)
    assert len(walls) == len(setups) == run.MIN_PASSES
    assert len(latencies) == len(walls) * len(op_list)
    assert [len(times) for times in reference] == [len(op_list) + 2] * len(walls)
    assert harness.failures == []


def test_verdicts():
    base = [1.0, 1.01, 0.99, 1.0]
    assert compare.verdict(base, [1.0, 1.02, 0.98, 1.01], "lower", 0.1) == "unchanged"
    assert compare.verdict(base, [1.3, 1.31, 1.29, 1.3], "lower", 0.1) == "worse"
    assert compare.verdict(base, [0.7, 0.71, 0.69, 0.7], "lower", 0.1) == "better"
    noisy = [0.6, 1.0, 1.4, 0.8, 1.2]
    assert compare.verdict(base, noisy, "lower", 0.1) == "unresolved"


def test_fails_without_the_program(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "search-small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
