"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import hashlib
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans


def _span(name, start, end, parent=-1, op=0):
    return spans.Span(name, start, end, parent, op)


def test_self_time_subtracts_children():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("leaf", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    tree = [_span("root", 0.0, 10.0), _span("a", 1.0, 4.0, 0), _span("b", 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_layer_metrics_per_pass():
    tracer = spans.Tracer()
    tracer.spans = [
        _span("cli.main", 0.0, 10.0, op=0),
        _span("operators.conformal_symmetry_operator", 1.0, 5.0, 0, op=0),
        _span("solver.in_rational_span", 2.0, 4.0, 1, op=0),
        _span("operators.conformal_symmetry_operator", 6.0, 7.0, 0, op=0),
        _span("cli.main", 10.0, 12.0, op=1),
    ]
    tracer.counters["solver.in_rational_span.columns"] = 30
    m = {k: v["value"] for k, v in spans.layer_metrics(tracer, [6.0, 6.5], [5.0]).items()}
    assert m["operators.conformal_symmetry_operator.calls"] == 1.0
    assert m["operators.conformal_symmetry_operator.s"] == pytest.approx(2.5)
    assert m["operators.conformal_symmetry_operator.p50_ms"] == pytest.approx(2500.0)
    assert m["solver.in_rational_span.columns"] == 15.0
    assert m["operators.completion_frac"] == pytest.approx(0.5)
    assert m["cli.main.self_s"] == pytest.approx((12.0 - 5.0) / 2)
    assert m["trace_overhead_frac"] == pytest.approx(0.25)
    assert m["trace_coverage_frac"] == pytest.approx(12.0 / 12.5)
    assert m["solver.span_dim.s"] == 0.0


@pytest.mark.parametrize("n, want", [(19, None), (99, None), (100, 90.0), (199, 90.0),
                                     (200, 95.0), (999, 95.0), (1000, 99.0)])
def test_tail_percentile_needs_ten_samples_beyond(n, want):
    samples = [float(i) for i in range(n)]
    got = run.tail_percentile(samples)
    if want is None:
        assert got is None
        return
    pct, value = got
    assert pct == want
    assert sum(s > value for s in samples) >= run.TAIL_MIN_BEYOND


def test_tracer_patches_every_binding_and_restores():
    sys.path.insert(0, str(run.SRC))
    import ktk
    import ktk.solver

    orig = ktk.solver.span_dim
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert ktk.solver.span_dim is not orig
        assert ktk.solver.span_dim is ktk.solver.same_span.__globals__["span_dim"]
        with tracer.operation():
            assert ktk.solver.same_span([{"a": 1}], [{"a": 2}]) is True
    assert ktk.solver.span_dim is orig
    names = [s.name for s in tracer.spans]
    assert names == ["cli.main"] + ["solver.span_dim"] * 3
    assert all(s.parent == 0 and s.op == 0 for s in tracer.spans[1:])
    assert tracer.counters["solver.span_dim.rows"] == 1 + 1 + 2


def test_corrupted_output_counts_as_failed():
    key = run.basis_key("conformal", 2, 1, (4, 0))
    child = run.run_child(run.ktk_argv(run.basis_args("conformal", 2, 1, (4, 0))),
                          run.child_env())
    check = run.check_basis(key)
    tally = run.Tally()
    assert tally.child(child, check)
    corrupted = child.stdout.replace(b'"den": "1"', b'"den": "2"', 1)
    assert corrupted != child.stdout
    assert not tally.record("corrupted", 0, corrupted, check)
    assert not tally.record("nonzero exit", 1, child.stdout, check)
    assert not tally.record("timeout", None, child.stdout, check)
    assert (tally.attempted, tally.failed) == (4, 3)
    assert "sha256" in tally.failures[0]


def test_child_time_cap_kills_and_reaps(monkeypatch):
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    child = run.run_child(sleeper, run.child_env(), timeout_s=0.5, probe=True)
    assert child.returncode is None
    assert child.wall_s < 10
    assert len(child.probes) > 10
    monkeypatch.setattr(run, "run_deadline", time.perf_counter() + 0.5)
    child = run.run_child(sleeper, run.child_env())
    assert child.returncode is None
    assert child.wall_s < 10


def test_speed_adjustment_and_fast_state_gate(monkeypatch):
    fast = run.Child([], 0, 1.0, 0, b"", b"", probes=[run.PROBE_REF_S] * 99)
    slow = run.Child([], 0, 3.0, 0, b"", b"", probes=[1.5 * run.PROBE_REF_S] * 99)
    assert run.at_reference_speed(fast) == pytest.approx(1.0)
    assert run.at_reference_speed(slow) == pytest.approx(2.0)
    monkeypatch.setattr(run, "PROBE_REF_S", 1.0)  # seconds: any probe unit is within it
    assert run.host_fast()
    monkeypatch.setattr(run, "PROBE_REF_S", 1e-9)
    assert not run.host_fast()


def test_workload_is_a_function_of_the_seed():
    for name in run.WORKLOADS:
        a, b = run.make_workload(name, 7), run.make_workload(name, 7)
        assert [op.args for op in a.ops] == [op.args for op in b.ops]
        assert sorted(a.signatures) == sorted(run.SIGNATURES)
        traced = run.make_workload(name, 7, traced=True)
        assert traced.signatures == a.signatures[:1]
        assert [op.args for op in traced.ops] == [a.ops[0].args]
    assert {run.make_workload("verify-conformal", s, traced=True).signatures[0]
            for s in range(40)} == set(run.SIGNATURES)


def test_every_seed_measures_the_same_work():
    for name in ("basis-conformal", "verify-conformal"):
        work = {tuple(sorted(tuple(op.args) for op in run.make_workload(name, s).ops))
                for s in range(20)}
        assert len(work) == 1
    orders = {tuple(run.make_workload("basis-conformal", s).signatures) for s in range(20)}
    assert len(orders) > 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in spans.PER_LAYER]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "basis-conformal", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""


def test_expected_digests_are_well_formed():
    for key, want in run.EXPECTED.items():
        assert len(want["sha256"]) == len(hashlib.sha256().hexdigest())
        assert want["count"] in (300, 84), key
