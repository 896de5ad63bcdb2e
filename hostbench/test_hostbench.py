"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest -q hostbench
"""

import json
import pathlib
import re
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import refloop  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class _Toy:
    def outer(self, n):
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        return sum(range(100 * (i + 1)))


def test_self_times_sum_to_root_duration():
    recorder = spans.SpanRecorder("toy")
    recorder.rep = 0
    points = (
        ("toy.outer", lambda: [_Toy], "outer", None),
        ("toy.inner", lambda: [_Toy], "inner", None),
    )
    originals = dict(vars(_Toy))
    installed = spans.install(recorder, points)
    root = recorder.open("rep")
    _Toy().outer(5)
    recorder.close(root)
    installed.uninstall()
    assert vars(_Toy)["outer"] is originals["outer"]
    assert vars(_Toy)["inner"] is originals["inner"]
    rep_spans = recorder.of_rep(0)
    assert [span.name for span in rep_spans].count("toy.inner") == 5
    assert sum(span.self_s for span in rep_spans) == pytest.approx(
        root.duration, rel=1e-9, abs=1e-12
    )
    by_name = spans.totals(rep_spans)
    assert by_name["toy.outer"].self_s + by_name["toy.inner"].total_s == (
        pytest.approx(by_name["toy.outer"].total_s, rel=1e-9, abs=1e-12)
    )


@pytest.mark.parametrize("slowdown", [0.5, 1.0, 1.7, 3.0])
def test_normalization_rescales_a_synthetic_slowdown(slowdown):
    nominal_wall = 0.5
    probe = refloop.PROBE_NOMINAL_S
    nominal = refloop.to_reference_seconds(nominal_wall, probe)
    assert nominal == pytest.approx(nominal_wall)
    # The host slows down by `slowdown`: the workload and the interleaved
    # probe both take that much longer.
    assert refloop.to_reference_seconds(
        nominal_wall * slowdown, probe * slowdown
    ) == pytest.approx(nominal)
    reps = [{"kind": "plain", "ops": 1000, "net_wall_s": nominal_wall * slowdown,
             "probe_s": probe * slowdown}]
    normalized, raw = run._throughputs(reps, "plain")
    assert normalized == [pytest.approx(1000 / nominal_wall)]
    assert raw == [pytest.approx(1000 / nominal_wall / slowdown)]


def test_metric_names_are_well_formed():
    names = [name for name, _ in run.END_TO_END + layers.PER_LAYER_METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def _fake_worker(workload, seed, mode, seconds, spans_out=""):
    """What a worker prints, with one repetition of each kind."""
    rep = {"ops": 100, "failed": 0, "net_wall_s": 0.01,
           "probe_s": refloop.PROBE_NOMINAL_S, "digest": "d", "error": None}
    if mode != "traced":
        return {"setup_s": 1.5, "peak_rss_mb": 100.0,
                "reps": [dict(rep, kind="plain"), dict(rep, kind="obs")]}
    no_spans = spans.totals([])
    counters = {"retried_words": 0, "failed_words": 0, "corrupted_words": 0}
    return {
        "setup_s": 1.5,
        "setup_layers": layers.setup_metrics(no_spans, 1.0, 1.0),
        "reps": [dict(rep, kind="plain"), dict(
            rep, kind="traced", layers=layers.rep_metrics(no_spans, counters, 1.0)
        )],
    }


def test_benchmark_json_matches_the_runner(monkeypatch, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    monkeypatch.setattr(run, "_spawn", _fake_worker)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "wafer", "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = json.loads(lines[-1])["metrics"]
        declared = [(m["name"], m["unit"]) for m in spec[section]]
        assert [(name, m["unit"]) for name, m in printed.items()] == declared
        for name, _ in declared:  # the table names every metric too
            assert any(line.split()[:1] == [name] for line in lines), name


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_digest_is_pinned_and_stable_in_process(name):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    state = workload.setup()
    first = workload.gate(workload.run(state))
    recorder = spans.SpanRecorder(name)
    recorder.rep = 1
    installed = spans.install(recorder)
    try:
        traced = workload.gate(workload.run(workload.fresh()))
    finally:
        installed.uninstall()
    observed = workload.gate(workloads.run_with_obs(workload, workload.fresh()))
    assert first == traced == observed
    assert first == (0, workloads.PINNED_DIGESTS[name])
    metrics = layers.rep_metrics(spans.totals(recorder.of_rep(1)), {
        "retried_words": 0, "failed_words": 0, "corrupted_words": 0,
    }, 1.0)
    assert set(metrics) == {name for name, _, _ in layers.LAYER_RULES}
    entry = "prodtest.run_wafer.self_s" if name == "wafer" else "service.engine.events"
    assert metrics[entry] > 0


def test_sampler_probes_inside_a_window_and_excludes_them():
    sampler = refloop.HostSampler()
    sampler.start()
    try:
        start = time.perf_counter()
        with sampler.window() as window:
            while time.perf_counter() - start < 0.2:
                sum(range(1000))
        wall = time.perf_counter() - start
    finally:
        sampler.stop()
    assert len(window.probes) >= 5
    assert window.net_wall_s + sum(window.probes) == pytest.approx(wall, rel=0.05)
    assert window.probe_s == pytest.approx(sum(window.probes) / len(window.probes))


def test_processes_that_disagree_on_the_digest_fail():
    reps = [{"ops": 10, "failed": 0, "digest": digest, "error": None}
            for digest in ("a", None, "a", "b")]
    reps[1]["error"] = "ValueError: boom"
    run._check_agreement(reps)
    assert [rep["failed"] for rep in reps] == [0, 0, 0, 10]
    assert reps[3]["error"] == "digest b != a"
    assert reps[1]["error"] == "ValueError: boom"
