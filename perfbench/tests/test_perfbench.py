"""Tests of the benchmark itself: seeded inputs, answer checks, self time.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, layer_metrics, self_times  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    for target in ("a", "b"):
        workloads.setup(workload, 7, tmp_path / target)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    if workload != "series":  # series has no random inputs
        assert workloads.INPUTS[workload](7) != workloads.INPUTS[workload](8)


def test_census_plan_fixes_the_known_kernel_failures():
    # 15 of 36 templates have a capacity-2 block using both elements
    for seed in (1, 2, 3):
        files, _ = workloads.census_inputs(seed)
        hits = 0
        for text in files.values():
            t = workloads.BlockTemplate.from_json(text)
            for b, cap in enumerate(t.capacities):
                distinct = any(p.blocks == (b, b) and p.ranks[0] != p.ranks[1]
                               for p in t.accepted[0])
                hits += cap == 2 and distinct
        assert hits == 15


def test_planted_blocks_are_the_classes_without_noise():
    from agealg.decomposition import minimal_decomposition
    from agealg.structures import FiniteRelStruct
    rng = workloads.random.Random(3)
    n, kinds, links, _ = workloads.finite_plan(3)
    structure, clean = workloads.planted_digraph(rng, n, kinds, links, 0)
    blocks = minimal_decomposition(FiniteRelStruct.from_json_dict(structure))
    assert sorted(clean) == blocks


def _rqsym_job(tmp_path):
    (job,) = [j for j in workloads.setup("series", 1, tmp_path)
              if j.id == "profile-rqsym32"]
    # the same check on a smaller degree, to keep the test fast
    job.run = workloads.cli_job(
        job.id, ["profile", "--builtin", "rqsym:3:2", "--degree", "4"],
        job.check).run
    return job


def test_reference_answer_is_accepted(tmp_path):
    job = _rqsym_job(tmp_path)
    assert worker.judge(job, *job.run(), 0.0)["status"] == "ok"


def test_corrupted_reference_answer_counts_as_failed(tmp_path, monkeypatch):
    corrupted = json.loads(json.dumps(workloads.REFERENCE))
    corrupted["rqsym:3:2"]["profile"][4] += 1
    monkeypatch.setattr(workloads, "REFERENCE", corrupted)
    job = _rqsym_job(tmp_path)
    outcome = worker.judge(job, *job.run(), 0.0)
    assert outcome["status"] == "wrong"
    result = {"setup_s": 0.1, "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 20.0,
              "jobs": [outcome]}
    assert run.end_to_end([result])["failed_ratio"]["value"] == 1.0
    assert run.consistency_problems([result])


def test_metrics_are_medians_and_failed_ratio_is_the_raw_share():
    def result(wall, times, statuses):
        return {"setup_s": wall / 10, "wall_s": wall, "cpu_s": wall - 0.5,
                "peak_rss_mb": 20.0 + wall,
                "jobs": [{"id": i, "time_s": t, "status": st}
                         for i, (t, st) in enumerate(zip(times, statuses))]}
    passes = [result(3.0, [1.0, 2.0, 0.5], ["ok", "ok", "error"]),
              result(2.5, [1.5, 0.5, 0.5], ["ok", "ok", "error"]),
              result(4.0, [0.9, 2.5, 0.6], ["ok", "ok", "error"])]
    values = {name: m["value"] for name, m in run.end_to_end(passes).items()}
    assert values["wall_s"] == 3.0 and values["cpu_s"] == 2.5
    assert values["job_p50_s"] == 0.9  # median of all nine job times
    assert values["setup_s"] == 0.3 and values["peak_rss_mb"] == 23.0
    assert values["failed_ratio"] == 3 / 9
    for p in passes:
        for job in p["jobs"]:
            job["status"] = "ok"
    assert run.end_to_end(passes)["failed_ratio"]["value"] == 0.0


def test_times_scale_by_the_calibration_speed():
    calibration = worker.Calibration()
    calibration.run(2)
    assert calibration.chunks == 2
    calibration.wall = 2 * 2 * worker.CAL_REF_S  # chunks ran twice as slow
    calibration.cpu = 2 * worker.CAL_REF_S / 2  # and twice as fast in CPU
    assert calibration.speed() == pytest.approx((0.5, 2.0))


def test_refusal_with_unaccepted_exit_is_an_error_not_a_wrong_answer():
    job = workloads.Job("x", None, workloads.expect_exit0(lambda a: None))
    outcome = worker.judge(job, 4, "consistency violation", 0.0)
    assert outcome["status"] == "error"
    assert run.consistency_problems([{"jobs": [outcome]}]) == []


def test_a_crashing_job_is_an_error():
    outcome = worker.judge(workloads.Job("x", None, None), 1,
                           "Traceback ...\nKeyError: 3\n", 0.0,
                           crash="Traceback ...\nKeyError: 3\n")
    assert (outcome["status"], outcome["reason"]) == ("error",
                                                      "crashed: KeyError: 3")


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("algebra.TypeRegistry.ensure_degree", 1.0, 4.0, 0),
        Span("structures.canonical_code", 2.0, 3.0, 1),
        Span("decomposition.pair_mergeable", 5.0, 9.0, 0),
        Span("structures.canonical_code", 5.5, 6.0, 3),
        Span("structures.canonical_code", 6.0, 6.25, 3),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.25, 0.5, 0.25]
    values = layer_metrics(spans, {})
    assert values["structures.canonical_code.calls"] == 3
    assert values["structures.canonical_code.self_s"] == 1.75
    assert values["structures.canonical_code.registry_s"] == 1.0
    assert values["structures.canonical_code.decomp_s"] == 0.75
    assert values["structures.canonical_code.census_s"] == 0.0
    assert values["cli.main.self_s"] == 3.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, -1), Span("b", 1.0, 5.0, 0),
             Span("c", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == 4.0


def test_tracing_wraps_every_binding_and_keeps_answers(tmp_path):
    import agealg.algebra
    import agealg.structures
    (job,) = [j for j in workloads.setup("ideals", 1, tmp_path)
              if j.id == "hilbert-qsym2"]
    original = agealg.structures.canonical_code
    plain = job.run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the name import in algebra is a second binding; both are wrapped
        assert agealg.structures.canonical_code is not original
        assert agealg.algebra.canonical_code is agealg.structures.canonical_code
        assert "agealg.algebra.canonical_code" in \
            tracer.bindings["structures.canonical_code"]
        assert job.run() == plain
    finally:
        tracer.uninstall()
    assert agealg.algebra.canonical_code is original
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "hilbert.two_path_hilbert",
            "structures.canonical_code"} <= names


def test_tracing_fails_loudly_on_a_missing_binding(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", (("structures", "no_such_function"),))
    with pytest.raises(tracing.TracingError):
        tracing.Tracer().install()


def test_tracing_fails_loudly_on_a_binding_it_cannot_replace(monkeypatch):
    import agealg.cli
    monkeypatch.setattr(agealg.cli, "held", {"main": agealg.cli.main},
                        raising=False)
    tracer = tracing.Tracer()
    try:
        with pytest.raises(tracing.TracingError, match="agealg.cli.held"):
            tracer.install()
    finally:
        tracer.uninstall()


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS)
