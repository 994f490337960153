"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py -q

They check that the correctness checks reject wrong answers, that a failed
check makes the command exit nonzero, and the self-time arithmetic of
nested spans.
"""

import json

import pytest

import run

run.import_package()

import layers  # noqa: E402  (needs the package on sys.path)
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from qfsplit import catalog  # noqa: E402

ROW = catalog.SUPERSINGULAR_QUARTICS_F2[0]  # f2-sigma3: ns 3, line x = w = 0


def _artin_output():
    return workloads.run_cli(["artin", "-p", "2", ROW.equation, "--line", "0,3",
                              "--format", "json"])


def test_artin_check_accepts_the_catalog_value_and_rejects_a_wrong_one():
    out = _artin_output()
    assert workloads.check_artin(3, 3)(out) is None
    assert "ns 3 != 4" in workloads.check_artin(4, 4)(out)
    assert "tau 3 != 4" in workloads.check_artin(3, 4)(out)


def test_lift_checks_reject_a_wrong_value_set():
    out = workloads.run_cli(["lift", "-p", "2", ROW.equation, "--random", "4",
                             "--seed", "1", "--format", "json"])
    assert workloads.check_lift_random(3, 4)(out) is None
    assert workloads.check_lift_random(5, 4)(out) is not None
    assert "lift draws" in workloads.check_lift_random(3, 5)(out)


def test_base_change_and_scan_checks_reject_wrong_values():
    eq = workloads.Extension(seed=0).round(0)[0]
    report = eq.run()
    assert eq.check(report) is None
    assert workloads.check_base_change(ROW.expected_ns_value + 1)(report) is not None

    scan_eq = workloads.ScanF2(seed=0).round(0)[0]
    result = scan_eq.run()
    assert scan_eq.check(result) is None
    assert scan_eq.oracle(result) is None
    result.violations.append({"index": 0})
    assert "violation" in workloads.check_scan(result)


def test_failed_check_counts_and_exits_nonzero(monkeypatch, tmp_path, capsys):
    class Wrong(workloads.Workload):
        name = "catalog"
        round_seconds = 1.0

        def rings(self):
            return [ROW.ring()]

        def round(self, r):
            argv = ["artin", "-p", "2", ROW.equation, "--line", "0,3", "--format", "json"]
            return [
                workloads.Equation("right", lambda: workloads.run_cli(argv),
                                   workloads.check_artin(3, 3)),
                workloads.Equation("wrong", lambda: workloads.run_cli(argv),
                                   workloads.check_artin(4, 4)),
            ]

    monkeypatch.setitem(workloads.WORKLOADS, "catalog", Wrong)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "catalog", "--seed", "1", "--seconds", "0.001"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 1


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_reported_metrics_match_benchmark_json(monkeypatch, tmp_path, capsys, trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "scan-f2", "--seed", "1", "--seconds", "0.001",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        leaf_t(2.0)
        clock.now += 0.5
        leaf_t(3.0)

    def outer():
        clock.now += 4.0
        middle_t()
        clock.now += 0.25

    leaf_t = tracer.wrap(leaf, "m.leaf")
    middle_t = tracer.wrap(middle, "m.middle")
    outer_t = tracer.wrap(outer, "m.outer")
    tracer.equation = 7
    outer_t()
    tracer.equation = 8
    leaf_t(10.0)

    assert tracer.self_times({7: 1.0}) == pytest.approx(
        {"m.outer": 4.25, "m.middle": 1.5, "m.leaf": 5.0})
    assert tracer.self_times({7: 2.0, 8: 1.0}) == pytest.approx(
        {"m.outer": 8.5, "m.middle": 3.0, "m.leaf": 20.0})
    assert tracer.covered({7: 1.0}) == pytest.approx(10.75)
    # a span's self times add up to its duration
    assert sum(tracer.self_times({7: 1.0}).values()) == pytest.approx(10.75)


def test_only_under_records_direct_children_only():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap(lambda: None, "m.inner", only_under="m.parent")
    parent = tracer.wrap(lambda: inner(), "m.parent")
    inner()
    parent()
    assert [tracer.span_name(i) for i in range(len(tracer.spans))] == ["m.parent", "m.inner"]
    assert tracer.spans[1][3] == 0


def test_install_and_uninstall_restore_the_package():
    from qfsplit import cartier

    original = cartier.bundle
    tracer = Tracer()
    installed = tracer.install(layers.targets())
    assert installed == [name for _owner, _attr, name, _under in layers.targets()]
    assert cartier.bundle is not original
    tracer.uninstall()
    assert cartier.bundle is original


def test_install_refuses_a_missing_target():
    from qfsplit import cartier

    original = cartier.bundle
    tracer = Tracer()
    with pytest.raises(AttributeError, match="cartier.no_such_function"):
        tracer.install([(cartier, "bundle", "cartier.bundle", None),
                        (cartier, "no_such_function", "cartier.gone", None)])
    assert cartier.bundle is original


def test_sampler_removes_its_own_time_and_scales_by_the_block():
    sampler = reference.SpeedSampler()
    sampler.starts = [1.0, 2.0, 3.0, 4.0, 5.0]
    sampler.durations = [0.008, 0.002, 0.002, 0.002, 0.008]
    assert sampler.net(1.5, 3.5) == pytest.approx(2.0 - 0.004)
    # samples at 2.0 and 3.0 inside, 1.0 and 4.0 next to the interval
    assert sampler.factor(1.5, 3.5) == pytest.approx(reference.BLOCK_MS / 3.5)
    assert sampler.factor(4.5, 9.0) == pytest.approx(reference.BLOCK_MS / 5.0)


def test_delta_compositions_counts_the_multinomial_route():
    # compositions of p into t parts, each part at most p - 1
    assert layers.delta_compositions(1, 5) == 0
    assert layers.delta_compositions(2, 2) == 1       # (1, 1)
    assert layers.delta_compositions(3, 3) == 7       # 10 minus the three (3, 0, 0)


def test_round_counts_at_run_seconds_match_the_readme():
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    counts = {name: run.rounds_for(cls(seed=0), seconds) for name, cls in workloads.WORKLOADS.items()}
    assert counts == {"catalog": 11, "scan-f2": 24, "dense": 2, "extension": 2}
    assert run.rounds_for(workloads.Dense(seed=0), 0.001) == 1
