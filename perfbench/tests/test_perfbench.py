"""Self-tests of the benchmark: wrapping, span arithmetic and output gates.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

import json
import random
import sys
import time
from fractions import Fraction

import pytest

import gates
import run
import spans


def _bindings():
    import bridgestate.cli  # noqa: F401

    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if name == "bridgestate" or name.startswith("bridgestate.")}
    poly = sys.modules["bridgestate.laurent"].LaurentPolynomial
    modules["LaurentPolynomial"] = dict(vars(poly))
    return modules


def test_install_rebinds_and_uninstall_restores_every_attribute(tmp_path):
    import bridgestate.census
    import bridgestate.checks
    import bridgestate.cli
    import bridgestate.invariants

    before = _bindings()
    original_det = bridgestate.invariants._det_scaled
    tracer = spans.Tracer("test", str(tmp_path / "spans"))
    tracer.install()
    try:
        wrapped = bridgestate.invariants._det_scaled
        assert wrapped is not original_det
        assert bridgestate.checks._det_scaled is wrapped
        assert bridgestate.cli.census_rows is bridgestate.census.census_rows
        assert bridgestate.cli.census_rows.__wrapped__ is before[
            "bridgestate.census"]["census_rows"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        for name, obj in attrs.items():
            assert after[owner][name] is obj, f"{owner}.{name}"


def test_traced_calls_record_spans_and_counts(tmp_path):
    from bridgestate import full_report, make_knot

    tracer = spans.Tracer("test", str(tmp_path / "spans"))
    tracer.install()
    try:
        report = full_report(make_knot(7, 3))
    finally:
        tracer.uninstall()
    tracer.write()
    records = spans.read_trace_files(tmp_path.glob("spans.*.json"))
    metrics = spans.layer_metrics(records, len(report.surfaces), 1, 0)
    assert metrics["invariants.det_calls"] == len(report.surfaces) == 3
    assert metrics["invariants.det_steps"] == 2 + 3 + 2
    assert metrics["continued_fractions.expansions"] == 3
    assert metrics["laurent.poly_constructed"] >= 3
    assert metrics["invariants.full_report_s"] > 0
    assert records[0]["run_id"] == "test"
    declared = {m["name"] for m in run.SPEC["per_layer"]}
    assert set(metrics) == declared - {"trace.overhead_frac"}


def test_self_times_on_a_synthetic_span_tree():
    root, worker_a, worker_b = 1 << 32, 2 << 32, 3 << 32
    tree = [
        (root + 1, 0, "cli.main", 0.0, 10.0),
        (root + 2, root + 1, "census.census_rows", 1.0, 9.0),
        (root + 3, root + 2, "checks.iter_knots", 1.0, 1.5),
        # two workers overlap inside census_rows: union 2..8 minus 1..1.5
        (worker_a + 1, root + 2, "census._census_row_star", 2.0, 6.0),
        (worker_a + 2, worker_a + 1, "census.census_row", 2.5, 5.0),
        (worker_b + 1, root + 2, "census._census_row_star", 4.0, 8.0),
        (root + 4, root + 1, "census.rows_to_knot_csv", 9.0, 9.75),
    ]
    own = spans.self_times(tree)
    assert own[root + 1] == pytest.approx(10 - 8 - 0.75)
    assert own[root + 2] == pytest.approx(8 - 0.5 - 6)
    assert own[root + 3] == pytest.approx(0.5)
    assert own[worker_a + 1] == pytest.approx(4 - 2.5)
    assert own[worker_a + 2] == pytest.approx(2.5)
    assert own[worker_b + 1] == pytest.approx(4)
    assert sum(own[s[0]] for s in tree if s[0] >> 32 == 1) == pytest.approx(
        10 - 6)


def _census_round(tmp_path, traced, jobs=1, max_alpha=29):
    launcher = run.Launcher(deadline=time.monotonic() + 120)
    workdir = tmp_path / f"traced{int(traced)}-jobs{jobs}"
    workdir.mkdir()
    args = ["census", "--max-alpha", max_alpha, "--out", workdir / "k.csv",
            "--out-surfaces", workdir / "s.csv", "--jobs", jobs]
    record = launcher.run(args, workdir, traced=traced)
    assert record["ok"], record
    return record, workdir


def test_traced_census_gives_the_untraced_bytes(tmp_path):
    plain, plain_dir = _census_round(tmp_path, traced=False)
    traced, traced_dir = _census_round(tmp_path, traced=True)
    for name in ("k.csv", "s.csv"):
        assert gates.sha256_file(traced_dir / name) == gates.sha256_file(
            plain_dir / name)
    assert traced["trace_files"] and not plain["trace_files"]


def test_pool_worker_spans_are_collected(tmp_path):
    record, _ = _census_round(tmp_path, traced=True, jobs=2)
    records = spans.read_trace_files(record["trace_files"])
    assert sum(rec["worker"] for rec in records) == 2
    metrics = spans.layer_metrics(records, 1, 2, 0)
    assert 0 < metrics["census.pool_busy_frac"] <= 1
    assert metrics["census.pool_result_bytes"] > 0
    assert metrics["census.worker_peak_rss_mb"] > 0


class CorruptingLauncher(run.Launcher):
    """Appends a byte to the census knot file after each command."""

    def run(self, cli_args, workdir, traced=False):
        record = super().run(cli_args, workdir, traced)
        with open(workdir / "knots.csv", "a") as fh:
            fh.write("\n")
        return record


def test_corrupted_census_output_fails_every_operation(monkeypatch):
    monkeypatch.setattr(run, "Launcher", CorruptingLauncher)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    record = run.measure("census", seed=1, seconds=0, trace=False)
    assert record["failed"] == record["attempted"] > 0
    assert record["ops_failed_frac"] == 1
    assert "digest" in record["failures"][0]


def test_gates_reject_corrupted_verify_and_deep_replies():
    ref = run.REFERENCE["verify"]
    good = (f"pass: {ref['knots']} knots, {ref['surfaces']} surfaces, "
            f"99 checks (alpha <= {ref['max_alpha']})\n")
    assert gates.check_verify_output(good, ref) == (True, 99, "")
    assert not gates.check_verify_output(good.replace(" knots", "1 knots"),
                                         ref)[0]

    # K(5,2): expansions [2, 2], [3, -2] and [-2, 3]
    query = {"alpha": 5, "beta": 2, "surfaces": 3, "terms": 6}
    surfaces = [
        {"terms": [2, 2], "orientable": True, "slope": 0,
         "poly": {"k": 2, "coeffs_2k": [4, -12, 4]}},
        {"terms": [3, -2], "orientable": False, "slope": 4,
         "poly": {"k": 2, "coeffs_2k": [6, -8, 6]}},
        {"terms": [-2, 3], "orientable": False, "slope": -4,
         "poly": {"k": 2, "coeffs_2k": [6, -8, 6]}},
    ]
    reply = {"alpha": 5, "beta": 2, "surface_count": 3, "surfaces": surfaces,
             "alexander": {"k": 2, "coeffs_2k": [4, -12, 4]}}
    assert gates.check_invariants_reply(json.dumps(reply), query)[0]
    surfaces[1]["poly"]["coeffs_2k"] = [6, -9, 6]
    ok, _, why = gates.check_invariants_reply(json.dumps(reply), query)
    assert not ok and "alpha" in why
    assert not gates.check_invariants_reply("{", query)[0]


def test_deep_inputs_follow_the_seed_and_the_independent_count():
    from bridgestate import make_knot
    from bridgestate.continued_fractions import surfaces_expansions

    first = gates.deep_queries(random.Random(7))
    again = gates.deep_queries(random.Random(7))
    assert first == again
    assert [q["family"] for q in first] == ["wide", "long"]
    for alpha, beta in [(5, 2), (7, 3), (19, 7), (233, 144), (1001, 3)]:
        expansions = surfaces_expansions(make_knot(alpha, beta))
        assert gates.knot_stats(alpha, beta) == (
            len(expansions),
            sum(len(e.terms) for e in expansions),
            sum(len(e.terms) ** 2 for e in expansions),
        )
    assert Fraction(*gates._from_quotients([2, 3, 4])) == 2 + Fraction(
        1, 3 + Fraction(1, 4))
