"""Smoke tests for the experiment modules (small datasets).

The full-size shape assertions live in ``benchmarks/`` (the
``bench_fig*``, ``bench_table*``, ``bench_space_model``,
``bench_page_cost`` and ``bench_ablations`` files), and CI's
``paper-shapes`` job runs them::

    PYTHONPATH=src python -m pytest benchmarks/bench_fig*.py \
        benchmarks/bench_table*.py benchmarks/bench_space_model.py \
        benchmarks/bench_page_cost.py benchmarks/bench_ablations.py \
        --benchmark-disable

These tests just prove every experiment runs, returns well-formed
results, and renders.
"""

import pytest

from repro.experiments import (
    ablations,
    datasets,
    fig7_9_feature_sizes,
    fig10_11_query_time,
    fig12_13_window,
    fig14_15_scalability,
    fig16_24_query_regions,
    report,
    table3_compression,
    table4_corners,
)

DAYS = 2
EPS = (0.2, 0.8)


class TestDatasets:
    def test_standard_series_cached(self):
        a = datasets.standard_series(days=DAYS)
        b = datasets.standard_series(days=DAYS)
        assert a is b

    def test_scalability_groups_contiguous(self):
        groups = datasets.scalability_groups(3, 1)
        for prev, cur in zip(groups, groups[1:]):
            assert cur.t_start > prev.t_end
        total = sum(len(g) for g in groups)
        assert total == 3 * 288


class TestReport:
    def test_render_table_alignment(self):
        out = report.render_table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_render_series(self):
        out = report.render_series("x", [1, 2], [("y", [10, 20])], title="t")
        assert "t" in out and "y" in out

    def test_format_helpers(self):
        assert report.format_bytes(2048) == "2.0 KiB"
        assert report.format_bytes(None) == "-"
        assert report.format_seconds(0.002).endswith("ms")
        assert report.format_seconds(2.0) == "2.00 s"
        assert report.format_seconds(None) == "-"


class TestExperimentsRun:
    def test_table3(self):
        rates = table3_compression.run(epsilons=EPS, days=DAYS)
        assert set(rates) == set(EPS)
        assert rates[0.8] > rates[0.2] > 1.0

    def test_fig7_9(self):
        rows = fig7_9_feature_sizes.run(epsilons=EPS, days=DAYS)
        for row in rows.values():
            assert row.segdiff_feature_bytes > 0
            assert row.exh_feature_bytes > row.segdiff_feature_bytes
            assert row.r_f > 1.0 and row.r_d > 1.0

    def test_table4(self):
        rows = table4_corners.run(epsilons=EPS, days=DAYS)
        for row in rows.values():
            total = row.pct_one + row.pct_two + row.pct_three
            assert total == pytest.approx(100.0)
            assert 1.0 <= row.effective <= 3.0

    def test_fig10_11(self):
        rows = fig10_11_query_time.run(epsilons=(0.2,), days=DAYS, repeats=1)
        row = rows[0.2]
        assert row.segdiff_scan > 0 and row.exh_scan > 0
        assert row.n_results_exh >= 0

    def test_fig12_13(self):
        rows = fig12_13_window.run(window_hours=(1, 4), days=DAYS, repeats=1)
        assert rows[4].segdiff_feature_bytes >= rows[1].segdiff_feature_bytes
        assert rows[4].exh_feature_bytes > rows[1].exh_feature_bytes

    def test_fig14_15(self):
        rows = fig14_15_scalability.run(
            n_groups=3, days_per_group=1, exh_groups=1, repeats=1
        )
        assert len(rows) == 3
        assert rows[0].exh_feature_bytes is not None
        assert rows[2].exh_feature_bytes is None
        assert rows[2].exh_feature_bytes_extrapolated > 0
        sizes = [r.segdiff_feature_bytes for r in rows]
        assert sizes == sorted(sizes)

    def test_fig16_24(self):
        study = fig16_24_query_regions.run(n_queries=4, days=DAYS, repeats=1)
        assert len(study.timings) == 4
        for t in study.timings:
            assert set(t.segdiff) == set(t.exh)
        assert study.median_ratio("scan", "warm") > 0
        assert study.hard_queries()

    def test_ablations(self):
        seg_rows = ablations.run_segmenters(days=DAYS)
        assert {r.name for r in seg_rows} == {
            "sliding-window", "bottom-up", "swab"
        }
        sp = ablations.run_self_pairs(days=DAYS)
        assert sp["with self-pairs"]["rows"] >= sp["paper-literal"]["rows"]
        be = ablations.run_backends(days=DAYS, repeats=1)
        assert be["memory"]["hits"] == be["sqlite"]["hits"]

    def test_planner_ablation(self):
        totals = ablations.run_planner(days=DAYS, n_queries=4, repeats=1)
        assert set(totals) == {"scan", "index", "auto", "oracle"}
        assert totals["oracle"] <= min(totals["scan"], totals["index"]) + 1e-9

    def test_access_method_ablation(self):
        out = ablations.run_access_methods(days=DAYS, repeats=1)
        for times in out.values():
            assert set(times) == {"scan", "index", "grid"}

    def test_space_model(self):
        from repro.experiments import space_model

        rows = space_model.run(epsilons=EPS, days=DAYS)
        for row in rows.values():
            assert row.predicted_ratio > 0
            assert row.measured_cell_ratio > 0
            assert 5.0 <= row.c2_effective <= 7.0

    def test_page_cost(self):
        from repro.experiments import page_cost

        rows = page_cost.run(days=DAYS)
        assert {r.label for r in rows} == {"selective", "canonical", "hard"}
        for row in rows:
            assert row.segdiff_scan > 0 and row.exh_scan > 0
            assert row.exh_scan > row.segdiff_scan


class TestMains:
    """Every experiment's main() renders without error."""

    @pytest.mark.parametrize(
        "module",
        [table3_compression, table4_corners],
    )
    def test_cheap_mains(self, module, capsys):
        out = module.main()
        assert out
        assert capsys.readouterr().out.strip() == out.strip()
