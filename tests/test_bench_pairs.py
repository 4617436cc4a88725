import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def runs_of(parent_run_s, change_run_s):
    return {side: [{"run_s": v, "run_wall_s": v, "success": 1.0} for v in values]
            for side, values in (("parent", parent_run_s), ("change", change_run_s))}


def test_gain_needs_nine_tenths_of_the_pairs_and_the_parent_spread():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    faster = [v - 5.0 for v in parent]
    lines = bench_pairs.summarise(runs_of(parent, faster))
    assert lines[0].startswith("run_s: parent 12.250 [11.125, 13.375]")
    assert "change lower in 10 of 10  gain shown" in lines[0]
    assert lines[2] == "success: parent 1.000  change 1.000"
    # a tie counts for neither side, so 9 of 10 is still a gain
    assert "lower in 9 of 10  gain shown" in bench_pairs.summarise(
        runs_of(parent, faster[:-1] + parent[-1:]))[0]
    # a win in every pair by less than the parent's interquartile range is not
    slightly = [v - 1.0 for v in parent]
    assert "lower in 10 of 10  gain not shown" in bench_pairs.summarise(
        runs_of(parent, slightly))[0]
    # nor are large wins in 8 pairs of 10
    assert "lower in 8 of 10  gain not shown" in bench_pairs.summarise(
        runs_of(parent, faster[:8] + [20.0, 20.0]))[0]


def test_a_run_reports_its_children_peak_beside_its_own():
    report = {"correct": True, "metrics": {"run_s": {"value": 1.2, "unit": "s"},
                                           "peak_rss_mb": {"value": 41.0, "unit": "MB"}}}
    figures = bench_pairs.figures_of(report, {"run_wall_s": [0.7, 0.5, 0.6],
                                              "children_peak_rss_mb": 39.5})
    assert figures == {"run_s": 1.2, "peak_rss_mb": 41.0, "run_wall_s": 0.6,
                       "children_peak_rss_mb": 39.5}
    runs = {side: [dict(figures, children_peak_rss_mb=v) for v in values]
            for side, values in (("parent", [39.5, 40.0, 39.0]),
                                 ("change", [41.0, 40.5, 42.0]))}
    assert "children_peak_rss_mb: parent 39.500  change 41.000" in \
        bench_pairs.summarise(runs)
