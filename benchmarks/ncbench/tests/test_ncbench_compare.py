"""Comparator verdicts and the paper-interval arithmetic."""

from ncbench.compare import spread, verdict


def test_within_bound_is_ok_and_beyond_is_worse():
    assert verdict([100.0], [104.0], "lower", 0.05) == "ok"
    assert verdict([100.0], [106.0], "lower", 0.05) == "worse"
    assert verdict([100.0], [90.0], "lower", 0.05) == "ok"
    # "higher is better" flips the direction.
    assert verdict([100.0], [94.0], "higher", 0.05) == "worse"
    assert verdict([100.0], [120.0], "higher", 0.05) == "ok"


def test_spread_wider_than_bound_is_unresolved_unless_disjoint():
    noisy = [80.0, 90.0, 100.0, 110.0, 120.0]
    assert spread(noisy) > 0.05
    assert verdict(noisy, [95.0, 101.0, 108.0], "lower", 0.05) == "unresolved"
    # Every run of B worse than every run of A: resolved, and worse.
    assert verdict(noisy, [130.0, 140.0, 150.0], "lower", 0.05) == "worse"
    # Every run of B better than every run of A: resolved, and fine.
    assert verdict(noisy, [50.0, 60.0, 70.0], "lower", 0.05) == "ok"


def test_exact_rows_report_any_change():
    assert verdict([5.0, 5.0], [5.0, 5.0], "lower", 0.02, exact=True) == "ok"
    assert verdict([5.0], [5.01], "lower", 0.02, exact=True) == "changed"
    assert verdict([5.0], [4.0], "lower", 0.02, exact=True) == "changed"
    assert verdict([5.0], [5.5], "lower", 0.02, exact=True) == "worse"


def test_distance_to_the_papers_interval(run_module):
    distance = run_module.distance_to_interval
    assert distance(92.0, 92.0, 92.0) == 0.0
    assert distance(84.9, 92.0, 92.0) == 92.0 - 84.9
    assert distance(31.0, 29.0, 36.0) == 0.0
    assert distance(40.0, 29.0, 36.0) == 4.0
    assert distance(20.0, 29.0, 36.0) == 9.0


def test_paper_intervals_come_from_the_claims_registry(run_module):
    assert run_module._paper_interval("fig5-ncache-32k") == (92.0, 92.0)
    assert run_module._paper_interval("fig4-ncache-32k") == (29.0, 36.0)
    assert run_module._paper_interval("fig7-75pct") == (18.6, 18.6)
    assert run_module._paper_interval("fig6a-500mb") == (10.0, 20.0)
