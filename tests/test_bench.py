from bench import summary, verdict

# ten paired runs of a higher-is-better rate; the parent's quartiles are
# 99.25 and 101, an IQR of 1.75 on a median of 100
PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]


def test_nine_wins_in_ten_with_a_clear_median_gap_is_a_gain():
    change = [p + 10 for p in PARENT[:9]] + [PARENT[9] - 1]
    v = verdict(PARENT, change, "higher", 0.25)
    assert (v["change_wins"], v["parent_wins"], v["pairs"]) == (9, 1, 10)
    assert v["parent_median"] == 100 and (v["parent_q1"], v["parent_q3"]) == (99.25, 101)
    assert v["gain"] is True and v["regression"] == "within bound"


def test_eight_wins_in_ten_is_no_gain_however_wide_the_gap():
    change = [p + 10 for p in PARENT[:8]] + [PARENT[8] - 1, PARENT[9] - 1]
    v = verdict(PARENT, change, "higher", 0.25)
    assert (v["change_wins"], v["parent_wins"]) == (8, 2)
    assert v["change_median"] - v["parent_median"] > v["parent_q3"] - v["parent_q1"]
    assert v["gain"] is False and v["regression"] == "within bound"


def test_every_pair_won_within_the_parent_spread_is_no_gain():
    change = [p + 0.5 for p in PARENT]
    v = verdict(PARENT, change, "higher", 0.25)
    assert v["change_wins"] == 10 and v["gain"] is False


def test_ties_count_for_neither_side():
    change = [*PARENT[:5], *(p + 10 for p in PARENT[5:])]
    v = verdict(PARENT, change, "higher", 0.25)
    assert (v["change_wins"], v["parent_wins"]) == (5, 0) and v["gain"] is False


def test_a_lower_is_better_time_worse_by_more_than_its_bound_is_a_regression():
    parent = [p / 100 for p in PARENT]  # ~1 ms, IQR 0.0175 ms
    v = verdict(parent, [1.3 * p for p in parent], "lower", 0.25)
    assert v["parent_wins"] == 10 and v["regression"] == "regression" and v["gain"] is False
    assert verdict(parent, [1.2 * p for p in parent], "lower", 0.25)["regression"] == "within bound"
    # the same worsening of a higher-is-better rate
    assert verdict(PARENT, [0.7 * p for p in PARENT], "higher", 0.25)["regression"] == "regression"


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    parent = [1.0, 2.0] * 5  # IQR 1.0 on a median of 1.5, above 25% of it
    assert verdict(parent, list(parent), "lower", 0.25)["regression"] == "unresolved"
    assert verdict(parent, [2.5] * 10, "lower", 0.25)["regression"] == "unresolved"
    # unless every change run beats every parent run
    v = verdict(parent, [0.9] * 10, "lower", 0.25)
    assert v["regression"] == "within bound" and v["gain"] is False
    assert verdict(parent, [1.0] * 10, "lower", 0.25)["regression"] == "unresolved"


def test_summary_of_one_run_is_that_run():
    assert summary([3.0]) == {"values": [3.0], "median": 3.0, "q1": 3.0, "q3": 3.0, "iqr": 0.0}
    assert summary([1, 2, 3, 4, 5]) == {"values": [1, 2, 3, 4, 5], "median": 3, "q1": 2, "q3": 4, "iqr": 2}
