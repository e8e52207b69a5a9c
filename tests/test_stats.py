"""Classification, dedup, tallies, and the threshold formula."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from baserisk.eventfile import Half
from baserisk.state import FIRST, SECOND, THIRD, Snapshot, StateTimeline
from baserisk.stats import (
    ClassKind,
    CountingMode,
    Decision,
    EmptyBucket,
    EmptyCell,
    InningCounts,
    Rate,
    SituationClass,
    TallyTable,
    add_cells,
    brt_from_rates,
    bucket_report,
    career_high_leverage_innings,
    classify_state,
    compute_brt,
    decide,
    extract_observations,
    group_summary,
    pooled_rates,
    rates,
    rates_by_pitcher,
)

KEY = ("TST200004010", 9, Half.TOP)


def bases(first=False, second=False, third=False):
    return (FIRST if first else 0) | (SECOND if second else 0) | (THIRD if third else 0)


# --- classification ----------------------------------------------------------

@pytest.mark.parametrize(
    "occ,outs,expected",
    [
        ((False, False, True), 0, (ClassKind.THIRD_OCCUPIED, 0)),
        ((True, False, True), 1, (ClassKind.THIRD_OCCUPIED, 1)),
        ((True, True, True), 1, (ClassKind.THIRD_OCCUPIED, 1)),
        ((False, False, True), 2, None),  # two outs: outside both windows
        ((False, True, False), 0, (ClassKind.SECOND_NO_THIRD, 0)),
        ((True, True, False), 1, (ClassKind.SECOND_NO_THIRD, 1)),
        ((False, True, False), 2, None),
        ((True, False, False), 1, (ClassKind.FIRST_ONLY, 1)),
        ((True, False, False), 2, (ClassKind.FIRST_ONLY, 2)),
        ((True, False, False), 0, None),  # first-only needs 1 or 2 outs
        ((False, False, False), 1, None),
    ],
)
def test_classification_table(occ, outs, expected):
    got = classify_state(bases(*occ), outs)
    if expected is None:
        assert got is None
    else:
        assert (got.kind, got.outs) == expected


@given(st.booleans(), st.booleans(), st.booleans(), st.integers(0, 2))
def test_classes_mutually_exclusive(first, second, third, outs):
    got = classify_state(bases(first, second, third), outs)
    # re-derive membership straight from the definitions
    in_third = third and outs <= 1
    in_second = second and not third and outs <= 1
    in_first = first and not second and not third and outs in (1, 2)
    assert sum([in_third, in_second, in_first]) <= 1
    expected = (
        SituationClass(ClassKind.THIRD_OCCUPIED, outs) if in_third
        else SituationClass(ClassKind.SECOND_NO_THIRD, outs) if in_second
        else SituationClass(ClassKind.FIRST_ONLY, outs) if in_first
        else None
    )
    assert got == expected


# --- observation extraction --------------------------------------------------


def make_timeline(states, runs_on_play, scores=(0, 0), inning=9,
                  complete=True, score_reliable=True, pitchers=None):
    snapshots = [
        Snapshot(b, outs, scores[0], scores[1],
                 (pitchers or ["p1"] * len(states))[i], inning)
        for i, (b, outs) in enumerate(states)
    ]
    return StateTimeline(
        KEY, 2000, snapshots, list(runs_on_play),
        outs_total=3, complete=complete,
        score_reliable=score_reliable,
    )


def test_first_occurrence_wins_dedup():
    timeline = make_timeline(
        [(bases(third=True), 1), (bases(third=True), 1), (bases(), 2)],
        [0, 1, 0],
        pitchers=["p1", "p2", "p2"],
    )
    obs = extract_observations(timeline)
    assert len(obs) == 1
    assert obs[0].pitcher_id == "p1"
    assert obs[0].scored_later  # a run came later, from the second play


def test_one_observation_per_class():
    timeline = make_timeline(
        [(bases(second=True), 0), (bases(third=True), 0),
         (bases(third=True), 1), (bases(first=True), 2)],
        [0, 0, 0, 1],
    )
    obs = extract_observations(timeline)
    kinds = {(o.situation.kind, o.situation.outs) for o in obs}
    assert kinds == {
        (ClassKind.SECOND_NO_THIRD, 0),
        (ClassKind.THIRD_OCCUPIED, 0),
        (ClassKind.THIRD_OCCUPIED, 1),
        (ClassKind.FIRST_ONLY, 2),
    }


def test_counting_modes_differ_on_scoring_play():
    timeline = make_timeline([(bases(third=True), 1)], [1])
    include = extract_observations(timeline, CountingMode.INCLUDE_PLAY)
    exclude = extract_observations(timeline, CountingMode.EXCLUDE_PLAY)
    assert include[0].scored_later is True
    assert exclude[0].scored_later is False


def test_high_leverage_window():
    close = make_timeline([(bases(third=True), 0)], [0], scores=(3, 4))
    assert extract_observations(close)[0].high_leverage
    blowout = make_timeline([(bases(third=True), 0)], [0], scores=(1, 4))
    assert not extract_observations(blowout)[0].high_leverage
    early = make_timeline([(bases(third=True), 0)], [0], inning=5)
    assert not extract_observations(early)[0].high_leverage
    extras = make_timeline([(bases(third=True), 0)], [0], inning=10)
    assert not extract_observations(extras)[0].high_leverage


def test_unreliable_score_never_high_leverage():
    timeline = make_timeline([(bases(third=True), 0)], [0], score_reliable=False)
    obs = extract_observations(timeline)
    assert obs and not obs[0].high_leverage


def test_quarantined_and_incomplete_yield_nothing():
    timeline = make_timeline([(bases(third=True), 0)], [0])
    timeline.excluded = "broken"
    assert extract_observations(timeline) == []
    truncated = make_timeline([(bases(third=True), 0)], [0], complete=False)
    assert extract_observations(truncated) == []


# --- tallies -----------------------------------------------------------------


def sample_observations():
    timelines = [
        make_timeline([(bases(third=True), 1)], [1]),
        make_timeline([(bases(third=True), 1)], [0]),
        make_timeline([(bases(second=True), 1)], [0]),
        make_timeline([(bases(first=True), 2)], [0]),
    ]
    obs = []
    for t in timelines:
        obs.extend(extract_observations(t))
    return obs


def test_tally_and_rates():
    table = TallyTable()
    table.add_all(sample_observations())
    triple = rates(table, outs=1)
    assert (triple.t.numerator, triple.t.denominator) == (1, 2)
    assert (triple.s.numerator, triple.s.denominator) == (0, 1)
    assert (triple.f.numerator, triple.f.denominator) == (0, 1)


def test_rates_reject_bad_outs():
    with pytest.raises(ValueError):
        rates(TallyTable(), outs=2)


def test_empty_cell_raises_with_label():
    with pytest.raises(EmptyCell):
        brt_from_rates(rates(TallyTable(), outs=1))


tables = st.dictionaries(
    st.tuples(
        st.sampled_from(["p1", "p2", "p3"]),
        st.sampled_from(list(ClassKind)),
        st.integers(0, 2),
        st.sampled_from([1999, 2000]),
        st.booleans(),
    ),
    st.tuples(st.integers(0, 5), st.integers(0, 5)).map(
        lambda nd: [min(nd), max(nd)]
    ),
    max_size=8,
).map(lambda cells: TallyTable(dict(cells)))


def added(*tables: TallyTable) -> dict:
    """A fresh cell dict holding the tables' cell-wise sum."""
    out: dict = {}
    for table in tables:
        add_cells(out, table.cells)
    return out


@given(tables, tables)
def test_merge_commutative(a, b):
    assert added(a, b) == added(b, a)


@given(tables, tables, tables)
def test_merge_associative(a, b, c):
    assert added(TallyTable(added(a, b)), c) == added(a, TallyTable(added(b, c)))


@given(tables)
def test_merge_identity(a):
    assert added(a, TallyTable()) == a.cells


@given(tables, st.sampled_from([None, (1999, 1999), (2000, 2005)]),
       st.sampled_from([None, {"p1"}, {"p2", "p3", "p9"}]))
def test_pooled_rates_sum_per_pitcher_rates(table, years, pitchers):
    pooled = pooled_rates(table, years, pitchers)
    assert len(pooled) == 6
    for (lev, outs), triple in pooled.items():
        kept = [t for pid, t in rates_by_pitcher(table, outs, lev, years).items()
                if pitchers is None or pid in pitchers]
        for name in "tsf":
            assert getattr(triple, name) == Rate(
                sum(getattr(t, name).numerator for t in kept),
                sum(getattr(t, name).denominator for t in kept))
        assert triple == rates(table, outs, pitchers, lev, years)


def test_inning_counts_and_career():
    innings = InningCounts()
    innings.add_timeline(make_timeline([(bases(third=True), 0)], [0]))
    innings.add_timeline(make_timeline([(bases(third=True), 0)], [0], inning=5))
    assert innings.counts[("p1", 2000)] == [1, 2]
    assert career_high_leverage_innings(innings) == {"p1": 1}
    assert career_high_leverage_innings(innings, years=(1999, 1999)) == {"p1": 0}
    other = InningCounts({("p1", 2001): [2, 3]})
    combined = InningCounts()
    for part in (innings, other):
        add_cells(combined.counts, part.counts)
    assert career_high_leverage_innings(combined) == {"p1": 3}


def test_two_pitchers_in_one_half_both_credited():
    timeline = make_timeline(
        [(bases(third=True), 0), (bases(third=True), 1)], [0, 0],
        pitchers=["p1", "p2"],
    )
    innings = InningCounts()
    innings.add_timeline(timeline)
    assert innings.counts[("p1", 2000)] == [1, 1]
    assert innings.counts[("p2", 2000)] == [1, 1]


# --- threshold formula -------------------------------------------------------


def test_clamp_when_extra_base_never_helps():
    value = compute_brt(0.5, 0.5, 0.3)
    assert value.brt == 1.0 and value.clamped
    assert compute_brt(0.3, 0.5, 0.1).clamped


def test_zero_numerator():
    assert compute_brt(0.6, 0.4, 0.0).brt == 0.0


def test_rejects_non_probabilities():
    with pytest.raises(ValueError):
        compute_brt(1.2, 0.3, 0.1)
    with pytest.raises(ValueError):
        compute_brt(0.5, -0.1, 0.1)


# Published aggregate and per-pitcher triples with their printed thresholds.
# The printed values were themselves computed from unrounded inputs, so the
# sound check is agreement of the 3-decimal roundings within one final-digit
# step (the strict printed-digits comparison lives in the acceptance suite).
AGGREGATE_CELLS = [
    (0.627, 0.398, 0.142, 0.382),
    (0.837, 0.607, 0.288, 0.556),
    (0.624, 0.398, 0.133, 0.370),
    (0.808, 0.601, 0.284, 0.578),
]

PITCHER_ROWS = [
    (0.595, 0.328, 0.043, 0.139), (0.639, 0.336, 0.072, 0.192),
    (0.692, 0.376, 0.078, 0.197), (0.658, 0.354, 0.078, 0.204),
    (0.667, 0.317, 0.095, 0.214), (0.707, 0.359, 0.099, 0.221),
    (0.638, 0.338, 0.094, 0.239), (0.543, 0.330, 0.068, 0.243),
    (0.568, 0.365, 0.067, 0.247), (0.667, 0.338, 0.117, 0.262),
    (0.688, 0.363, 0.123, 0.274), (0.585, 0.339, 0.101, 0.291),
    (0.638, 0.436, 0.084, 0.295), (0.694, 0.468, 0.094, 0.295),
    (0.671, 0.330, 0.143, 0.295), (0.603, 0.283, 0.136, 0.298),
    (0.549, 0.356, 0.082, 0.298), (0.652, 0.371, 0.130, 0.317),
    (0.621, 0.359, 0.127, 0.327), (0.591, 0.385, 0.118, 0.363),
    (0.583, 0.418, 0.121, 0.423), (0.543, 0.392, 0.115, 0.432),
    (0.569, 0.420, 0.144, 0.492), (0.568, 0.434, 0.146, 0.521),
    (0.607, 0.465, 0.191, 0.573), (0.436, 0.375, 0.084, 0.580),
]


@pytest.mark.parametrize("t,s,f,published", AGGREGATE_CELLS + PITCHER_ROWS)
def test_published_thresholds_within_rounding(t, s, f, published):
    value = compute_brt(t, s, f)
    assert not value.clamped
    assert abs(round(value.brt, 3) - published) <= 0.001 + 1e-12


@given(
    st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.0, 1.0),
)
def test_threshold_range_and_clamp(t, s, f):
    value = compute_brt(t, s, f)
    assert 0.0 <= value.brt <= 1.0
    assert value.clamped == (t <= s)


@given(st.floats(0.02, 0.98), st.floats(0.0, 0.96), st.floats(0.001, 1.0),
       st.floats(0.001, 1.0))
def test_threshold_monotone(t, s, f, f2):
    assume(t - s > 0.01)
    lo, hi = sorted([f, f2])
    assume(hi - lo > 1e-9)
    assert compute_brt(t, s, lo).brt < compute_brt(t, s, hi).brt
    # widening the t-s gap lowers the threshold
    assert compute_brt(t + 0.01, s, f).brt < compute_brt(t, s, f).brt


@given(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_decision_matches_direct_expected_value(a, b, f, p):
    t, s = max(a, b), min(a, b)
    assume(t - s > 1e-6 and f > 1e-9)
    brt = compute_brt(t, s, f).brt
    assume(abs(p - brt) > 1e-9)  # away from the float knife edge
    direct = p * t >= p * s + (1 - p) * f
    assert (decide(p, brt) is not Decision.CONVENTIONAL) == direct


def test_decision_boundary_is_indifferent():
    brt = compute_brt(0.6, 0.4, 0.1).brt
    assert decide(brt, brt) is Decision.INDIFFERENT
    assert decide(math.nextafter(brt, 1.0), brt) is Decision.AGGRESSIVE
    assert decide(math.nextafter(brt, 0.0), brt) is Decision.CONVENTIONAL


# --- buckets -----------------------------------------------------------------


def homogeneous_table(pitchers, n=40):
    """Every pitcher has identical cells: T=.6(24/40), S=.4, F=.1 at 1 out."""
    table = TallyTable()
    for pid in pitchers:
        table.cells[(pid, ClassKind.THIRD_OCCUPIED, 1, 2000, True)] = [int(0.6 * n), n]
        table.cells[(pid, ClassKind.SECOND_NO_THIRD, 1, 2000, True)] = [int(0.4 * n), n]
        table.cells[(pid, ClassKind.FIRST_ONLY, 2, 2000, True)] = [int(0.1 * n), n]
    return table


def test_homogeneous_bucket_mean_equals_cumulative():
    pitchers = [f"p{i}" for i in range(6)]
    table = homogeneous_table(pitchers)
    innings = InningCounts({(pid, 2000): [120, 150] for pid in pitchers})
    rows = bucket_report(table, innings, outs=1, boundaries=(100, 200))
    low = rows[0]
    assert low.pitchers == sorted(pitchers)
    assert low.cumulative is not None
    assert low.mean == pytest.approx(low.cumulative.brt)
    assert low.stddev == pytest.approx(0.0)
    assert rows[1].pitchers == []


def test_bucket_excludes_empty_cell_pitchers_from_mean():
    table = homogeneous_table(["p0", "p1"])
    del table.cells[("p1", ClassKind.FIRST_ONLY, 2, 2000, True)]
    innings = InningCounts({("p0", 2000): [120, 150], ("p1", 2000): [120, 150]})
    rows = bucket_report(table, innings, outs=1, boundaries=(100,))
    assert rows[0].excluded == ["p1"]
    assert rows[0].mean == pytest.approx(compute_brt(0.6, 0.4, 0.1).brt)


def test_cohort_filter_drops_early_retirees():
    table = homogeneous_table(["p0", "p1"])
    innings = InningCounts({("p0", 1990): [120, 150], ("p1", 2000): [120, 150]})
    # with a negative edge the bottom bucket must not catch the retiree either
    for boundaries in ((100,), (-5, 100)):
        rows = bucket_report(
            table, innings, outs=1, boundaries=boundaries, cohort_last_season_min=1995
        )
        assert [pid for row in rows for pid in row.pitchers] == ["p1"]


def test_empty_bucket_raises():
    innings = InningCounts({("p0", 2000): [3, 5]})
    with pytest.raises(EmptyBucket):
        bucket_report(homogeneous_table(["p0"]), innings, outs=1, boundaries=(100,))
    with pytest.raises(EmptyBucket):
        group_summary(TallyTable(), [], outs=1)


def test_group_summary_for_explicit_list():
    table = homogeneous_table(["a", "b"])
    row = group_summary(table, ["b", "a"], outs=1)
    assert row.pitchers == ["a", "b"]
    assert row.cumulative.brt == pytest.approx(compute_brt(0.6, 0.4, 0.1).brt)
