"""Classification, dedup, tallies, and the threshold formula."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from baserisk.eventfile import SubLine, iter_games
from baserisk.pipeline import ingest_text
from baserisk.state import FIRST, SECOND, THIRD, replay_game
from baserisk.stats import (
    CELLS,
    ClassKind,
    CountingMode,
    Decision,
    EmptyBucket,
    EmptyCell,
    InningCounts,
    Rate,
    RateSummary,
    RateTriple,
    SituationClass,
    SituationObservation,
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
    rates,
)
from conftest import make_game_text, replay_events, run_half, walk_game

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


def test_cells_are_the_classes_classify_state_produces():
    produced = {classify_state(mask, outs) for mask in range(8) for outs in range(3)}
    assert len(set(CELLS)) == len(CELLS) == 6
    assert set(CELLS) == produced - {None}
    assert all(type(cell) is SituationClass for cell in CELLS)


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

T1 = SituationClass(ClassKind.THIRD_OCCUPIED, 1)


def relief(pid="hrel1"):
    """A home reliever coming in."""
    return SubLine(pid, "Reliever", 1, 0, 1)


def late_half(tokens, inning=9, scores=(0, 0), quarantine_first=False):
    """The top half of ``inning``, its tokens as in ``run_half``, replayed after a first inning in which
    the visitors and then the home side hit ``scores`` home runs, so that
    the half opens at that score; with ``quarantine_first`` the top of the
    1st is quarantined first, so that no later score is trusted."""
    events = [(1, 0, "ZZ9")] if quarantine_first else []
    for half, runs in enumerate(scores):
        events += [(1, half, "HR")] * runs + [(1, half, "K")] * 3
    events += [(inning, 0, t) if isinstance(t, str) else t for t in tokens]
    return replay_events(events).timelines[-1]


def observed(timeline, situation, mode=CountingMode.INCLUDE_PLAY):
    (obs,) = [o for o in extract_observations(timeline, mode) if o.situation == situation]
    return obs


def test_first_occurrence_wins_dedup():
    # third and one out twice, the second time under a reliever whose play
    # scores the run
    timeline, _ = run_half(["K", "T9", "WP", relief(), "S8.3-H", "K", "K"])
    assert timeline.snapshots[2:4] == [THIRD << 2 | 1] * 2
    obs = extract_observations(timeline)
    assert [o.situation for o in obs].count(T1) == 1
    first = observed(timeline, T1)
    assert first.pitcher_id == "hpit1"
    assert first.scored_later  # a run came later, on the reliever's play


def test_one_observation_per_class():
    timeline, _ = run_half(["D7", "WP.2-3", "K", "8/F.3-H", "S8", "K"])
    obs = extract_observations(timeline)
    kinds = [(o.situation.kind, o.situation.outs) for o in obs]
    assert kinds == [
        (ClassKind.SECOND_NO_THIRD, 0),
        (ClassKind.THIRD_OCCUPIED, 0),
        (ClassKind.THIRD_OCCUPIED, 1),
        (ClassKind.FIRST_ONLY, 2),
    ]


def test_counting_modes_differ_on_scoring_play():
    timeline, _ = run_half(["K", "T9", "S8.3-H", "K", "K"])
    assert observed(timeline, T1, CountingMode.INCLUDE_PLAY).scored_later is True
    assert observed(timeline, T1, CountingMode.EXCLUDE_PLAY).scored_later is False


def test_high_leverage_window():
    third = SituationClass(ClassKind.THIRD_OCCUPIED, 0)
    tokens = ["T9", "K", "K", "K"]
    assert observed(late_half(tokens, scores=(3, 4)), third).high_leverage
    assert not observed(late_half(tokens, scores=(1, 4)), third).high_leverage
    assert not observed(late_half(tokens, inning=5), third).high_leverage
    assert not observed(late_half(tokens, inning=10), third).high_leverage


def test_unreliable_score_never_high_leverage():
    timeline = late_half(["T9", "K", "K", "K"], quarantine_first=True)
    assert timeline.faced == {"hpit1": False}
    obs = extract_observations(timeline)
    assert obs and not any(o.high_leverage for o in obs)


def test_quarantined_and_incomplete_yield_nothing():
    timeline, _ = run_half(["T9", "K", "ZZ9", "K", "K"])
    assert timeline.excluded is not None and timeline.firsts
    assert extract_observations(timeline) == []
    truncated, _ = run_half(["T9", "K"])
    assert not truncated.complete and truncated.firsts
    assert extract_observations(truncated) == []


# --- tallies -----------------------------------------------------------------


def sample_observations():
    """Third and one out scored on its own play, then not at all, then
    second and one out and first and two outs, neither scored."""
    replay = replay_events(
        [(1, 0, t) for t in ["K", "T9", "HR", "K", "K"]]
        + [(1, 1, t) for t in ["K", "T9", "K", "K"]]
        + [(2, 0, t) for t in ["K", "D7", "K", "K"]]
        + [(2, 1, t) for t in ["K", "K", "S8", "K"]])
    return [obs for t in replay.timelines for obs in extract_observations(t)]


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
def test_rates_sum_matching_cells(table, years, pitchers):
    """rates and pooled pool every matching cell, over every pitcher or
    over the ids asked for, each id once; triple holds each pitcher's sums,
    which are 0 of 0 where no cell of theirs matches, and is None for an id
    with no row.  One summary answers every question, and has a row for
    every pitcher with a cell, inside ``years`` or not."""
    summary = RateSummary(table, years)
    assert set(summary.rows) == {pid for pid, *_ in table.cells}
    for lev in (None, True, False):
        for outs in (0, 1):
            wanted = {"t": (ClassKind.THIRD_OCCUPIED, outs),
                      "s": (ClassKind.SECOND_NO_THIRD, outs),
                      "f": (ClassKind.FIRST_ONLY, outs + 1)}

            def matching(kinds, pids):
                return [
                    cell for (pid, k, o, season, hl), cell in table.cells.items()
                    if (k, o) in kinds and (pids is None or pid in pids)
                    and (lev is None or hl == lev)
                    and (years is None or years[0] <= season <= years[1])
                ]

            def check(triple, pids):
                assert triple.outs == outs
                for name, kind_outs in wanted.items():
                    kept = matching([kind_outs], pids)
                    assert getattr(triple, name) == Rate(
                        sum(num for num, _ in kept), sum(den for _, den in kept))

            check(rates(table, outs, lev, years), None)
            check(summary.pooled(outs, lev), None)
            if pitchers is not None:
                check(summary.pooled(outs, lev, pitchers), pitchers)
                repeated = [pid for pid in sorted(pitchers) for _ in range(2)]
                check(summary.pooled(outs, lev, repeated), pitchers)
            for pid in pitchers or summary.rows:
                triple = summary.triple(pid, outs, lev)
                if pid in summary.rows:
                    check(triple, {pid})
                else:
                    assert triple is None


@given(tables, st.sampled_from([None, (1999, 1999), (2000, 2005)]))
def test_pooled_sums_the_slot_columns(table, years):
    """``pooled`` sums the summary's slots straight, to the triple that
    adding every pitcher's ``triple`` rate by rate gives."""
    summary = RateSummary(table, years)
    for lev in (None, True, False):
        for outs in (0, 1):
            triples = [summary.triple(pid, outs, lev) for pid in summary.rows]
            assert summary.pooled(outs, lev) == RateTriple(*(
                Rate(sum(getattr(t, k).numerator for t in triples),
                     sum(getattr(t, k).denominator for t in triples))
                for k in "tsf"), outs)


def test_inning_counts_and_career():
    replay = replay_events([(5, 0, t) for t in ["T9", "K", "K", "K"]]
                           + [(9, 0, t) for t in ["T9", "K", "K", "K"]])
    innings = InningCounts()
    for timeline in replay.timelines:
        innings.add_timeline(timeline)
    assert innings.counts == {("hpit1", 2000): [1, 2]}
    assert career_high_leverage_innings(innings) == {"hpit1": 1}
    assert career_high_leverage_innings(innings, years=(1999, 1999)) == {"hpit1": 0}
    other = InningCounts({("hpit1", 2001): [2, 3]})
    combined = InningCounts()
    for part in (innings, other):
        add_cells(combined.counts, part.counts)
    assert career_high_leverage_innings(combined) == {"hpit1": 3}


def test_two_pitchers_in_one_half_both_credited():
    timeline = late_half(["T9", relief("p2"), "K", "K", "K"])
    innings = InningCounts()
    innings.add_timeline(timeline)
    assert innings.counts == {("hpit1", 2000): [1, 1], ("p2", 2000): [1, 1]}


# --- the tally paths against a plain walk of the plays ----------------------

# plays that record no out and are legal on any bases, one that is legal
# only with a runner on third, and one that never parses
SAFE_PLAYS = ["S8", "D7", "T9", "HR", "W", "HP", "E6", "WP", "NP", "FC5"]
RISKY_PLAYS = ["S8.3-H", "ZZ9"]


@st.composite
def late_games(draw):
    """The lines of a game of consecutive halves in innings 7-10 whose
    margins move as runs score.  A half may open with a placed runner or
    hold a play that quarantines it (either leaves no later score trusted),
    change pitchers mid-way, or stop short of its third out, cut off by the
    next half."""
    first = draw(st.integers(14, 19))  # 2 * inning + half
    lines = []
    for number in range(first, min(first + draw(st.integers(1, 5)), 22)):
        inning, half = divmod(number, 2)
        plays = draw(st.lists(st.sampled_from(SAFE_PLAYS * 4 + RISKY_PLAYS + ["K"]),
                              max_size=8))
        outs = min(plays.count("K"), 3)
        if draw(st.booleans()) or number == 21:
            plays += ["K"] * (3 - outs)  # close the half
        team = "vh"[half]
        half_lines = [(inning, half, f"{team}{n}", token) for n, token in enumerate(plays)]
        if draw(st.booleans()):
            at = draw(st.integers(0, len(half_lines)))
            half_lines.insert(at, f'sub,rel{number},"Reliever",{1 - half},0,1')
        if draw(st.integers(0, 7)) == 0:
            half_lines.insert(0, f"radj,{team}run{number},2")
        lines += half_lines
    return lines


def plain_walk(account, mode):
    """Cells, innings rows and each half's observations, from the plays of
    ``walk_game`` over the account, written out plainly.  A play is late
    and close in the 8th or 9th inning, within one run, in a trusted
    half."""
    cells, innings, observations = {}, {}, []
    halves = walk_game(account)
    for h in halves:
        observations.append([])
        if h.excluded is not None or not h.complete:
            continue
        key = (account.game_id, h.inning, h.half)
        high = [h.trusted and h.inning in (8, 9) and abs(p.batting - p.fielding) <= 1
                for p in h.plays]
        seen = set()
        for idx, play in enumerate(h.plays):
            situation = classify_state(play.code >> 2, play.code & 3)
            if situation is None or situation in seen:
                continue
            seen.add(situation)
            start = idx + 1 if mode is CountingMode.EXCLUDE_PLAY else idx
            later = sum(p.runs for p in h.plays[start:])
            observations[-1].append(SituationObservation(
                key, play.pitcher, situation, later >= 1, high[idx], account.season))
            cell = cells.setdefault(
                (play.pitcher, situation.kind, situation.outs, account.season, high[idx]),
                [0, 0])
            cell[0] += later >= 1
            cell[1] += 1
        for pid in {p.pitcher for p in h.plays}:
            row = innings.setdefault((pid, account.season), [0, 0])
            row[0] += any(hi for p, hi in zip(h.plays, high) if p.pitcher == pid)
            row[1] += 1
    return cells, innings, observations


@settings(max_examples=300, deadline=None)
@given(late_games())
def test_tally_matches_a_plain_walk_of_replayed_halves(lines):
    """Each tally path reads replay's record of each half: ingest's cells
    and innings rows, ``extract_observations``, and ``TallyTable.add_all``
    and ``InningCounts.add_timeline`` over every timeline all agree with a
    walk of the account's plays that reads nothing of replay, in both
    counting modes."""
    text = make_game_text(lines)
    (account,) = iter_games(text, [], None, {})
    timelines = replay_game(account, {}, {}).timelines
    for mode in CountingMode:
        cells, innings, observations = plain_walk(account, mode)
        result = ingest_text(text, mode)
        assert result.table.cells == cells
        assert result.innings.counts == innings
        assert result.counts["observations"] == sum(map(len, observations))
        assert [extract_observations(t, mode) for t in timelines] == observations
        table, counts = TallyTable(), InningCounts()
        for timeline in timelines:
            table.add_all(extract_observations(timeline, mode))
            counts.add_timeline(timeline)
        assert table.cells == result.table.cells
        assert counts.counts == result.innings.counts


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
    rows = bucket_report(RateSummary(table), innings, outs=1, boundaries=(100, 200))
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
    rows = bucket_report(RateSummary(table), innings, outs=1, boundaries=(100,))
    assert rows[0].excluded == ["p1"]
    assert rows[0].mean == pytest.approx(compute_brt(0.6, 0.4, 0.1).brt)


def test_cohort_filter_drops_early_retirees():
    table = homogeneous_table(["p0", "p1"])
    innings = InningCounts({("p0", 1990): [120, 150], ("p1", 2000): [120, 150]})
    # with a negative edge the bottom bucket must not catch the retiree either
    for boundaries in ((100,), (-5, 100)):
        rows = bucket_report(RateSummary(table), innings, outs=1, boundaries=boundaries,
                             cohort_last_season_min=1995)
        assert [pid for row in rows for pid in row.pitchers] == ["p1"]


def test_empty_bucket_raises():
    innings = InningCounts({("p0", 2000): [3, 5]})
    with pytest.raises(EmptyBucket):
        bucket_report(RateSummary(homogeneous_table(["p0"])), innings, outs=1,
                      boundaries=(100,))
    with pytest.raises(EmptyBucket):
        group_summary(RateSummary(TallyTable()), [], outs=1)


def test_group_summary_counts_an_id_once():
    table = homogeneous_table(["a"])
    add_cells(table.cells, homogeneous_table(["b"], n=20).cells)
    table.cells[("b", ClassKind.FIRST_ONLY, 2, 2000, True)] = [6, 20]
    summary = RateSummary(table)
    assert group_summary(summary, ["a", "a", "b"], outs=1) == group_summary(
        summary, ["a", "b"], outs=1)


def test_group_summary_for_explicit_list():
    table = homogeneous_table(["a", "b"])
    row = group_summary(RateSummary(table), ["b", "a"], outs=1)
    assert row.label == "leaders"
    assert row.pitchers == ["a", "b"]
    assert row.cumulative.brt == pytest.approx(compute_brt(0.6, 0.4, 0.1).brt)
