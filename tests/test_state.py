"""Replay correctness: hand-worked plays, conservation, quarantine."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from baserisk.eventfile import assemble_games, tokenize_event_file
from baserisk.playtoken import PlayKind, UnparseableEvent, parse_play_token
from baserisk.state import (
    FIRST,
    SECOND,
    THIRD,
    BaseState,
    IllegalState,
    Snapshot,
    apply_play,
    effect_text,
    replay_game,
    resolve_step,
)
from conftest import decorate, make_game_text, pin_corpus, run_half


def effects(token, bases=BaseState(), outs=0, batter="bat0"):
    return apply_play(bases, outs, parse_play_token(token), batter)


def test_home_run_clears_bases():
    fx = effects("HR.1-H", BaseState(first="r1"), outs=1)
    assert (fx.outs_recorded, fx.runs_scored) == (0, 2)
    assert fx.new_bases == BaseState()


def test_home_run_implied_scoring():
    # no advance section at all: runners still come around
    fx = effects("HR", BaseState(first="r1", third="r3"))
    assert fx.runs_scored == 3
    assert fx.new_bases == BaseState()


def test_ground_double_play():
    fx = effects("64(1)3/GDP", BaseState(first="r1"), outs=1)
    assert (fx.outs_recorded, fx.runs_scored) == (2, 0)
    assert fx.new_bases == BaseState()


def test_strikeout_leaves_runners():
    fx = effects("K", BaseState(first="r1", second="r2"))
    assert fx.outs_recorded == 1
    assert fx.new_bases == BaseState(first="r1", second="r2")


def test_dropped_third_strike():
    fx = effects("K.B-1")
    assert fx.outs_recorded == 0
    assert fx.new_bases.first == "bat0"


def test_walk_pushes_only_forced_runners():
    fx = effects("W", BaseState(first="r1", third="r3"))
    assert fx.runs_scored == 0
    assert fx.new_bases == BaseState(first="bat0", second="r1", third="r3")


def test_bases_loaded_walk_scores_without_explicit_advances():
    fx = effects("W", BaseState("r1", "r2", "r3"))
    assert fx.runs_scored == 1
    assert fx.new_bases == BaseState(first="bat0", second="r1", third="r2")


def test_force_out_batter_reaches_first():
    fx = effects("64(1)", BaseState(first="r1"))
    assert fx.outs_recorded == 1
    assert fx.new_bases == BaseState(first="bat0")


def test_single_pushes_held_runner():
    # no advance recorded for the runner on first: the batter forces him up
    fx = effects("S8", BaseState(first="r1"))
    assert fx.new_bases == BaseState(first="bat0", second="r1")


def test_explicit_advance_overrides_push():
    fx = effects("S8.1-3", BaseState(first="r1"))
    assert fx.new_bases == BaseState(first="bat0", third="r1")


def test_out_on_advance_counts():
    fx = effects("S8.1XH(82)", BaseState(first="r1"))
    assert fx.outs_recorded == 1
    assert fx.runs_scored == 0
    assert fx.new_bases == BaseState(first="bat0")


def test_error_negated_advance_out_is_safe():
    fx = effects("K.2X3(E5)", BaseState(second="r2"))
    assert fx.outs_recorded == 1  # the strikeout stands, the tag does not
    assert fx.new_bases == BaseState(third="r2")


def test_caught_stealing_removes_runner():
    fx = effects("CS2(26)", BaseState(first="r1"))
    assert fx.outs_recorded == 1
    assert fx.new_bases == BaseState()


def test_strikeout_plus_steal():
    fx = effects("K+SB2", BaseState(first="r1"))
    assert fx.outs_recorded == 1
    assert fx.new_bases == BaseState(second="r1")


def test_pickoff():
    fx = effects("PO1(13)", BaseState(first="r1"))
    assert fx.outs_recorded == 1 and fx.new_bases == BaseState()
    fx = effects("PO1(E3)", BaseState(first="r1"))
    assert fx.outs_recorded == 0 and fx.new_bases == BaseState(first="r1")


def test_batter_out_on_advance_to_home():
    fx = effects("T9.BXH(82)")
    assert fx.outs_recorded == 1
    assert fx.new_bases == BaseState()


@pytest.mark.parametrize(
    "token,bases,outs",
    [
        ("S8.2-H", BaseState(), 0),             # advance from an empty base
        ("64(1)3/GDP", BaseState(first="r"), 2),  # fourth out
        ("CS2(26)", BaseState(), 0),            # out recorded on empty base
        ("S8.3-H;2-H;1-3;B-3", BaseState("a", "b", "c"), 0),
    ],
)
def test_illegal_states(token, bases, outs):
    with pytest.raises(IllegalState):
        effects(token, bases, outs)


def test_collision_without_force_is_illegal():
    # runner from first to second while the runner on second holds: the
    # held runner is pushable, so this cascades legally
    fx = effects("S8.1-2", BaseState(first="r1", second="r2"))
    assert fx.new_bases == BaseState(first="bat0", second="r1", third="r2")
    # but two explicit advances to the same base cannot both stand
    with pytest.raises(IllegalState):
        effects("S8.1-3;2-3", BaseState(first="r1", second="r2"))


# --- half-inning replay ------------------------------------------------------


def test_worked_half_inning_walkthrough():
    timeline, diags = run_half(["W", "S8/G.1-3", "K", "K", "3/G"])
    assert diags == []
    assert len(timeline.snapshots) == 5
    third_snap = timeline.snapshots[2]
    assert third_snap.bases == FIRST | THIRD
    assert timeline.runs_after == [0, 0, 0, 0, 0]
    assert timeline.complete and timeline.outs_total == 3


def test_runs_after_suffix_sums():
    timeline, _ = run_half(["D7", "S8.2-H", "HR.1-H", "K", "K", "K"])
    assert timeline.runs_on_play == [0, 1, 2, 0, 0, 0]
    assert timeline.runs_after == [3, 3, 2, 0, 0, 0]
    assert sum(timeline.runs_on_play) == 3


def test_walk_off_half_is_complete():
    timeline, _ = run_half(["K", "S8.B-1"], at_game_end=True)
    assert timeline.complete and timeline.outs_total == 1


def test_truncated_half_is_incomplete():
    timeline, _ = run_half(["K"], at_game_end=False)
    assert not timeline.complete


def test_unparseable_token_quarantines():
    timeline, diags = run_half(["W", "GLORP", "K"])
    assert timeline.excluded is not None
    assert any(d.code == "quarantined_half_inning" for d in diags)


def test_quarantine_names_its_own_token():
    # both share one memo key, yet each reason quotes the token as written
    assert effect_text("ZZ/G") == effect_text("ZZ/F") == "ZZ"
    _, diags = run_half(["ZZ/G", "ZZ/F"])
    assert [d.detail for d in diags if d.code == "quarantined_half_inning"] == [
        "unparseable event 'ZZ/G': unrecognized basic event 'ZZ'",
        "unparseable event 'ZZ/F': unrecognized basic event 'ZZ'",
    ]


def test_illegal_state_quarantines():
    timeline, diags = run_half(["S8.3-H"])
    assert timeline.excluded is not None
    assert timeline.snapshots == []  # nothing usable was recorded


def test_snapshot_is_an_immutable_positional_record():
    snap = Snapshot(FIRST | THIRD, 1, 3, 2, "hpit1", 9)
    assert Snapshot._fields == (
        "bases", "outs", "score_batting", "score_fielding", "pitcher_id", "inning")
    assert (snap.bases, snap.outs, snap.score_batting, snap.score_fielding,
            snap.pitcher_id, snap.inning) == (FIRST | THIRD, 1, 3, 2, "hpit1", 9)
    with pytest.raises(AttributeError):
        snap.outs = 2
    assert not hasattr(snap, "__dict__")


def test_snapshots_never_show_three_outs():
    timeline, _ = run_half(["K", "K", "W", "S8.1-3", "K"])
    assert all(s.outs <= 2 for s in timeline.snapshots)


# --- whole-game replay -------------------------------------------------------


def replay_text(text):
    games, diags = assemble_games(tokenize_event_file(text)[0])
    assert diags == []
    return replay_game(games[0])


def test_scores_accumulate_across_halves():
    text = make_game_text([
        (1, 0, "vbat1", "HR"),
        (1, 0, "vbat2", "K"), (1, 0, "vbat3", "K"), (1, 0, "vbat4", "K"),
        (1, 1, "hbat1", "K"), (1, 1, "hbat2", "K"), (1, 1, "hbat3", "K"),
        (2, 0, "vbat5", "K"), (2, 0, "vbat6", "K"), (2, 0, "vbat7", "K"),
        (2, 1, "hbat4", "HR"), (2, 1, "hbat5", "HR"), (2, 1, "hbat6", "K"),
    ])
    replay = replay_text(text)
    assert replay.final_score == (1, 2)
    bottom2 = replay.timelines[-1]
    first = bottom2.snapshots[0]
    assert (first.score_batting, first.score_fielding) == (0, 1)
    later = bottom2.snapshots[2]
    assert (later.score_batting, later.score_fielding) == (2, 1)


def test_snapshot_pitcher_is_fielding_side():
    text = make_game_text([(1, 0, "vbat1", "K")])
    replay = replay_text(text)
    assert replay.timelines[0].snapshots[0].pitcher_id == "hpit1"


def test_mid_inning_pitcher_change_shifts_credit():
    text = make_game_text([
        (1, 0, "vbat1", "K"),
        'sub,hpit2,"Relief",1,0,1',
        (1, 0, "vbat2", "K"),
        (1, 0, "vbat3", "K"),
    ])
    replay = replay_text(text)
    pitchers = [s.pitcher_id for s in replay.timelines[0].snapshots]
    assert pitchers == ["hpit1", "hpit2", "hpit2"]


def test_pinch_runner_swaps_in_place():
    # the runner's identity is not state: a pinch runner changes nothing
    plays = [(1, 0, "vbat1", "W"), (1, 0, "vbat2", "S8"), (1, 0, "vbat3", "D7.2-H;1-3")]
    with_sub = plays[:1] + ['sub,vbat9,"Runner",0,1,12'] + plays[1:]
    replays = [replay_text(make_game_text(lines)) for lines in (plays, with_sub)]
    for timeline in (r.timelines[0] for r in replays):
        assert [(s.bases, s.outs) for s in timeline.snapshots] == [
            (0, 0), (FIRST, 0), (FIRST | SECOND, 0)]
        assert timeline.runs_on_play == [0, 0, 1]


def test_no_play_emits_no_snapshot():
    timeline, _ = run_half(["NP", "K", "K", "K"])
    assert len(timeline.snapshots) == 3


def test_quarantine_marks_rest_of_game_unreliable():
    text = make_game_text([
        (1, 0, "vbat1", "GLORP"),
        (1, 1, "hbat1", "K"), (1, 1, "hbat2", "K"), (1, 1, "hbat3", "K"),
    ])
    replay = replay_text(text)
    top1, bottom1 = replay.timelines
    assert top1.excluded is not None
    assert not bottom1.score_reliable
    assert bottom1.excluded is None  # still usable for all-innings stats


def test_incomplete_half_flagged():
    text = make_game_text([
        (1, 0, "vbat1", "K"),
        (1, 1, "hbat1", "K"), (1, 1, "hbat2", "K"), (1, 1, "hbat3", "K"),
    ])
    games, _ = assemble_games(tokenize_event_file(text)[0])
    replay = replay_game(games[0])
    assert not replay.timelines[0].complete
    assert any(d.code == "incomplete_half_inning" for d in replay.diagnostics)


def test_missing_starting_pitcher_is_reported():
    text = make_game_text([(1, 0, "vbat1", "K")]).replace(
        'start,hpit1,"H Pitcher",1,0,1\n', ""
    )
    games, _ = assemble_games(tokenize_event_file(text)[0])
    replay = replay_game(games[0])
    assert replay.timelines == []
    assert any(d.code == "missing_info" for d in replay.diagnostics)


# --- invariants over generated sequences -------------------------------------

TOKEN_POOL = [
    "K", "W", "S8", "S8.1-3", "D7", "D7.1-H", "T9", "HR", "8/F", "43/G",
    "64(1)3/GDP", "K+SB2", "CS2(26)", "E3", "FC5", "W.1-2", "S8.1XH(82)",
    "31/G", "SB2", "WP.1-2", "NP", "S8.3-H", "GLORP",
]


def occupancy(bases):
    return sum(bit for bit, runner in zip((FIRST, SECOND, THIRD),
                                          (bases.first, bases.second, bases.third))
               if runner is not None)


def fold_half(tokens):
    """The half-inning as apply_play sees it, with a distinct id per batter:
    (snapshot masks, runs per play, outs, quarantine reason)."""
    bases, outs, masks, runs, excluded = BaseState(), 0, [], [], None
    for i, token in enumerate(tokens):
        try:
            play = parse_play_token(token)
        except UnparseableEvent as exc:
            excluded = str(exc)  # quarantines even a dead half
            continue
        if excluded is not None or play.kind is PlayKind.NO_PLAY:
            continue
        try:
            fx = apply_play(bases, outs, play, f"bat{i}")
        except IllegalState as exc:
            excluded = str(exc)
            continue
        masks.append(occupancy(bases))
        runs.append(fx.runs_scored)
        bases, outs = fx.new_bases, outs + fx.outs_recorded
        ids = [r for r in (bases.first, bases.second, bases.third) if r]
        assert len(ids) == len(set(ids))  # no runner on two bases
    return masks, runs, outs, excluded


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=12))
def test_replay_invariants(tokens):
    timeline, _ = run_half(tokens)
    assert fold_half(tokens) == (
        [s.bases for s in timeline.snapshots], timeline.runs_on_play,
        timeline.outs_total, timeline.excluded)
    if timeline.excluded is not None:
        return
    assert timeline.outs_total <= 3
    after = timeline.runs_after
    assert all(a >= b for a, b in zip(after, after[1:]))


def test_resolve_step_matches_apply_play():
    """The memo's step equals apply_play with distinct runner ids, for every
    pin-corpus token in all 8 occupancies at 0-2 outs.  A rejected token is
    checked once: its rejection does not depend on the state."""
    checked = 0
    for token in dict.fromkeys(pin_corpus()):
        try:
            play = parse_play_token(token)
        except UnparseableEvent as exc:
            assert resolve_step(token, 0, 0)[0] == str(exc)
            continue
        for mask in range(8):
            bases = BaseState(*(f"r{n}" if mask & bit else None
                                for n, bit in ((1, FIRST), (2, SECOND), (3, THIRD))))
            for outs in range(3):
                step = resolve_step(token, mask, outs)
                if play.kind is PlayKind.NO_PLAY:
                    assert step == (None, True, None, 0, 0, mask)
                    continue
                try:
                    fx = apply_play(bases, outs, play, "bat0")
                except IllegalState as exc:
                    assert step == (None, False, str(exc), 0, 0, mask)
                else:
                    assert step == (None, False, None, fx.outs_recorded,
                                    fx.runs_scored, occupancy(fx.new_bases))
                checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("token, effect", [
    ("S8/G34.1-3(UR);B-1(TH)", "S8.1-3;B-1"),
    ("8/F8XD+/SF.3-H(UR)(NR)(RBI)", "8.3-H"),
    ("S8.1XH(82);B-1(NR)", "S8.1XH(82);B-1"),  # an X advance keeps its groups
    ("FC5.3XH(5-2(E4);B-1(UR)", "FC5.3XH(5-2(E4);B-1"),
    ("S8#/G.1-3(UR)", "S8#/G.1-3(UR)"),  # marks: unchanged
    ("S8/R7(TH/X).1-3(UR)", "S8/R7(TH/X).1-3(UR)"),  # a modifier with groups
    ("CS2(2/4)/G", "CS2(2/4)/G"),  # a slash inside the basic event
    ("S8//G.1-2(UR)", "S8//G.1-2(UR)"),  # an empty modifier
    ("S8.1-2(UR)x", "S8.1-2(UR)x"),  # stray text after the groups
    ("HR", "HR"),
])
def test_effect_text_examples(token, effect):
    assert effect_text(token) == effect


def test_effect_text_matches_parser():
    """A token and its effect text resolve to the same step in all 8
    occupancies at 0-2 outs, or both fail to parse, over the pin corpus and
    a decorated copy of it."""
    corpus = pin_corpus()
    rng = random.Random(13)
    corpus += [decorate(token, rng) for token in corpus]
    rewritten = 0
    for token in dict.fromkeys(corpus):
        effect = effect_text(token)
        if effect == token:
            continue
        rewritten += 1
        if resolve_step(effect, 0, 0)[0] and resolve_step(token, 0, 0)[0]:
            continue  # both rejected: a parse error does not depend on the state
        for mask, outs in itertools.product(range(8), range(3)):
            step, reference = resolve_step(effect, mask, outs), resolve_step(token, mask, outs)
            assert step == reference, (token, effect, mask, outs)
    assert rewritten > 10_000
