"""Replay correctness: hand-worked plays, conservation, quarantine."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from baserisk.eventfile import SubLine, assemble_games, iter_games
from baserisk.oracle import default_model, emit_event_file, simulate_season
from baserisk.playtoken import (
    Base,
    PlayKind,
    UnparseableEvent,
    parse_play_token,
)
from baserisk.state import (
    _PLAIN_EVENT_RE,
    FIRST,
    SECOND,
    THIRD,
    ClassKind,
    IllegalState,
    SituationClass,
    apply_play,
    classify_state,
    effect_text,
    replay_game,
    resolve_step,
)
from conftest import (
    PIN_ALPHABET,
    PIN_SEEDS,
    damaged_texts,
    decorate,
    decorated_texts,
    final_score,
    game_account,
    make_game_text,
    mutate,
    pin_corpus,
    replay_events,
    run_half,
    walk_game,
)

LOADED = FIRST | SECOND | THIRD


def effects(token, bases=0, outs=0):
    """(outs recorded, runs scored, new occupancy) of one play."""
    return apply_play(bases, outs, parse_play_token(token))


def test_home_run_clears_bases():
    assert effects("HR.1-H", FIRST, outs=1) == (0, 2, 0)


def test_home_run_implied_scoring():
    # no advance section at all: runners still come around
    assert effects("HR", FIRST | THIRD) == (0, 3, 0)


def test_ground_double_play():
    assert effects("64(1)3/GDP", FIRST, outs=1) == (2, 0, 0)


def test_strikeout_leaves_runners():
    assert effects("K", FIRST | SECOND) == (1, 0, FIRST | SECOND)


def test_dropped_third_strike():
    assert effects("K.B-1") == (0, 0, FIRST)


def test_walk_pushes_only_forced_runners():
    assert effects("W", FIRST | THIRD) == (0, 0, LOADED)
    assert effects("W", SECOND | THIRD) == (0, 0, LOADED)
    assert effects("W", THIRD) == (0, 0, FIRST | THIRD)


def test_bases_loaded_walk_scores_without_explicit_advances():
    assert effects("W", LOADED) == (0, 1, LOADED)


def test_force_out_batter_reaches_first():
    assert effects("64(1)", FIRST) == (1, 0, FIRST)


def test_single_pushes_held_runner():
    # no advance recorded for the runner on first: the batter forces them up
    assert effects("S8", FIRST) == (0, 0, FIRST | SECOND)


def test_explicit_advance_overrides_push():
    assert effects("S8.1-3", FIRST) == (0, 0, FIRST | THIRD)


def test_out_on_advance_counts():
    assert effects("S8.1XH(82)", FIRST) == (1, 0, FIRST)


def test_error_negated_advance_out_is_safe():
    # the strikeout stands, the tag does not
    assert effects("K.2X3(E5)", SECOND) == (1, 0, THIRD)


def test_caught_stealing_removes_runner():
    assert effects("CS2(26)", FIRST) == (1, 0, 0)


def test_strikeout_plus_steal():
    assert effects("K+SB2", FIRST) == (1, 0, SECOND)


def test_pickoff():
    assert effects("PO1(13)", FIRST) == (1, 0, 0)
    assert effects("PO1(E3)", FIRST) == (0, 0, FIRST)


def test_batter_out_on_advance_to_home():
    assert effects("T9.BXH(82)") == (1, 0, 0)


@pytest.mark.parametrize(
    "token,bases,expected",
    [
        # a chained fielded out retires no one: the strikeout is the out
        ("K+64(1)3", FIRST, (1, 0, FIRST)),
        # a nested chain still moves the stealer
        ("K+K+SB3", SECOND, (1, 0, THIRD)),
        # an error cancels the chained tag, so the stealer is safe
        ("K+CS2(2E4)", FIRST, (1, 0, SECOND)),
        ("K+CS2(24)", FIRST, (2, 0, 0)),
        # a cancelled pickoff leaves the runner for the walk to push
        ("W+PO1(E1)", FIRST, (0, 0, FIRST | SECOND)),
        ("PO2(E1)", SECOND, (0, 0, SECOND)),
    ],
)
def test_chained_and_tag_plays(token, bases, expected):
    assert effects(token, bases) == expected


@pytest.mark.parametrize(
    "token,bases,outs,message",
    [
        pytest.param("S8.2-H", 0, 0, "advance from empty base SECOND",
                     id="S8.2-H-bases0-0"),
        pytest.param("64(1)3/GDP", FIRST, 2, "2 outs before play, 2 more recorded",
                     id="64(1)3/GDP-bases1-2"),  # fourth out
        pytest.param("CS2(26)", 0, 0, "out recorded on empty base FIRST",
                     id="CS2(26)-bases2-0"),
        pytest.param("S8.3-H;2-H;1-3;B-3", LOADED, 0, "two runners headed to THIRD",
                     id="S8.3-H;2-H;1-3;B-3-bases3-0"),
    ],
)
def test_illegal_states(token, bases, outs, message):
    with pytest.raises(IllegalState) as raised:
        effects(token, bases, outs)
    assert str(raised.value) == message


def test_collision_without_force_is_illegal():
    # runner from first to second while the runner on second holds: the
    # held runner is pushable, so this cascades legally
    assert effects("S8.1-2", FIRST | SECOND) == (0, 0, LOADED)
    # but two explicit advances to the same base cannot both stand
    with pytest.raises(IllegalState, match="two runners headed to THIRD"):
        effects("S8.1-3;2-3", FIRST | SECOND)


# --- half-inning replay ------------------------------------------------------


def codes(*states):
    """The base-out codes of (bases, outs) states, as replay records them."""
    return [bases << 2 | outs for bases, outs in states]


def test_worked_half_inning_walkthrough():
    timeline, diags = run_half(["W", "S8/G.1-3", "K", "K", "3/G"])
    assert diags == []
    assert timeline.snapshots == codes(
        (0, 0), (FIRST, 0), (FIRST | THIRD, 0), (FIRST | THIRD, 1), (FIRST | THIRD, 2))
    assert timeline.runs == 0
    assert timeline.complete


def test_runs_on_play_counts_each_play():
    tokens = ["D7", "S8.2-H", "HR.1-H", "K", "K", "K"]
    (walked,) = walk_game(game_account([(1, 0, token) for token in tokens]))
    assert [play.runs for play in walked.plays] == [0, 1, 2, 0, 0, 0]
    timeline, _ = run_half(tokens)
    assert timeline.runs == 3
    # the double's runner scored on the next play
    assert timeline.firsts == {
        SituationClass(ClassKind.SECOND_NO_THIRD, 0): ("hpit1", 0, 1, False)}


def test_walk_off_half_is_complete():
    """The account ends short of three outs: a bottom of the 9th in which
    the home side goes ahead with one out ends the game, complete; a top of
    the 1st cut at one out is incomplete, and so is a bottom of the 9th in
    which the home side only ties."""
    top = [(9, 0, "K"), (9, 0, "HR"), (9, 0, "K"), (9, 0, "K")]
    walk_off = replay_events(top + [(9, 1, "K"), (9, 1, "HR"), (9, 1, "HR")])
    assert walk_off.timelines[-1].complete and walk_off.diagnostics == []
    for events in ([(1, 0, "K")], top + [(9, 1, "K"), (9, 1, "HR")]):
        replay = replay_events(events)
        assert not replay.timelines[-1].complete
        assert [(d.code, d.detail) for d in replay.diagnostics] == [
            ("incomplete_half_inning", f"inning {events[-1][0]} ended after 1 outs")]


def test_truncated_half_is_incomplete():
    timeline, _ = run_half(["K"])
    assert not timeline.complete


def test_unparseable_token_quarantines():
    timeline, diags = run_half(["W", "GLORP", "K"])
    assert timeline.excluded is not None
    assert any(d.code == "quarantined_half_inning" for d in diags)


def test_quarantine_names_its_own_token():
    # both share one memo key, yet each reason quotes the token as written
    assert effect_text("ZZ/G", {}) == effect_text("ZZ/F", {}) == "ZZ"
    _, diags = run_half(["ZZ/G", "ZZ/F"])
    assert [d.detail for d in diags if d.code == "quarantined_half_inning"] == [
        "unparseable event 'ZZ/G': unrecognized basic event 'ZZ'",
        "unparseable event 'ZZ/F': unrecognized basic event 'ZZ'",
    ]


def test_illegal_state_quarantines():
    timeline, diags = run_half(["S8.3-H"])
    assert timeline.excluded is not None
    assert timeline.snapshots == []  # nothing usable was recorded


def test_snapshots_never_show_three_outs():
    timeline, _ = run_half(["K", "K", "W", "S8.1-3", "K"])
    assert all(code & 3 <= 2 for code in timeline.snapshots)


@pytest.mark.parametrize("tokens", [["K", "K", "K", "HR"], ["K", "K", "K", "S8", "S8"]])
def test_play_after_the_third_out_quarantines(tokens):
    """A play after the third out scores no run and puts no runner on: the
    half is quarantined and the game's later margins are not trusted.  A
    no-play there is still nothing."""
    events = [(8, 0, token) for token in tokens] + [(8, 1, "K")] * 3
    replay = replay_events(events)
    top, bottom = replay.timelines
    assert top.excluded == "play after the third out"
    assert (top.runs, top.snapshots) == (0, codes((0, 0), (0, 1), (0, 2)))
    assert not top.firsts
    assert final_score(replay) == (0, 0)
    # tied in the 8th, yet not high leverage: the score is no longer trusted
    assert bottom.faced == {"vpit1": False}
    assert [(d.code, d.detail, d.line_no) for d in replay.diagnostics] == [
        ("quarantined_half_inning", "play after the third out", 4)]
    assert resolve_step("HR", 0, 3) == (None, False, "play after the third out", 0, 0, 0)
    assert resolve_step("NP", 0, 3) == (None, True, None, 0, 0, 0)


# --- whole-game replay -------------------------------------------------------


def account_of(text):
    games, diags = assemble_games(text)
    assert diags == []
    return games[0]


def replay_text(text):
    return replay_game(account_of(text), {}, {})


def test_scores_accumulate_across_halves():
    text = make_game_text([
        (1, 0, "vbat1", "HR"),
        (1, 0, "vbat2", "K"), (1, 0, "vbat3", "K"), (1, 0, "vbat4", "K"),
        (1, 1, "hbat1", "K"), (1, 1, "hbat2", "K"), (1, 1, "hbat3", "K"),
        (2, 0, "vbat5", "K"), (2, 0, "vbat6", "K"), (2, 0, "vbat7", "K"),
        (2, 1, "hbat4", "HR"), (2, 1, "hbat5", "HR"), (2, 1, "hbat6", "K"),
    ])
    replay = replay_text(text)
    assert final_score(replay) == (1, 2)
    assert replay.timelines[-1].runs == 2
    bottom2 = walk_game(account_of(text))[-1].plays
    assert (bottom2[0].batting, bottom2[0].fielding) == (0, 1)
    assert (bottom2[2].batting, bottom2[2].fielding) == (2, 1)


def token_damaged_text() -> str:
    """A relief-pitcher season with about one play token in ten replaced
    by a decorated 0-3 edit mutation of a pin seed."""
    rng = random.Random(10)
    lines = emit_event_file(simulate_season(
        default_model(), 30, seed=1000, season=1999, midgame_subs=True)).splitlines()
    for i, line in enumerate(lines):
        if line.startswith("play,") and rng.random() < 0.1:
            head = line.rpartition(",")[0]
            lines[i] = f"{head},{decorate(mutate(rng, PIN_SEEDS, PIN_ALPHABET), rng)}"
    return "\n".join(lines) + "\n"


def test_replay_matches_a_plain_walk_of_the_corpora():
    """Through one play memo per file, as an ingest task shares it, replay
    records the codes, runs, quarantine reason, completeness and pitchers
    of a walk that resolves every play afresh, over the decorated, damaged
    and token-damaged corpora.  Games that replay drops are left out."""
    halves = quarantined = 0
    for text in decorated_texts() + damaged_texts() + [token_damaged_text()]:
        steps = {}
        for account in iter_games(text, [], None, {}):
            if account is None:
                continue
            timelines = replay_game(account, steps, {}).timelines
            if not timelines:
                continue
            walked = walk_game(account)
            for timeline, h in zip(timelines, walked, strict=True):
                assert timeline.half_inning_key == (account.game_id, h.inning, h.half)
                assert timeline.snapshots == [play.code for play in h.plays]
                assert timeline.runs == sum(play.runs for play in h.plays)
                assert timeline.excluded == h.excluded
                assert timeline.complete == h.complete
                assert list(timeline.faced) == list(dict.fromkeys(p.pitcher for p in h.plays))
                halves += 1
                quarantined += h.excluded is not None
    assert halves > 1_000 and quarantined > 10


def test_half_that_goes_back_drops_the_game():
    """A half before the open one is another game's, whose id and start
    records are lost, so replay drops the game."""
    replay = replay_events([(2, 0, "K"), (2, 0, "K"), (2, 0, "K"), (1, 1, "K")])
    assert replay.timelines == []
    assert [(d.code, d.detail) for d in replay.diagnostics] == [
        ("halves_out_of_order", "inning 1 bottom after inning 2 top")]


def test_replay_records_what_the_tallies_read():
    """Beside each play's base-out code, a half records its runs, the first
    play of each class and whether each pitcher faced a late and close one."""
    relief = [SubLine(f"vpit{n}", "Relief", 0, 0, 1) for n in (2, 3)]
    replay = replay_events(
        [(8, 0, t) for t in ["HR", "K", "K", "K"]]
        + [(8, 1, t) if isinstance(t, str) else t
           for t in ["D7", "K", relief[0], "D7", "HR", relief[1], "S8", "K", "K"]])
    bottom = replay.timelines[-1]
    assert bottom.snapshots == codes(
        (0, 0), (SECOND, 0), (SECOND, 1), (SECOND | THIRD, 1), (0, 1), (FIRST, 1), (FIRST, 2))
    assert bottom.runs == 3
    # within a run until the home run, which put the home side two ahead
    assert list(bottom.firsts.items()) == [
        (SituationClass(ClassKind.SECOND_NO_THIRD, 0), ("vpit1", 0, 0, True)),
        (SituationClass(ClassKind.SECOND_NO_THIRD, 1), ("vpit2", 0, 0, True)),
        (SituationClass(ClassKind.THIRD_OCCUPIED, 1), ("vpit2", 0, 3, True)),
        (SituationClass(ClassKind.FIRST_ONLY, 1), ("vpit3", 3, 0, False)),
        (SituationClass(ClassKind.FIRST_ONLY, 2), ("vpit3", 3, 0, False)),
    ]
    assert bottom.faced == {"vpit1": True, "vpit2": True, "vpit3": False}


def test_snapshot_pitcher_is_fielding_side():
    text = make_game_text([(1, 0, "vbat1", "K")])
    replay = replay_text(text)
    assert replay.timelines[0].faced == {"hpit1": False}


def test_mid_inning_pitcher_change_shifts_credit():
    text = make_game_text([
        (1, 0, "vbat1", "K"),
        'sub,hpit2,"Relief",1,0,1',
        (1, 0, "vbat2", "K"),
        (1, 0, "vbat3", "K"),
    ])
    replay = replay_text(text)
    assert list(replay.timelines[0].faced) == ["hpit1", "hpit2"]
    (walked,) = walk_game(account_of(text))
    assert [play.pitcher for play in walked.plays] == ["hpit1", "hpit2", "hpit2"]


def test_pinch_runner_swaps_in_place():
    # the runner's identity is not state: a pinch runner changes nothing
    plays = [(1, 0, "vbat1", "W"), (1, 0, "vbat2", "S8"), (1, 0, "vbat3", "D7.2-H;1-3")]
    with_sub = plays[:1] + ['sub,vbat9,"Runner",0,1,12'] + plays[1:]
    replays = [replay_text(make_game_text(lines)) for lines in (plays, with_sub)]
    for timeline in (r.timelines[0] for r in replays):
        assert timeline.snapshots == codes((0, 0), (FIRST, 0), (FIRST | SECOND, 0))
        # the third play, from second and first with none out, scored one
        assert timeline.firsts == {
            SituationClass(ClassKind.SECOND_NO_THIRD, 0): ("hpit1", 0, 1, False)}


def test_no_play_emits_no_snapshot():
    timeline, _ = run_half(["NP", "K", "K", "K"])
    assert timeline.snapshots == codes((0, 0), (0, 1), (0, 2))


def test_quarantine_marks_rest_of_game_unreliable():
    """A tied 8th is late and close, unless an earlier half was quarantined:
    its runs are unknown, so no later play is high leverage."""
    for top, trusted in ((["K", "K", "K"], True), (["GLORP"], False)):
        text = make_game_text(
            [(8, 0, f"vbat{n}", token) for n, token in enumerate(top)]
            + [(8, 1, "hbat1", "T9"), (8, 1, "hbat2", "K"), (8, 1, "hbat3", "K"),
               (8, 1, "hbat4", "K")])
        top8, bottom8 = replay_text(text).timelines
        assert (top8.excluded is None) == trusted
        assert bottom8.excluded is None  # still usable for all-innings stats
        assert [high for *_, high in bottom8.firsts.values()] == [trusted, trusted]
        assert bottom8.faced == {"vpit1": trusted}


def test_incomplete_half_flagged():
    text = make_game_text([
        (1, 0, "vbat1", "K"),
        (1, 1, "hbat1", "K"), (1, 1, "hbat2", "K"), (1, 1, "hbat3", "K"),
    ])
    games, _ = assemble_games(text)
    replay = replay_game(games[0], {}, {})
    assert not replay.timelines[0].complete
    assert any(d.code == "incomplete_half_inning" for d in replay.diagnostics)


def test_missing_starting_pitcher_is_reported():
    text = make_game_text([(1, 0, "vbat1", "K")]).replace(
        'start,hpit1,"H Pitcher",1,0,1\n', ""
    )
    games, _ = assemble_games(text)
    replay = replay_game(games[0], {}, {})
    assert replay.timelines == []
    assert any(d.code == "missing_info" for d in replay.diagnostics)


# --- invariants over generated sequences -------------------------------------

TOKEN_POOL = [
    "K", "W", "S8", "S8.1-3", "D7", "D7.1-H", "T9", "HR", "8/F", "43/G",
    "64(1)3/GDP", "K+SB2", "CS2(26)", "E3", "FC5", "W.1-2", "S8.1XH(82)",
    "31/G", "SB2", "WP.1-2", "NP", "S8.3-H", "GLORP",
]


def conserves_runners(play, bases, outs_recorded, runs, new_bases):
    """Whether the runners on base, and the batter when the play puts them
    in the count, all end up on base, across the plate or retired."""
    batter_entered = (
        Base.BATTER in play.moves
        or Base.BATTER in play.retired
        or any(adv.frm is Base.BATTER for adv in play.advances)
    )
    return bin(bases).count("1") + batter_entered == (
        bin(new_bases).count("1") + runs + outs_recorded)


def fold_half(tokens):
    """The half-inning as apply_play sees it: ((bases, outs) before each
    play, runs per play, quarantine reason).  Every legal step conserves
    runners."""
    bases, outs, states, runs, excluded = 0, 0, [], [], None
    for token in tokens:
        try:
            play = parse_play_token(token)
        except UnparseableEvent as exc:
            excluded = str(exc)  # quarantines even a dead half
            continue
        if excluded is not None or play.kind is PlayKind.NO_PLAY:
            continue
        try:
            outs_recorded, scored, new_bases = apply_play(bases, outs, play)
        except IllegalState as exc:
            excluded = str(exc)
            continue
        assert conserves_runners(play, bases, outs_recorded, scored, new_bases)
        states.append((bases, outs))
        runs.append(scored)
        bases, outs = new_bases, outs + outs_recorded
    return states, runs, excluded


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=12))
def test_replay_invariants(tokens):
    timeline, _ = run_half(tokens)
    states, runs, excluded = fold_half(tokens)
    assert (timeline.snapshots, timeline.runs, timeline.excluded) == (
        codes(*states), sum(runs), excluded)
    assert all(scored >= 0 for scored in runs)
    firsts = {}
    for idx, (bases, outs) in enumerate(states):
        situation = classify_state(bases, outs)
        if situation is not None and situation not in firsts:
            firsts[situation] = ("hpit1", sum(runs[:idx]), runs[idx], False)
    assert timeline.firsts == firsts


def test_resolve_step_matches_apply_play():
    """The memo's step equals apply_play, and every legal step conserves
    runners, for every pin-corpus token in all 8 occupancies at 0-2 outs.  A
    rejected token is checked once: its rejection does not depend on the
    state."""
    checked = 0
    for token in dict.fromkeys(pin_corpus()):
        try:
            play = parse_play_token(token)
        except UnparseableEvent as exc:
            assert resolve_step(token, 0, 0)[0] == str(exc)
            continue
        for mask in range(8):
            for outs in range(3):
                step = resolve_step(token, mask, outs)
                if play.kind is PlayKind.NO_PLAY:
                    assert step == (None, True, None, 0, 0, mask)
                    continue
                try:
                    effect = apply_play(mask, outs, play)
                except IllegalState as exc:
                    assert step == (None, False, str(exc), 0, 0, mask)
                else:
                    assert step == (None, False, None, *effect)
                    assert conserves_runners(play, mask, *effect), (token, mask, outs)
                checked += 1
    assert checked > 10_000


# SHA-256 over resolve_step, one line per (token, occupancy, outs): the
# token, the state, then the step's repr.  Recorded while the resolver still
# ran apply_play on placeholder runner ids.
PINNED_STEPS = (228_256, "1714bb20b22e09c3fd2fac25b7695b8877c0b6cd13fa4e77328c8d4c6f381e5f")


def test_steps_pinned():
    """Every step of every distinct pin-corpus token and of its decorated
    copy, in all 8 occupancies at 0-2 outs, hashes to the recorded digest.
    A rejected token is hashed once: its rejection does not depend on the
    state."""
    corpus = pin_corpus()
    rng = random.Random(13)
    corpus += [decorate(token, rng) for token in corpus]
    digest = hashlib.sha256()
    lines = 0
    for token in dict.fromkeys(corpus):
        states = itertools.product(range(8), range(3))
        if resolve_step(token, 0, 0)[0] is not None:
            states = [(0, 0)]
        for mask, outs in states:
            step = resolve_step(token, mask, outs)
            digest.update(f"{token!r}\t{mask}\t{outs}\t{step!r}\n".encode())
            lines += 1
    assert (lines, digest.hexdigest()) == PINNED_STEPS


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
    assert effect_text(token, {}) == effect


def test_effect_text_matches_parser():
    """A token and its effect text resolve to the same step in all 8
    occupancies at 0-2 outs, or both fail to parse, over the pin corpus and
    a decorated copy of it."""
    corpus = pin_corpus()
    rng = random.Random(13)
    corpus += [decorate(token, rng) for token in corpus]
    rewritten = 0
    for token in dict.fromkeys(corpus):
        effect = effect_text(token, {})
        if effect == token:
            continue
        rewritten += 1
        if resolve_step(effect, 0, 0)[0] and resolve_step(token, 0, 0)[0]:
            continue  # both rejected: a parse error does not depend on the state
        for mask, outs in itertools.product(range(8), range(3)):
            step, reference = resolve_step(effect, mask, outs), resolve_step(token, mask, outs)
            assert step == reference, (token, effect, mask, outs)
    assert rewritten > 10_000


def _token_stream() -> list[str]:
    """The pin corpus, a decorated copy of it, and 20,000 mutations of the
    pin seeds as criterion 8 makes them, half of them decorated."""
    corpus = pin_corpus()
    rng = random.Random(13)
    corpus += [decorate(token, rng) for token in corpus]
    rng = random.Random(17)
    mutated = [mutate(rng, PIN_SEEDS, PIN_ALPHABET, 1) for _ in range(20_000)]
    return corpus + mutated[::2] + [decorate(token, rng) for token in mutated[1::2]]


def test_event_without_a_group_matches_the_pattern():
    """For an event part with no "(" and no mark, the string tests accept
    exactly what the pattern accepts: the effect text of a part the
    pattern accepts is its basic event, and any other part is its own."""
    events = {token.partition(".")[0] for token in _token_stream()}
    events |= {"", "/", "S8/", "/G", "S8//G", "S8/G/", "S8/G)", "S8)/G", ")", "S8/G/L7"}
    accepted = refused = 0
    for event in events:
        if "(" in event or "#" in event or "?" in event or "!" in event:
            continue
        plain = _PLAIN_EVENT_RE.fullmatch(event)
        assert effect_text(event, {}) == (event if plain is None else plain.group(1)), event
        if "/" in event:  # else the part is its own effect text either way
            accepted += plain is not None
            refused += plain is None
    assert accepted > 5_000 and refused > 500


def test_effect_text_with_a_shared_section_memo():
    """One section memo shared by a whole stream of tokens changes no
    effect text, and it holds fewer sections than there are noted tokens."""
    sections = {}
    noted = set()
    for token in _token_stream():
        assert effect_text(token, sections) == effect_text(token, {}), token
        if effect_text(token, {}) != token and "(" in token.partition(".")[2]:
            noted.add(token)
    assert 0 < len(sections) < len(noted)
