"""Play-token grammar: worked examples and totality properties."""

import hashlib
import string
import time

import pytest
from hypothesis import given, strategies as st

from baserisk.playtoken import (
    MAX_TOKEN_LENGTH,
    Advance,
    Base,
    MalformedAdvance,
    ParsedPlay,
    PlayKind,
    UnparseableEvent,
    parse_advances,
    parse_play_token,
)
from conftest import pin_corpus


def test_single_with_modifier_and_advance():
    play = parse_play_token("S8/G.1-3")
    assert play.kind is PlayKind.SINGLE
    assert play.advances == [Advance(Base.FIRST, Base.THIRD)]


def test_double_play_credits():
    play = parse_play_token("64(1)3/GDP")
    assert play.kind is PlayKind.FIELDED_OUT
    assert play.retired == {Base.FIRST, Base.BATTER}
    assert play.moves == {}
    assert play.advances == []


def test_fielders_choice_with_out_at_home():
    play = parse_play_token("FC5.2XH(52)")
    assert play.kind is PlayKind.FIELDERS_CHOICE
    (adv,) = play.advances
    assert adv.frm is Base.SECOND and adv.to is Base.HOME
    assert adv.retired


def test_lineout_double_play_base_refs():
    play = parse_play_token("8(B)84(2)/LDP")
    assert play.retired == {Base.BATTER, Base.SECOND}


def test_force_out_then_error_lets_batter_reach():
    play = parse_play_token("64(1)E3")
    assert play.kind is PlayKind.FIELDED_OUT
    assert play.retired == {Base.FIRST}
    assert play.moves == {Base.BATTER: Base.FIRST}  # no batter putout: the batter reaches


def test_plain_fly_out():
    play = parse_play_token("8/F")
    assert play.kind is PlayKind.FIELDED_OUT
    assert play.retired == {Base.BATTER}
    assert play.moves == {}


def test_strikeout_variants():
    assert parse_play_token("K").kind is PlayKind.STRIKEOUT
    assert parse_play_token("K23") == ParsedPlay(
        PlayKind.STRIKEOUT, retired={Base.BATTER})
    chained = parse_play_token("K+SB2")
    assert chained.kind is PlayKind.STRIKEOUT
    # the chained steal adds its runner's move to the strikeout
    assert chained.moves == {Base.FIRST: Base.SECOND}
    assert chained.retired == {Base.BATTER}


def test_walk_variants():
    assert parse_play_token("W").kind is PlayKind.WALK
    assert parse_play_token("I").kind is PlayKind.INTENTIONAL_WALK
    assert parse_play_token("IW").kind is PlayKind.INTENTIONAL_WALK
    chained = parse_play_token("W+WP.2-3")
    assert chained.kind is PlayKind.WALK
    # a chained wild pitch moves no runner of its own
    assert chained.moves == {Base.BATTER: Base.FIRST}
    assert chained.advances == [Advance(Base.SECOND, Base.THIRD)]


def test_home_run_spellings():
    assert parse_play_token("HR").kind is PlayKind.HOME_RUN
    assert parse_play_token("H").kind is PlayKind.HOME_RUN
    assert parse_play_token("HR8") == ParsedPlay(
        PlayKind.HOME_RUN, {Base.BATTER: Base.HOME})


def test_double_steal():
    play = parse_play_token("SB3;SB2")
    assert play.moves == {Base.SECOND: Base.THIRD, Base.FIRST: Base.SECOND}


def test_caught_stealing_and_error_negation():
    caught = parse_play_token("CS2(24)")
    assert caught.kind is PlayKind.CAUGHT_STEALING
    assert caught.retired == {Base.FIRST}
    assert caught.moves == {}
    # the error wipes out the tag: runner is safe
    safe = parse_play_token("CS2(2E4)")
    assert safe.retired == set()
    assert safe.moves == {Base.FIRST: Base.SECOND}


def test_pickoff_kinds():
    po = parse_play_token("PO1(13)")
    assert po.kind is PlayKind.PICKOFF
    assert po.retired == {Base.FIRST}
    # the error cancels the pickoff and the runner stays put
    assert parse_play_token("PO2(E1)") == ParsedPlay(PlayKind.PICKOFF)
    pocs = parse_play_token("POCS2(1361)")
    assert pocs.kind is PlayKind.PICKOFF_CAUGHT_STEALING
    assert pocs.retired == {Base.FIRST}


def test_reached_on_error():
    play = parse_play_token("E3")
    assert play.kind is PlayKind.REACHED_ON_ERROR
    assert parse_play_token("3E1") == play


def test_assorted_no_batter_events():
    for token, kind in [
        ("NP", PlayKind.NO_PLAY),
        ("WP", PlayKind.WILD_PITCH),
        ("PB", PlayKind.PASSED_BALL),
        ("BK", PlayKind.BALK),
        ("DI", PlayKind.DEFENSIVE_INDIFFERENCE),
        ("OA", PlayKind.OTHER_ADVANCE),
        ("C", PlayKind.CATCHER_INTERFERENCE),
        ("HP", PlayKind.HIT_BY_PITCH),
        ("FLE5", PlayKind.FOUL_ERROR),
        ("DGR", PlayKind.GROUND_RULE_DOUBLE),
    ]:
        assert parse_play_token(token).kind is kind, token


def test_uncertainty_markers_recorded():
    # the marks are accepted and change nothing replay reads
    play = parse_play_token("S8!/G.1-3")
    assert play.kind is PlayKind.SINGLE
    assert play == parse_play_token("S8/G.1-3")
    assert parse_play_token("K#") == parse_play_token("K")


def test_modifier_with_parenthesized_slash():
    # the slash inside (...) must not split the modifier
    play = parse_play_token("S8/G/R7(TH/X)")
    assert play == ParsedPlay(PlayKind.SINGLE, {Base.BATTER: Base.FIRST})


def test_advance_section_examples():
    assert parse_advances("1-3;B-1") == [
        Advance(Base.FIRST, Base.THIRD),
        Advance(Base.BATTER, Base.FIRST),
    ]
    assert parse_advances("2XH(82)") == [Advance(Base.SECOND, Base.HOME, retired=True)]
    assert parse_advances("3-H(UR)") == [Advance(Base.THIRD, Base.HOME)]


def test_advance_error_negation_rules():
    (adv,) = parse_advances("2X3(E5)")
    assert adv == Advance(Base.SECOND, Base.THIRD, retired=False)
    # an error followed by a completed relay: the out stands
    (adv,) = parse_advances("2XH(E5)(82)")
    assert adv.retired


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "XYZ",
        "S8//G",
        "/G",
        "S8/",
        "S8.1-",
        "S8.2-1",         # safe advance cannot go backward
        "S8.1-3;1-2",     # duplicate from-base
        "S8.1-3;;B-1",    # empty advance token
        "S8.(",
        "64(13",          # unbalanced parens
        "K+",
        "E",
        "FC5.2XH(52",
        "play",
    ],
)
def test_rejected_tokens(bad):
    with pytest.raises(UnparseableEvent):
        parse_play_token(bad)


def test_malformed_advance_is_unparseable():
    # callers that only catch UnparseableEvent still see advance errors
    assert issubclass(MalformedAdvance, UnparseableEvent)
    with pytest.raises(MalformedAdvance):
        parse_advances("1-")


# 128 KB tokens, csv's field limit: two shapes on which an unclosed group
# makes a backtracking pattern cost time quadratic in the length, and two
# long chains that it parses in linear time
LONG_TOKENS = {
    "unclosed groups": "6(" * 65_536,
    "unclosed advance notes": "S8.1-2(" + "(" * (131_072 - 7),
    "modifier chain": "S8" + "/G" * 65_535,
    "closed groups": "(E6)" * 32_768,
}


@pytest.mark.parametrize("token", LONG_TOKENS.values(), ids=LONG_TOKENS.keys())
def test_long_token_refused_before_any_pattern(token):
    start = time.perf_counter()
    with pytest.raises(UnparseableEvent, match=f"longer than {MAX_TOKEN_LENGTH} characters$"):
        parse_play_token(token)
    assert time.perf_counter() - start < 2.0


def test_token_bound_is_inclusive():
    """A token of exactly the bound parses; one more character is refused,
    with a message that quotes only the token's start."""
    token = "S8/G" + "/G" * ((MAX_TOKEN_LENGTH - 4) // 2)
    assert len(token) == MAX_TOKEN_LENGTH
    assert parse_play_token(token).kind is PlayKind.SINGLE
    with pytest.raises(UnparseableEvent) as refused:
        parse_play_token(token + "G")
    assert str(refused.value) == (
        f"unparseable event {token[:40] + '...'!r}: longer than {MAX_TOKEN_LENGTH} characters")


@given(st.text(alphabet=string.printable, max_size=40))
def test_parser_total_on_arbitrary_text(text):
    try:
        result = parse_play_token(text)
    except UnparseableEvent:
        return
    assert isinstance(result, ParsedPlay)


@given(
    st.lists(
        st.sampled_from(
            ["B-1", "B-2", "1-2", "1-3", "1XH", "2-3", "2-H", "2X3", "3-H", "3XH(52)"]
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[0],
    )
)
def test_advance_order_preserved(tokens):
    advances = parse_advances(";".join(tokens))
    assert [a.frm for a in advances] == [
        {"B": Base.BATTER, "1": Base.FIRST, "2": Base.SECOND, "3": Base.THIRD}[t[0]]
        for t in tokens
    ]


@given(st.sampled_from(["1-2", "2-3", "3-H"]), st.integers(0, 3))
def test_duplicate_from_base_rejected(token, copies):
    text = ";".join([token] * (copies + 2))
    with pytest.raises(MalformedAdvance):
        parse_advances(text)


# (corpus size, tokens parsed) and SHA-256 over the corpus, one line per
# token: the token, then the parse's repr or the rejection's class and message.
# The digest was recorded before ParsedPlay said what a play does to the
# runners, by rendering each parse of the older parser as its moves, retired
# runners and advances in this repr.
PINNED_PARSE_COUNTS = (28_344, 13_692)
PINNED_PARSE_DIGEST = (
    "ff02c1f9aadf4a7e708295d82dc226c378f1013e387a6df16e569cf396f0a233"
)


def test_parse_results_pinned():
    """Every parse (its repr) and every rejection (class and message) on the
    seeded corpus hashes to the recorded digest; any change in what the
    grammar accepts or builds shows here."""
    digest = hashlib.sha256()
    parsed = 0
    corpus = pin_corpus()
    for token in corpus:
        try:
            line = repr(parse_play_token(token))
            parsed += 1
        except UnparseableEvent as exc:
            line = f"{type(exc).__name__}: {exc}"
        digest.update(f"{token!r}\t{line}\n".encode())
    assert len(corpus) >= 20_000
    assert (len(corpus), parsed) == PINNED_PARSE_COUNTS
    assert digest.hexdigest() == PINNED_PARSE_DIGEST
