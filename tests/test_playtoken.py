"""Play-token grammar: worked examples and totality properties."""

import hashlib
import string

import pytest
from hypothesis import given, strategies as st

from baserisk.playtoken import (
    Advance,
    Base,
    MalformedAdvance,
    ParsedPlay,
    PlayKind,
    Putout,
    UnparseableEvent,
    parse_advances,
    parse_play_token,
)
from conftest import pin_corpus


def test_single_with_modifier_and_advance():
    play = parse_play_token("S8/G.1-3")
    assert play.kind is PlayKind.SINGLE
    assert play.fielders == [8]
    assert play.modifiers == ["G"]
    assert play.advances == [Advance(Base.FIRST, Base.THIRD)]


def test_double_play_credits():
    play = parse_play_token("64(1)3/GDP")
    assert play.kind is PlayKind.FIELDED_OUT
    assert [(p.runner, p.credits) for p in play.putouts] == [
        (Base.FIRST, [6, 4]),
        (Base.BATTER, [3]),
    ]
    assert play.modifiers == ["GDP"]
    assert play.advances == []


def test_fielders_choice_with_out_at_home():
    play = parse_play_token("FC5.2XH(52)")
    assert play.kind is PlayKind.FIELDERS_CHOICE
    assert play.position == 5
    (adv,) = play.advances
    assert adv.frm is Base.SECOND and adv.to is Base.HOME
    assert adv.is_out and not adv.negated_by_error
    assert adv.annotations == ["52"]


def test_lineout_double_play_base_refs():
    play = parse_play_token("8(B)84(2)/LDP")
    assert [(p.runner, p.credits) for p in play.putouts] == [
        (Base.BATTER, [8]),
        (Base.SECOND, [8, 4]),
    ]


def test_force_out_then_error_lets_batter_reach():
    play = parse_play_token("64(1)E3")
    assert play.kind is PlayKind.FIELDED_OUT
    assert [p.runner for p in play.putouts] == [Base.FIRST]
    assert play.batter_safe_on_error


def test_plain_fly_out():
    play = parse_play_token("8/F")
    assert play.kind is PlayKind.FIELDED_OUT
    assert play.putouts == [Putout(Base.BATTER, [8])]


def test_strikeout_variants():
    assert parse_play_token("K").kind is PlayKind.STRIKEOUT
    assert parse_play_token("K23").fielders == [2, 3]
    chained = parse_play_token("K+SB2")
    assert chained.kind is PlayKind.STRIKEOUT
    assert chained.chained.kind is PlayKind.STOLEN_BASE
    assert chained.chained.bases_stolen == [Base.SECOND]


def test_walk_variants():
    assert parse_play_token("W").kind is PlayKind.WALK
    assert parse_play_token("I").kind is PlayKind.INTENTIONAL_WALK
    assert parse_play_token("IW").kind is PlayKind.INTENTIONAL_WALK
    chained = parse_play_token("W+WP.2-3")
    assert chained.kind is PlayKind.WALK
    assert chained.chained.kind is PlayKind.WILD_PITCH
    assert chained.advances == [Advance(Base.SECOND, Base.THIRD)]


def test_home_run_spellings():
    assert parse_play_token("HR").kind is PlayKind.HOME_RUN
    assert parse_play_token("H").kind is PlayKind.HOME_RUN
    assert parse_play_token("HR8").fielders == [8]


def test_double_steal():
    play = parse_play_token("SB3;SB2")
    assert play.bases_stolen == [Base.THIRD, Base.SECOND]


def test_caught_stealing_and_error_negation():
    caught = parse_play_token("CS2(24)")
    assert caught.kind is PlayKind.CAUGHT_STEALING
    assert caught.target_base is Base.SECOND
    assert caught.fielders == [2, 4]
    assert not caught.negated_by_error
    # the error wipes out the tag: runner is safe
    safe = parse_play_token("CS2(2E4)")
    assert safe.negated_by_error


def test_pickoff_kinds():
    po = parse_play_token("PO1(13)")
    assert po.kind is PlayKind.PICKOFF
    assert po.target_base is Base.FIRST
    assert parse_play_token("PO2(E1)").negated_by_error
    pocs = parse_play_token("POCS2(1361)")
    assert pocs.kind is PlayKind.PICKOFF_CAUGHT_STEALING
    assert pocs.target_base is Base.SECOND


def test_reached_on_error():
    play = parse_play_token("E3")
    assert play.kind is PlayKind.REACHED_ON_ERROR
    assert play.position == 3
    deflected = parse_play_token("3E1")
    assert deflected.fielders == [3]
    assert deflected.position == 1


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
    play = parse_play_token("S8!/G.1-3")
    assert play.annotations == ["!"]
    assert play.kind is PlayKind.SINGLE
    assert parse_play_token("K#").annotations == ["#"]


def test_modifier_with_parenthesized_slash():
    # the slash inside (...) must not split the modifier
    play = parse_play_token("S8/G/R7(TH/X)")
    assert play.modifiers == ["G", "R7(TH/X)"]


def test_advance_section_examples():
    assert parse_advances("1-3;B-1") == [
        Advance(Base.FIRST, Base.THIRD),
        Advance(Base.BATTER, Base.FIRST),
    ]
    (out,) = parse_advances("2XH(82)")
    assert out.is_out and out.annotations == ["82"]
    (unearned,) = parse_advances("3-H(UR)")
    assert not unearned.is_out and unearned.annotations == ["UR"]


def test_advance_error_negation_rules():
    (adv,) = parse_advances("2X3(E5)")
    assert adv.is_out and adv.negated_by_error
    # an error followed by a completed relay: the out stands
    (adv,) = parse_advances("2XH(E5)(82)")
    assert adv.is_out and not adv.negated_by_error


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
PINNED_PARSE_COUNTS = (28_344, 13_692)
PINNED_PARSE_DIGEST = (
    "68a13daf4243ea7e6cde4672d6b31daf45942c4c7d693fa34b0044ed44b59863"
)


def test_parse_results_pinned():
    """Every parse (its repr) and every rejection (class and message) on the
    seeded corpus hashes to the digest recorded before the parser's branches
    were folded; any change in what the grammar accepts or builds shows here."""
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
