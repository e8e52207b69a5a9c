"""Exact scoring DP, model validation, and the synthetic generator."""

import hashlib
import random

import numpy as np
import pytest

from baserisk.eventfile import Half
from baserisk.oracle import (
    DEFAULT_ADVANCES,
    HALF_INNING_CAP,
    InvalidModel,
    Outcome,
    OutcomeModel,
    default_model,
    emit_event_file,
    exact_score_probability,
    exact_tsf,
    parse_model_text,
    simulate_half_inning,
    simulate_season,
)

ALL_STATES = [(mask, outs) for outs in range(3) for mask in range(8)]


def two_outcome(q):
    return OutcomeModel(probs={Outcome.OUT: q, Outcome.HOME_RUN: 1 - q})


# --- model validation --------------------------------------------------------


def test_probs_must_sum_to_one():
    with pytest.raises(InvalidModel):
        OutcomeModel(probs={Outcome.OUT: 0.6, Outcome.SINGLE: 0.3})


def test_probs_must_be_probabilities():
    with pytest.raises(InvalidModel):
        OutcomeModel(probs={Outcome.OUT: 1.4, Outcome.SINGLE: -0.4})


def test_unknown_outcome_key_rejected():
    with pytest.raises(InvalidModel):
        OutcomeModel(probs={"out": 1.0})


def test_backward_advance_rejected():
    advances = dict(DEFAULT_ADVANCES)
    advances[(Outcome.SINGLE, 3)] = 2
    with pytest.raises(InvalidModel):
        OutcomeModel(probs={Outcome.SINGLE: 1.0}, advances=advances)


def test_passing_runner_rejected():
    # trailing runner scores from first while the lead runner stops at third
    advances = dict(DEFAULT_ADVANCES)
    advances[(Outcome.DOUBLE, 1)] = 4
    advances[(Outcome.DOUBLE, 2)] = 3
    with pytest.raises(InvalidModel):
        OutcomeModel(probs={Outcome.DOUBLE: 1.0}, advances=advances)


def test_station_to_station_single_allowed():
    advances = dict(DEFAULT_ADVANCES)
    advances[(Outcome.SINGLE, 2)] = 3
    model = OutcomeModel(probs={Outcome.SINGLE: 1.0}, advances=advances)
    assert model.dest(Outcome.SINGLE, 2) == 3


# --- exact DP ----------------------------------------------------------------


@pytest.mark.parametrize("q", [0.5, 2 / 3, 0.9])
def test_two_outcome_closed_form(q):
    model = two_outcome(q)
    for mask, outs in ALL_STATES:
        exact = 1 - q ** (3 - outs)
        assert exact_score_probability(model, mask, outs) == pytest.approx(
            exact, abs=1e-12
        )


def test_certain_and_impossible_scoring():
    always = OutcomeModel(probs={Outcome.HOME_RUN: 1.0})
    never = OutcomeModel(probs={Outcome.OUT: 1.0})
    for mask, outs in ALL_STATES:
        assert exact_score_probability(always, mask, outs) == 1.0
        assert exact_score_probability(never, mask, outs) == 0.0


def test_two_outcome_tsf():
    t, s, f = exact_tsf(two_outcome(2 / 3), 1)
    assert t == pytest.approx(5 / 9, abs=1e-12)
    assert s == pytest.approx(5 / 9, abs=1e-12)
    assert f == pytest.approx(1 / 3, abs=1e-12)


def test_realistic_model_orders_classes():
    t, s, f = exact_tsf(default_model(), 1)
    assert t > s > f > 0


def test_more_outs_never_help():
    model = default_model()
    for mask in range(8):
        probs = [exact_score_probability(model, mask, k) for k in range(3)]
        assert probs[0] > probs[1] > probs[2]


# --- DP vs Monte Carlo -------------------------------------------------------


def state_distribution(model, mask, outs):
    """The outcomes of a plate appearance from (mask, outs) with positive
    probability, in ``Outcome`` order, with a GDP that cannot apply folded
    into OUT.  Each state's ladder is cut exactly so, which keeps the
    sampled paths of the seeds below what they were recorded with."""
    pairs = []
    for outcome in Outcome:
        p = model.prob(outcome)
        if outcome is Outcome.GDP and not model.gdp_applies(mask, outs):
            continue
        if outcome is Outcome.OUT and not model.gdp_applies(mask, outs):
            p += model.prob(Outcome.GDP)
        if p > 0.0:
            pairs.append((outcome, p))
    return pairs


def transition_tables(model):
    """Cumulative outcome ladders and combined-state targets per state.

    Combined state s = mask + 8*outs; 24 = scored (absorbing), 25 = third
    out without a run (absorbing).
    """
    width = max(len(state_distribution(model, m, k)) for m, k in ALL_STATES)
    cum = np.full((24, width), 2.0)
    nxt = np.zeros((24, width), dtype=np.int64)
    for mask, outs in ALL_STATES:
        s = mask + 8 * outs
        acc = 0.0
        pairs = state_distribution(model, mask, outs)
        for i, (outcome, p) in enumerate(pairs):
            new_mask, outs_added, runs = model.apply_outcome(mask, outs, outcome)
            acc += p
            cum[s, i] = acc
            if runs > 0:
                nxt[s, i] = 24
            elif outs + outs_added >= 3:
                nxt[s, i] = 25
            else:
                nxt[s, i] = new_mask + 8 * (outs + outs_added)
        cum[s, len(pairs) - 1] = 1.0  # absorb float slack at the top
        nxt[s, len(pairs):] = nxt[s, len(pairs) - 1]
    return cum, nxt


def mc_score_fraction(cum, nxt, start, n, rng):
    state = np.full(n, start, dtype=np.int64)
    scored = np.zeros(n, dtype=bool)
    live = np.arange(n)
    for _ in range(500):
        if live.size == 0:
            break
        rolls = rng.random(live.size)
        ladders = cum[state[live]]
        outcome_idx = (rolls[:, None] >= ladders).sum(axis=1)
        new_state = nxt[state[live], outcome_idx]
        scored[live[new_state == 24]] = True
        state[live] = new_state
        live = live[new_state < 24]
    assert live.size == 0, "chain failed to absorb"
    return scored.mean()


def random_model(rng):
    weights = [rng.uniform(0.2, 1.0) if o in (Outcome.OUT, Outcome.STRIKEOUT)
               else rng.uniform(0.02, 0.4) for o in Outcome]
    total = sum(weights)
    return OutcomeModel(
        probs={o: w / total for o, w in zip(Outcome, weights)}
    )


def test_dp_matches_monte_carlo():
    """Forward sampling agrees with the recursion, three-sigma binomial."""
    n = 100_000
    seed_rng = random.Random(1213)
    np_rng = np.random.default_rng(913)
    for _ in range(5):
        model = random_model(seed_rng)
        cum, nxt = transition_tables(model)
        for mask, outs in ALL_STATES:
            exact = exact_score_probability(model, mask, outs)
            sampled = mc_score_fraction(cum, nxt, mask + 8 * outs, n, np_rng)
            sigma = (exact * (1 - exact) / n) ** 0.5
            assert abs(sampled - exact) <= 3.0 * sigma + 1e-12, (
                f"state mask={mask} outs={outs}: sampled {sampled:.5f} "
                f"vs exact {exact:.5f} (3 sigma = {3 * sigma:.5f})"
            )


# --- simulation and emission -------------------------------------------------


def test_simulation_deterministic_per_seed():
    model = default_model()
    first = emit_event_file(simulate_season(model, 5, seed=42))
    second = emit_event_file(simulate_season(model, 5, seed=42))
    assert first == second
    other = emit_event_file(simulate_season(model, 5, seed=43))
    assert first != other


def test_half_inning_trace_shape():
    sim = simulate_half_inning(default_model(), random.Random(7))
    assert not sim.capped
    assert sim.plays[0].pre_mask == 0 and sim.plays[0].pre_outs == 0
    outs = {p.pre_outs for p in sim.plays}
    assert outs <= {0, 1, 2}


def test_degenerate_model_hits_cap():
    sim = simulate_half_inning(
        OutcomeModel(probs={Outcome.HOME_RUN: 1.0}), random.Random(1)
    )
    assert sim.capped
    assert len(sim.plays) == HALF_INNING_CAP
    assert sim.runs == HALF_INNING_CAP


def test_sampled_frequencies_follow_model():
    model = two_outcome(0.7)
    rng = random.Random(99)
    homers = 0
    plays = 0
    for _ in range(2000):
        sim = simulate_half_inning(model, rng)
        plays += len(sim.plays)
        homers += sum("HR" in p.token for p in sim.plays)
    assert homers / plays == pytest.approx(0.3, abs=0.02)


def test_model_is_read_only_after_validation():
    model = default_model()
    before = emit_event_file(simulate_season(model, 1, 1))
    with pytest.raises(TypeError):
        model.probs[Outcome.OUT] = 0.0
    with pytest.raises(TypeError):
        model.advances[(Outcome.SINGLE, 1)] = 3
    probs = {Outcome.OUT: 0.5, Outcome.HOME_RUN: 0.5}
    advances = dict(DEFAULT_ADVANCES)
    copied = OutcomeModel(probs, advances)
    probs[Outcome.OUT] = 0.0
    advances[(Outcome.SINGLE, 1)] = 1
    assert copied.prob(Outcome.OUT) == 0.5
    assert copied.dest(Outcome.SINGLE, 1) == 2
    assert emit_event_file(simulate_season(model, 1, 1)) == before


def test_emitted_file_structure():
    games = simulate_season(OutcomeModel(probs={Outcome.HOME_RUN: 1.0}), 1, seed=0)
    text = emit_event_file(games)
    lines = text.splitlines()
    assert lines[0] == "id,HOM200004010"
    assert "info,visteam,VIS" in lines
    first_play = next(line for line in lines if line.startswith("play,"))
    assert first_play.startswith("play,1,0,vbat0001,??,,HR")


def test_emit_empty_season():
    from baserisk.eventfile import tokenize_event_file

    records, diags = tokenize_event_file(emit_event_file([]))
    assert records == [] and diags == []


def test_game_score_property():
    games = simulate_season(default_model(), 3, seed=5)
    for game in games:
        visitor, home = game.score
        assert visitor == sum(h.runs for h in game.halves if h.half is Half.TOP)
        assert home == sum(h.runs for h in game.halves if h.half is Half.BOTTOM)
        assert len(game.halves) == 18


ADVANCES_MODEL_TEXT = """\
out = 0.40
strikeout = 0.15
walk = 0.09
single = 0.2
double = 0.07
triple = 0.02
home_run = 0.03
gdp = 0.04
advance.single.first = 3
advance.single.second = 4
advance.double.first = 4
"""

NO_GDP_MODEL_TEXT = """\
out = 0.46
strikeout = 0.17
walk = 0.085
single = 0.185
double = 0.06
triple = 0.005
home_run = 0.035
gdp = 0
"""


def _record_digest(halves):
    """SHA-256 over every simulated half-inning and plate appearance."""
    digest = hashlib.sha256()
    for sim in halves:
        subs = [(idx, sub.player_id, sub.name, sub.team, sub.batting_order, sub.position)
                for idx, sub in sim.subs]
        digest.update(repr((sim.inning, int(sim.half), sim.runs, sim.capped, subs)).encode())
        for play in sim.plays:
            digest.update(repr((play.batter_id, play.token, play.pre_mask,
                                play.pre_outs, play.pre_runs)).encode())
    return digest.hexdigest()


# (model, seed, season, midgame_subs, games) -> (event file, simulator record)
SIMULATOR_PINS = {
    ("default", 1, 2000, True, 40): (
        "7fc863b7ee2273b2e29b6d3a7742f502be822de1593d9cd64757453530d5d10e",
        "cefd6ba1b3d2f6efd98544a273efe6217478a2270b1068baf9edd13d411d3d66"),
    ("default", 1, 2000, False, 40): (
        "0391aaaee93c5fa33531245dd7f8a9f073c5aa295d0ffe3aa39c523994a84c82",
        "4b9622701aa12a65ca53fb41d20467c5ae64cba29faddbd635007affd8dd410b"),
    ("default", 1601, 1987, True, 40): (
        "c01090956441f106280e1d05c7311b0bb51f874ed21b987fe716a824678719f1",
        "ffd1c9f65fd3675e1699e744a4166006fef5e65422840d6667c506c452a887b3"),
    ("default", 42, 2011, False, 40): (
        "b5882ddbee65e37805b41b34f0c87d4f917d9328fa1f53b613851250608e31cb",
        "fa806980f36f350458bfe21acd3b6101ecd578346df71ddec71060a552bc0c27"),
    ("advances", 7, 1995, True, 40): (
        "f4da1ef1d901da5f9bc5c38064c7e3088617feb7004a036e3e7cbefe395435c9",
        "5fd1547a03ca3c97177af3103ab82490abd52b0629a05188a9875262ec679962"),
    ("no_gdp", 9, 2003, False, 40): (
        "43bf6bc7feccc22b5c0b79e687b0760f2c28d7c03855a0d6e4e4c2e61cd65e0b",
        "12a0970f149bc21d4378e25ae68408c73270eefb22007a5b959a2fe3a6991b35"),
    ("all_hr", 3, 2000, True, 2): (
        "6a0853ea02bcb54048f7eb638dfb9623b1d9372d0154d0c7044cfd1ca1b6dc51",
        "3744f5fee55556ed06900de7bda8fe183a772ac428a359f087d497792b099741"),
}


def test_simulator_output_pinned():
    """Simulated seasons, their event files and bare half-innings are a
    fixed function of model and seed: every draw, token, batter and state."""
    models = {
        "default": default_model(),
        "advances": parse_model_text(ADVANCES_MODEL_TEXT),
        "no_gdp": parse_model_text(NO_GDP_MODEL_TEXT),
        "all_hr": OutcomeModel(probs={Outcome.HOME_RUN: 1.0}),
    }
    for (name, seed, season, subs, n), pins in SIMULATOR_PINS.items():
        games = simulate_season(models[name], n, seed, season=season, midgame_subs=subs)
        emitted = hashlib.sha256(emit_event_file(games).encode("ascii")).hexdigest()
        record = _record_digest([sim for game in games for sim in game.halves])
        assert (emitted, record) == pins, (name, seed, season, subs)
    rng = random.Random(11)
    halves = [simulate_half_inning(models["advances"], rng, inning=1 + n % 9, half=Half(n % 2))
              for n in range(60)]
    assert _record_digest(halves) == (
        "1c41ee531b7409bc7dc86f6c19a0a40b07f29a6526528b43d8ab73abf0e9d087")


STATION_TO_STATION_ADVANCES = {
    # a partial mapping: every other hit keeps its default advances
    (Outcome.SINGLE, 1): 2,
    (Outcome.SINGLE, 2): 3,
    (Outcome.SINGLE, 3): 4,
}


def test_transitions_pinned():
    """Every plate appearance from every live state, as the chain plays it
    (``apply_outcome``) and as the simulator writes it (``_steps``), is a
    fixed function of the model's advances."""
    models = {
        "default": default_model(),
        "advances": parse_model_text(ADVANCES_MODEL_TEXT),
        "no_gdp": parse_model_text(NO_GDP_MODEL_TEXT),
        "all_hr": OutcomeModel(probs={Outcome.HOME_RUN: 1.0}),
        "station": OutcomeModel(probs={Outcome.SINGLE: 1.0},
                                advances=STATION_TO_STATION_ADVANCES),
    }
    digest = hashlib.sha256()
    for name, model in models.items():
        steps = model._steps
        for mask, outs in ALL_STATES:
            for outcome in Outcome:
                digest.update(repr((
                    name, mask, outs, outcome.value,
                    model.apply_outcome(mask, outs, outcome),
                    steps[mask, outs, outcome])).encode())
    assert digest.hexdigest() == (
        "a8d2e2150e4fb38b59e5ca911f9667be93b79d72a6c178d9f639692af471fb12")


# --- model files -------------------------------------------------------------


def test_default_model_text_round_trip():
    model = default_model()
    assert sum(model.probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert model.dest(Outcome.SINGLE, 2) == 3


def test_model_text_overrides_and_comments():
    model = parse_model_text(
        "# aggressive singles\n"
        "out = 0.5\nsingle = 0.5\n"
        "advance.single.second = 4\n"
    )
    assert model.prob(Outcome.SINGLE) == 0.5
    assert model.dest(Outcome.SINGLE, 2) == 4


@pytest.mark.parametrize(
    "text",
    [
        "out 0.5",                 # no equals sign
        "frobs = 0.5",             # unknown key
        "out = half",              # not a number
        "advance.out.first = 2",   # advances only apply to hits
        "out = 0.5\nsingle = 0.6",  # does not sum to 1
    ],
)
def test_bad_model_text_rejected(text):
    with pytest.raises(InvalidModel):
        parse_model_text(text)
