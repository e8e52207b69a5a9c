"""Base-running risk thresholds from play-by-play accounts.

Parses Retrosheet-style event files, replays them into per-play base/out
states, tallies how often a run scores from three canonical situations,
and turns those rates into the break-even success probability for sending
a runner.
"""

__version__ = "0.1.0"
