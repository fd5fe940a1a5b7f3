"""Preservation-grade integrity: scrubbing, anti-entropy, aging (§4.7).

The pieces a 50-year archive needs beyond writing bytes once:

* :class:`~repro.preserve.aging.AgingClock` — accelerated media aging
  on the simulation clock (decades per run);
* :class:`~repro.preserve.scrubber.BackgroundScrubber` — budgeted,
  checksum-verifying patrol scrubs under live traffic;
* :class:`~repro.preserve.audit.AntiEntropyAuditor` — LOCKSS-style
  replica comparison, voting and minority repair across racks;
* :func:`~repro.preserve.campaign.run_preserve` — the campaign harness
  reducing a seeded decades-scale run to the headline metric,
  bytes lost per exabyte-decade.
"""

from repro.preserve.aging import AgingClock
from repro.preserve.audit import AntiEntropyAuditor
from repro.preserve.campaign import run_preserve
from repro.preserve.scrubber import BackgroundScrubber

__all__ = [
    "AgingClock",
    "AntiEntropyAuditor",
    "BackgroundScrubber",
    "run_preserve",
]
