"""Single-bit fault injection (validation of the ACE-analysis AVFs).

The paper computes AVFs analytically (ACE analysis over a performance
model); related work (Kim & Somani, Wang et al.) estimates them by
statistical fault injection. This package provides the injection side for
our substrate: strikes are sampled uniformly over the instruction queue's
(entry x cycle x bit) space, the struck in-flight instruction is corrupted
by flipping one encoding bit, and the program is functionally re-executed
to observe the architectural outcome — silent corruption, trap, hang, or
nothing. With parity enabled, the π-bit engine decides whether the
detected error is signalled (true/false DUE) under a tracking level.
"""

from repro.faults.batch import StrikeClassifier
from repro.faults.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.faults.oracle import EffectOracle

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "EffectOracle",
    "StrikeClassifier",
]
