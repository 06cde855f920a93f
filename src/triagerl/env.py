"""The triage MDP: the three-action space and its rewards.

Episodes are at most two steps: the agent may fuzz once, after which
classification is mandatory. A state is the warning's features followed by
a six-slot one-hot of the fuzz outcome (NotRun before fuzzing).
`trainer.run_episodes` plays the episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import IllegalAction
from .fuzz import CRASH_GRADE, FuzzKind
from .warnings import Label, check_fields


class TriageAction(IntEnum):
    # Fixed order; greedy ties resolve to the lowest value.
    CLASSIFY_TP = 0
    CLASSIFY_FP = 1
    FUZZ = 2


ACTION_COUNT = len(TriageAction)


@dataclass
class RewardSpec:
    """Reward constants for triage decisions; see class defaults."""

    correct: float = 15.0
    incorrect: float = -15.0
    fuzz_cost: float = -5.0
    bonus_crash_tp: float = 10.0
    bonus_clean_fp: float = 8.0
    bonus_inconclusive: float = 3.0

    def __post_init__(self):
        check_fields(self, {})


def reward_of(
    action: TriageAction,
    true_label: Label,
    prior_fuzz: FuzzKind,
    spec: RewardSpec | None = None,
) -> float:
    """Reward for one step under the configured constants.

    Fuzzing costs fuzz_cost. Classification pays correct/incorrect; a bonus
    is added only when the classification is correct and consistent with the
    fuzz evidence: crash-grade evidence plus ClassifyTP, a clean run plus
    ClassifyFP, or any correct call after an inconclusive run. Infrastructure
    failures and evidence-inconsistent calls earn no bonus.
    """
    spec = spec or RewardSpec()
    if action is TriageAction.FUZZ:
        if prior_fuzz is not FuzzKind.NOT_RUN:
            raise IllegalAction("fuzz may run at most once per warning")
        return spec.fuzz_cost

    predicted = Label.TRUE_POSITIVE if action is TriageAction.CLASSIFY_TP else Label.FALSE_POSITIVE
    if predicted is not true_label:
        return spec.incorrect
    reward = spec.correct
    if prior_fuzz in CRASH_GRADE and predicted is Label.TRUE_POSITIVE:
        reward += spec.bonus_crash_tp
    elif prior_fuzz is FuzzKind.CLEAN and predicted is Label.FALSE_POSITIVE:
        reward += spec.bonus_clean_fp
    elif prior_fuzz is FuzzKind.INCONCLUSIVE:
        reward += spec.bonus_inconclusive
    return reward
