"""Attack patterns and security-analysis models.

- :mod:`repro.attacks.analytical` — the Juggernaut analytical model
  (Equations 1-10 of Section III-B) and its SRS variant (Equations 11-12).
- :mod:`repro.attacks.juggernaut` — the attack-pattern driver that runs
  Juggernaut against a live mitigation engine, plus the multi-bank and
  open-page analyses.
- :mod:`repro.attacks.montecarlo` — event-driven Monte-Carlo validation of
  the analytical model (Figure 6's 'Experiment' series).
- :mod:`repro.attacks.birthday` — the naive random-guess (birthday
  paradox) attack used by the original RRS security analysis (Figure 1a).
- :mod:`repro.attacks.outliers` — the Poisson outlier-appearance model
  behind Scale-SRS's reduced swap rate (Figure 13).
"""

from repro.attacks.analytical import (
    AttackParameters,
    JuggernautModel,
    RoundOutcome,
    SECONDS_PER_DAY,
)
from repro.attacks.birthday import random_guess_time_to_break_days
from repro.attacks.montecarlo import (
    MonteCarloJuggernaut,
    MonteCarloResult,
    derive_seed,
)
from repro.attacks.outliers import OutlierModel
from repro.attacks.juggernaut import (
    JuggernautAttacker,
    AttackVerdict,
    multi_bank_time_to_break_days,
)
from repro.attacks.patterns import (
    double_sided,
    many_sided,
    half_double,
)
from repro.attacks.harness import HammerOutcome, hammer_pattern

__all__ = [
    "AttackParameters",
    "JuggernautModel",
    "RoundOutcome",
    "SECONDS_PER_DAY",
    "random_guess_time_to_break_days",
    "MonteCarloJuggernaut",
    "MonteCarloResult",
    "derive_seed",
    "OutlierModel",
    "JuggernautAttacker",
    "AttackVerdict",
    "multi_bank_time_to_break_days",
    "double_sided",
    "many_sided",
    "half_double",
    "HammerOutcome",
    "hammer_pattern",
]
