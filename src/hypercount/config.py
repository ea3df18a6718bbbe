"""Run-wide defaults: RNG seed, probabilistic-check trial count, naive budget.

The library takes the budget as an argument; only the CLI reads
BUDGET_ENV from the environment.
"""

DEFAULT_SEED = 42
DEFAULT_TRIALS = 12
DEFAULT_BUDGET = 10**7

BUDGET_ENV = "HYPERCOUNT_BUDGET"
