"""Exceptions and budget defaults shared across the package.

The CLI parser reads the defaults for every command, and this module
loads no numpy.  :func:`_over_budget` formats every ``--budget-*`` error.
"""

#: Largest register a dense state is allowed to hold (``--budget-dense``).
DEFAULT_DENSE_LIMIT = 14

#: Caps nothing; kept only because the benchmark's exact-small workload reads it.
DEFAULT_BRANCH_BUDGET = 2**14

#: Most rows the table of logicals may reach (``--budget-terms``), from a
#: 1 GiB target.  On a 2-CPU Xeon VM (Python 3.11, numpy 2.4), runs stopped
#: by this budget peaked at 527 MB RSS with one 64-bit word per mask
#: (cluster 3x14, about 125 bytes per row) and at 690-710 MB with two
#: (cluster 3x22 and 5x14, about 170 bytes per row), while tables kept the
#: measured X.  Stripped of it, the sim pools of seeds 1-5 reach 630 rows.
DEFAULT_TERM_BUDGET = 2**22

#: Default vertex limits of the two exact measures, set from a 1 s
#: target.  On a 2-CPU Xeon VM (Python 3.11, numpy 2.4, one BLAS thread,
#: under a 2 GiB RLIMIT_AS; median of 5 random graphs at edge density 1/2,
#: each in a fresh process, first call / repeat call)
#: structural_entanglement_exact took 0.09 / 0.09, 0.24 / 0.22, 0.53 /
#: 0.46 and 0.83 / 0.75 s at n = 18, 19, 20 and 21, and
#: entanglement_width_exact 0.07 / 0.04, 0.17 / 0.09 and 0.63 / 0.61 s at
#: n = 15, 16 and 17.  Peak RSS over both calls at the defaults: 62 MB
#: (n = 20; 88 MB at n = 21), the cut-rank table being built in blocks,
#: and 78 MB (n = 16), of which the width DP's kept split tables are 43
#: MB.  Before those tables were kept the width took 0.27 s at n = 16,
#: first call, with a 67 MB peak.  So n = 21 and n = 17 now fit the 1 s
#: target too; the defaults stay until a committed script re-derives
#: every budget.
DEFAULT_ORDERING_BUDGET = 20
DEFAULT_TREE_BUDGET = 16


class BudgetExceededError(RuntimeError):
    """A brute-force search would exceed its configured budget."""


def _over_budget(amount, unit: str, knob: str, limit: int, note: str = "") -> BudgetExceededError:
    """The error naming the knob, its limit and the value over it; the caller compares."""
    note = f" ({note})" if note else ""
    return BudgetExceededError(f"{amount} {unit} exceed --budget-{knob} {limit}{note}")


class DeterminismError(RuntimeError):
    """A pattern expected to be deterministic produced inconsistent branches."""


class FlowConsistencyError(RuntimeError):
    """A flow-derived structure (wires, layers) contradicts its own guarantees."""


class SimulationInvariantError(RuntimeError):
    """An internal invariant of the symbolic simulation was violated."""
