"""Exceptions and budget defaults shared across the package.

The CLI parser reads the defaults for every command, and this module
loads no numpy.  :func:`_over_budget` formats every ``--budget-*`` error.
"""

#: Largest register a dense state is allowed to hold (``--budget-dense``).
DEFAULT_DENSE_LIMIT = 14

#: Cap on the number of branches enumerated by the determinism check.  On
#: a 2-CPU Xeon VM (Python 3.11, numpy 2.4, median of 5) the check took
#: 0.03 s over 2^12 branches (cluster 2x7), 0.04 s over 2^13 (path 14) and
#: 0.04 s over 2^14 (14 YZ vertices, no outputs), well inside a 1 s target.
#: At most 14 vertices are measured within the dense limit, so at the
#: defaults the dense limit binds first.
DEFAULT_BRANCH_BUDGET = 2**14

#: Most rows the table of logicals may reach (``--budget-terms``), from a
#: 1 GiB target.  On a 2-CPU Xeon VM (Python 3.11, numpy 2.4), runs stopped
#: by this budget peaked at 660 MB RSS with one-word rows (cluster 3x14,
#: about 150 bytes per row) and at 950-1040 MB with two-word rows (cluster
#: 3x22 and 5x14, about 240 bytes per row).  The sim-terms and sim-clifford
#: benchmark pools of seeds 1-5 reach at most 13,687 rows.
DEFAULT_TERM_BUDGET = 2**22

#: Default vertex limits of the two exact measures, the largest sizes
#: that stay within a 1 s target.  On a 2-CPU Xeon VM (Python 3.11, numpy
#: 2.4, median of 5 random graphs at edge density 1/2, under a 2 GiB
#: RLIMIT_AS) structural_entanglement_exact took 0.15 / 0.37 / 0.85 /
#: 1.67 s at n = 18 / 19 / 20 / 21, and entanglement_width_exact took
#: 0.12 / 0.31 / 1.19 s at n = 15 / 16 / 17.  Peak RSS at the defaults:
#: 154 MB (n = 20) and 67 MB (n = 16).
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
