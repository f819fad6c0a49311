"""Exceptions and budget defaults shared across the package.

The CLI parser reads the defaults for every command, and this module
loads no numpy.  :func:`_over_budget` formats every ``--budget-*`` error.
"""

#: Largest register a dense state is allowed to hold (``--budget-dense``).
DEFAULT_DENSE_LIMIT = 14

#: Cap on the 2^m branches the determinism check covers.  The check walks
#: one row, so this bounds no work: on a 2-CPU Xeon VM (Python 3.11, numpy
#: 2.4, median of 5) it took 1.5 ms at 2^12 (cluster 2x7), 1.5 ms at 2^13
#: (path 14) and 1.4 ms at 2^14 (14 YZ vertices, no outputs).  At most 14
#: vertices are measured within the dense limit, so at the defaults the
#: dense limit binds first.
DEFAULT_BRANCH_BUDGET = 2**14

#: Most rows the table of logicals may reach (``--budget-terms``), from a
#: 1 GiB target.  On a 2-CPU Xeon VM (Python 3.11, numpy 2.4), runs stopped
#: by this budget peaked at 660 MB RSS with one-word rows (cluster 3x14,
#: about 150 bytes per row) and at 950-1040 MB with two-word rows (cluster
#: 3x22 and 5x14, about 240 bytes per row).  The sim-terms and sim-clifford
#: benchmark pools of seeds 1-5 reach at most 13,687 rows.
DEFAULT_TERM_BUDGET = 2**22

#: Default vertex limits of the two exact measures, set from a 1 s
#: target.  On a 2-CPU Xeon VM (Python 3.11, numpy 2.4, one BLAS thread,
#: under a 2 GiB RLIMIT_AS; median of 5 random graphs at edge density 1/2,
#: each in a fresh process, first call / repeat call)
#: structural_entanglement_exact took 0.12 / 0.11, 0.26 / 0.24, 0.66 /
#: 0.61 and 1.55 / 1.52 s at n = 18, 19, 20 and 21, and
#: entanglement_width_exact 0.08 / 0.05, 0.20 / 0.14 and 0.65 / 0.55 s at
#: n = 15, 16 and 17.  Peak RSS over both calls at the defaults: 181 MB
#: (n = 20) and 81 MB (n = 16), of which the width DP's kept split tables
#: are 43 MB.  Before those tables were kept the width took 0.27 s at
#: n = 16, first call, with a 67 MB peak.  So n = 17 now fits the 1 s
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
