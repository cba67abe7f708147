"""The one refusal for work over a caller's budget.

Entry points whose cost is known before any work starts (slice candidates,
series terms) compare it with a budget and raise `BudgetError` instead of
running for hours; the CLI reports `required` and exits 1.
"""

from __future__ import annotations


class BudgetError(RuntimeError):
    """The work would need `required` units, more than `budget` allows.

    `task` and `noun` name the work and the unit it counts, as in
    "enumeration needs 8192 candidate tuples (budget 1000)".  `reported`
    is `required` itself, or, for a count past CPython's limit on
    int-to-str conversion (4300 digits by default), the text
    "at least 2^k" with k = bit_length - 1, which prints at once.
    """

    def __init__(self, required: int, budget: int, task: str, noun: str):
        self.required = required
        self.budget = budget
        try:
            shown = str(required)
            self.reported = required
        except ValueError:
            shown = self.reported = f"at least 2^{required.bit_length() - 1}"
        super().__init__(f"{task} needs {shown} {noun} (budget {budget})")
