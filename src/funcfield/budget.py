"""The one refusal for work over a caller's budget.

Entry points whose cost is known before any work starts (slice candidates,
series terms, the bytes of a parsed power) compare it with a budget and
raise `BudgetError` instead of running for hours; the CLI reports
`required` and exits 1.
"""

from __future__ import annotations

import sys
from typing import Optional


class BudgetError(RuntimeError):
    """The work would need `required` units, more than `budget` allows.

    `task` and `noun` name the work and the unit it counts, as in
    "enumeration needs 8192 candidate tuples (budget 1000)".  `reported`
    is `required` itself, or, for a count past CPython's limit on
    int-to-str conversion (4300 digits by default), the text
    "at least 2^k" with k = bit_length - 1, which prints at once.  A count
    refused on its bit length alone, before it is built, has `required`
    None and gives its bit length as `bits`.
    """

    def __init__(self, required: Optional[int], budget: int, task: str,
                 noun: str, bits: Optional[int] = None):
        self.required = self.reported = required
        self.budget = budget
        if required is not None:
            try:
                shown = str(required)
            except ValueError:
                bits = required.bit_length()
        if bits is not None:
            shown = self.reported = _at_least(bits)
        super().__init__(f"{task} needs {shown} {noun} (budget {budget})")

    @classmethod
    def _past_digit_limit(cls, bits: int, budget: int, task: str,
                          noun: str) -> Optional["BudgetError"]:
        """The refusal of a count of `bits` bits, if every such count has
        more digits than str() prints, made without the count; else None.

        A count of `bits` bits is at least 2^(bits - 1), which has
        floor((bits - 1) log10 2) + 1 digits, and 0.30102999 < log10 2
        keeps the estimate below the truth.  Counts near the limit get
        None and are refused by the constructor, which tries str().
        """
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or (bits - 1) * 30102999 // 10 ** 8 < limit:
            return None
        return cls(None, budget, task, noun, bits)


def _at_least(bits: int) -> str:
    return f"at least 2^{bits - 1}"
