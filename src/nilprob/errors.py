"""Exception types shared across the package."""

from __future__ import annotations


class NilprobError(Exception):
    """Base class for all package-specific errors."""


class NotAGroup(NilprobError):
    """A multiplication table violates one of the group laws.

    ``law`` is one of ``"identity"``, ``"inverse"``, ``"associativity"``;
    ``witness`` is a tuple of element indices exhibiting the violation.
    """

    def __init__(self, law: str, witness: tuple, detail: str = ""):
        self.law = law
        self.witness = witness
        msg = f"not a group: {law} law fails at {witness}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class OrderExceeded(NilprobError):
    """A construction would produce a group larger than the configured cap."""

    def __init__(self, order_lower_bound: int, cap: int):
        self.order_lower_bound = order_lower_bound
        self.cap = cap
        super().__init__(
            f"group order is at least {order_lower_bound}, above the cap {cap}"
        )


class LatticeTooLarge(NilprobError):
    """The normal-subgroup lattice search would pass its work cap."""


class ChainTooLarge(NilprobError):
    """A stabilizer chain's transversals would hold more cells than the cap."""


class UnknownCatalogName(NilprobError):
    """The requested name is not in the built-in group catalog."""


class DegreeMismatch(NilprobError):
    """Two permutations act on different numbers of points."""

    def __init__(self, a: int, b: int):
        self.degrees = (a, b)
        super().__init__(f"permutation degrees differ: {a} != {b}")


class NotNormal(NilprobError):
    """A quotient was requested by a subgroup that is not normal."""


class EmptyInput(NilprobError):
    """An operation that needs at least one element received none."""


class BudgetExceeded(NilprobError):
    """An exact computation would exceed its iteration budget.

    ``required`` is the exact work the computation would need, so callers
    (the CLI in particular) can suggest the Monte Carlo path or a larger
    budget.
    """

    def __init__(self, what: str, required: int, budget: int):
        self.what = what
        self.required = required
        self.budget = budget
        super().__init__(f"{what} needs {required} iterations, budget is {budget}")


class InvalidCounts(NilprobError):
    """Hit/sample counts passed to an estimator are inconsistent."""
