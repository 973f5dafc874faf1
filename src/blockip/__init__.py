"""Exact solvers for block-structured integer programs.

Three structured routes (aggregate all-ones row, n-fold Smith elimination,
4-block Smith elimination with one concave master per residue combination)
plus an exhaustive oracle, hardness-reduction encoders and seeded instance
generators.

An instance is a FourBlockInstance, or a GeneralizedNFoldInstance whose
brick matrices A_i and top blocks D_i vary per brick.  validate checks
either kind, and classify names the route a FourBlockInstance is eligible
for; a GeneralizedNFoldInstance is GENERAL.  Each route validates first and
raises MalformedProblemError on what validate rejects and NotEligibleError
on a well-formed instance it cannot take, so GENERAL and HARD instances are
left to the oracle (blockip.oracle.enumerate_optimum) within its budget.
"""

from .model import (
    EvaluationReport,
    FourBlockInstance,
    GeneralizedNFoldInstance,
    Infeasible,
    IntMatrix,
    Solution,
    StructureClass,
    classify,
    evaluate,
    validate,
)

__all__ = [
    "EvaluationReport",
    "FourBlockInstance",
    "GeneralizedNFoldInstance",
    "Infeasible",
    "IntMatrix",
    "Solution",
    "StructureClass",
    "classify",
    "evaluate",
    "validate",
]

__version__ = "0.1.0"
