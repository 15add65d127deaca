"""Projection solvers built on oblique annihilation of equation rows.

One direct engine (:mod:`absolve.core`) drives a family of parameter
strategies (:mod:`absolve.strategies`); around it sit an exact integer
solver (:mod:`absolve.diophantine`), saddle-point solvers
(:mod:`absolve.kt`), truncated iterative variants
(:mod:`absolve.iterative`), a matrix-equation analog
(:mod:`absolve.matrixeq`), exactly representable problem generators
(:mod:`absolve.problems`), and a CLI (:mod:`absolve.cli`).
"""

from . import (core, counting, diophantine, errors, iterative, kt, matfile,
               matrixeq, problems, strategies)
from .core import (SolveReport, general_solution, implicit_factorization,
                   reconstruct_inverse, solve)
from .counting import OpCounter, StorageMeter
from .diophantine import bezout_gcd, solutions_in_box
from .errors import (AbsError, IncompatibleSystem, IntegerInconsistent,
                     MaxIterReached, SingularKT, Stagnation,
                     StrategyBreakdown)
from .iterative import (IterParams, angle_contraction_check,
                        limited_memory_solve, recursive_solve)
from .kt import KTSolver, KTSystem
from .problems import Lcg64, Metrics, ProblemSpec, evaluate, generate
from .strategies import gilu_solve, implicit_lu_solve, make_strategy

__version__ = "0.1.0"

__all__ = [
    "core", "counting", "diophantine", "errors", "iterative", "kt",
    "matfile", "matrixeq", "problems", "strategies",
    "SolveReport", "general_solution", "implicit_factorization",
    "reconstruct_inverse", "solve", "OpCounter",
    "StorageMeter", "bezout_gcd", "solutions_in_box", "AbsError",
    "IncompatibleSystem", "IntegerInconsistent", "MaxIterReached",
    "SingularKT", "Stagnation", "StrategyBreakdown", "IterParams",
    "angle_contraction_check", "limited_memory_solve", "recursive_solve",
    "KTSolver", "KTSystem", "Lcg64", "Metrics", "ProblemSpec", "evaluate",
    "generate", "gilu_solve", "implicit_lu_solve", "make_strategy",
    "__version__",
]
