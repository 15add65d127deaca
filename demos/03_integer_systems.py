"""Exact integer linear systems: solve, certify, enumerate.

The integer solver runs the same one-equation-per-step projection as
the float engine, but in exact arithmetic over scaled integer states.
It either produces an integer solution with a basis for all others, or
names the first equation whose divisibility obstruction rules one out.
"""

import itertools

import numpy as np

from absolve import diophantine
from absolve.errors import IntegerInconsistent

# The scalar case first: gcd with its certificate combination.
g, coeffs = diophantine.bezout_gcd([12, 20, 15])
print("gcd(12, 20, 15) =", g, "via", coeffs,
      "->", 12 * coeffs[0] + 20 * coeffs[1] + 15 * coeffs[2])

# A solvable system. Entries of x and of the basis matrix H are exact
# Python ints, never floats. H is n x n: its first n - rank rows are a
# basis of the solution lattice, the rest are zero.
a = [[3, 5, 2],
     [4, 2, 6]]
b = [1, 2]
rep = diophantine.solve(a, b)
print()
print("solve 3x + 5y + 2z = 1, 4x + 2y + 6z = 2")
print("  particular solution:", rep.x)
print("  rank:", rep.rank, " status:", rep.eq_status)
print("  basis rows of the solution lattice:")
for row in rep.h[:3 - rep.rank]:
    print("   ", row)
print("  all entries int:",
      all(type(v) is int for v in rep.x + sum(rep.h, [])))

# Every integer solution is x + H^T q over integer q: spot-check a few.
h = np.array(rep.h)
x = np.array(rep.x)
a_np = np.array(a)
for q in ([1, 0, 0], [0, -2, 1], [3, 4, -5]):
    x_q = x + h.T @ np.array(q)
    assert (a_np @ x_q == np.array(b)).all()
print("  x + H^T q stays a solution for integer q: checked")

# An unsolvable system names the obstruction.
print()
try:
    diophantine.solve([[2, 4], [3, 5]], [1, 2])
    raise AssertionError("should have been rejected")
except IntegerInconsistent as exc:
    print("2x + 4y = 1, 3x + 5y = 2 rejected:")
    print(" ", exc)

# Enumeration: every solution inside a max-norm box, found by walking
# the lattice basis, cross-checked against brute force.
print()
rep = diophantine.solve([[1, 2, -3]], [1])
radius = 4
found = diophantine.solutions_in_box(rep, radius)
brute = [p for p in itertools.product(range(-radius, radius + 1), repeat=3)
         if p[0] + 2 * p[1] - 3 * p[2] == 1]
print(f"x + 2y - 3z = 1 inside the radius-{radius} box:")
print(f"  enumerated {len(found)}, brute force {len(brute)},"
      f" equal: {sorted(found) == sorted(brute)}")
