"""A tour of the dense two-phase simplex solver the trainers run on.

Problems mix <=, >= and = rows with nonnegative or free variables, held as
arrays (objective, A, senses, rhs, free); the solver standardizes, finds a feasible basis with artificial variables, then walks
vertices under steepest-edge pricing.  It certifies infeasibility (positive
phase-1 optimum) and unboundedness (an improving ray), and it survives the
classic degenerate instances that make naive pivoting cycle.
"""

from mcm import LpProblem, solve, standardize
from mcm.lp import write_lp_text

# a garden-variety LP: minimize -x - 2y inside the triangle x + y <= 1
problem = LpProblem([-1.0, -2.0], [[1.0, 1.0]], ["<="], [1.0], [False, False])
print(f"array form: A = {problem.A.tolist()}, senses = {problem.senses.tolist()}, "
      f"rhs = {problem.rhs.tolist()}, free = {problem.free.tolist()}")
solution = solve(problem)
print(f"triangle: {solution.status.value}, x = {solution.primal_values}, "
      f"objective = {solution.objective_value}")

# infeasible and unbounded cases are certified, not guessed
print("x >= 1 and x <= 0:",
      solve(LpProblem([1.0], [[1.0], [1.0]], [">=", "<="], [1.0, 0.0], [False])).status.value)
print("minimize -x, x >= 1:",
      solve(LpProblem([-1.0], [[1.0]], [">="], [1.0], [False])).status.value)

# a free variable keeps one column and enters in whichever direction pays
free = LpProblem([1.0], [[1.0]], [">="], [-3.0], [True])
print(f"free variable: x = {solve(free).primal_values[0]:.1f}")
std = standardize(free)
n_free = int(std.problem.free.sum())
print(f"  standardized to {std.problem.n_vars} columns ({n_free} free, "
      f"{std.problem.n_vars - n_free} nonnegative), {std.problem.n_constraints} equality rows")

# Beale's cycling example: degenerate enough to trap greedy pivoting forever
beale = LpProblem(
    [-0.75, 150.0, -0.02, 6.0],
    [[0.25, -60.0, -0.04, 9.0],
     [0.5, -90.0, -0.02, 3.0],
     [0.0, 0.0, 1.0, 0.0]],
    ["<=", "<=", "<="],
    [0.0, 0.0, 1.0],
    [False] * 4)
solution = solve(beale)
print(f"\nBeale instance: {solution.status.value} at objective "
      f"{solution.objective_value} after {solution.iterations} pivots")
# a budget that runs out certifies nothing, so no point comes back
capped = solve(beale, max_iterations=1)
print(f"with a one-pivot budget: {capped.status.value}, x = {capped.primal_values}")

print("\nthe same LP in CPLEX-LP text (what the CLI's --dump-lp writes):")
print(write_lp_text(problem, names=["x", "y"]))
