"""The HiGHS-backed LP solver and the receding-horizon dispatch program.

Solves a toy LP, then assembles the zone dispatch program for a
hand-built two-zone scenario and shows how the reject penalty flips the
dispatch decision and, with it, the supply the LP projects for the next slot.
"""

import numpy as np

from fleetsim.lp import LpProblem, solve
from fleetsim.rhc import solve_rhc

sol = solve(LpProblem.from_dense(c=[3.0, 2.0], a_ub=[[1.0, 1.0], [2.0, 0.5]], b_ub=[4.0, 5.0]))
print(f"toy LP: status {sol.status}, x = {np.round(sol.x, 3)}, objective {sol.objective:.2f}")

# two zones: one idle vehicle in zone 0, a request expected next slot in zone 1
x0 = np.array([1.0, 0.0])
wbar = np.array([[0.0, 0.0], [0.0, 1.0]])
sched = np.zeros((1, 2))
tau = np.array([[0.0, 6.0], [6.0, 0.0]])   # six minutes between zones
prob = np.eye(2)

for penalty in (3.0, 20.0):
    plan = solve_rhc(x0, sched, wbar, [tau] * 2, [prob] * 2,
                     reject_penalty=penalty, discount=1.0, slot_minutes=15.0)
    print(f"reject penalty {penalty:4.0f}: dispatch zone0->zone1 = "
          f"{plan.u_star[0, 1]:.2f} (objective {plan.objective:.2f}), "
          f"LP idle counts next slot {plan.x_future[0]}")
