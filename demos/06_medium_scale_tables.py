"""
Medium-scale runs and the reported metric tables
================================================

Two models at reporting scale.  First, the triangle/non-edge tradeoff at
n = 60 for three weight splits, summarized as Density / CC / APL rows.
Local search starts from the Kruskal–Katona frontier witness, which no
single toggle improves, so one scan certifies it.
Second, the distance tradeoff: minimize the worse of total physical
distance (over a seeded unit-square layout) and total circulating flow,
swept across two weight sets, 0.7/0.5/0.3 and 0.1/0.2/0.3.

The distance tradeoff is scale-sensitive: total flow can never drop
below n(n-1), so with unit-square distances the flow term dominates and
the complete graph wins outright.  Scaling the distances (equivalently,
spreading the nodes over a larger region) moves the balance and sparse
clustered layouts emerge.  Runs here use n = 14.  Local search starts
from the distance model's closed-form witness: the star at the best
centre plus the cheapest pairs that avoid it, whose hop total is exact
because its diameter is at most two.  The climb steps the flow statistic
in closed form while the graph keeps a hub, a node adjacent to every
other, so larger layouts (n = 30 or 60) also finish in seconds.
"""

import time
from fractions import Fraction

from ergmax import (
    Hamiltonian,
    SampleSpace,
    StatisticKind,
    StatisticSpec,
    first_improve,
    graph_metrics,
    random_unit_square_delta,
)
from ergmax.frontier import distance_interval, witness
from ergmax.reporting import metrics_row

space = SampleSpace.connected_graphs()

# --- triangle/non-edge tradeoff at n = 60 ------------------------------------
print("triads vs non-edges, n=60 (local search)")
print("alpha    Density, CC, APL")
NE = StatisticSpec(StatisticKind.NON_EDGES)
TRI = StatisticSpec(StatisticKind.TRIANGLES)
for alpha in (Fraction(7, 10), Fraction(1, 2), Fraction(3, 10)):
    h = Hamiltonian.max_min_pair(alpha, NE, TRI)
    t0 = time.perf_counter()
    start = witness(60, alpha, connected=True)
    res = first_improve(start, h, space)
    row = metrics_row(graph_metrics(res.graph))
    print(f"{str(alpha):7}  {row}   ({time.perf_counter() - t0:.1f}s)")

# --- physical vs routing distance at n = 14 -----------------------------------
n = 14
base = random_unit_square_delta(n, seed=2)
for scale in (1, 20):
    delta = tuple(tuple(v * scale for v in row) for row in base)
    PHYS = StatisticSpec(StatisticKind.PHYSICAL_DISTANCE, delta)
    FLOW = StatisticSpec(StatisticKind.FLOW_DISTANCE)
    print(f"\ndistance tradeoff, n={n}, distance scale x{scale}")
    print("alpha    Density, CC, APL")
    for alpha in (Fraction(7, 10), Fraction(1, 2), Fraction(3, 10),
                  Fraction(1, 10), Fraction(2, 10)):
        h = Hamiltonian.max_min_pair(alpha, PHYS, FLOW, sense="minimize")
        _, _, start = distance_interval(h)
        res = first_improve(start, h, space)
        row = metrics_row(graph_metrics(res.graph))
        print(f"{str(alpha):7}  {row}")
