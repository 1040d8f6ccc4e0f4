#!/usr/bin/env python3
"""How close does sampled data get to the coefficient bounds?

Seeded sweeps draw thousands of moment sets (p_m, p_2m, q_m, q_2m) per
parameter cell from the Caratheodory coefficient body, with q_m = -p_m,
and solve the coefficient system for each.  Where the q_2m that the
addition relation forces lies in the body, the draw satisfies the full
(overdetermined) system: it passes the realizability filter and must
respect the class bounds.  A cell's realizable draws scale p_m and p_2m
by 1/4 first, which always keeps the forced q_2m.  For every other draw
only the coarser linear ceiling 4*lambda*t/(m(1+lambda)) applies.  The
achieved/bound ratios quantify how much slack the sampled data leaves.
Two exact constructions then reach the two caps: the
single-atom pair p = delta(1), q = delta(-1) attains the linear ceiling,
and at alpha = 1, lambda = 1/2 a two-atom pair attains the arg-type bound
B1 with every equation of the coefficient system holding exactly.  Both
are attained within the paper's coefficient system, which is a necessary
condition on class members, so neither shows the bound sharp for the class.
"""

from fractions import Fraction as F

from bifold import (CaratheodoryFunction, ClassSpec, QComplex, forward_verify,
                    solve_alpha, structural_ceiling, sweep_cell)
from bifold.bounds import bound_alpha_exact

ONE = QComplex(1)

print("sweep (2000 samples + 25 realizable draws per cell):")
print(f"{'kind':>5} {'m':>2} {'lam':>5}  {'filtered max/B1':>15} "
      f"{'unfiltered max':>14} {'ceiling':>8} {'ok':>3}")
for kind, param in (("alpha", 1.0), ("beta", 0.0)):
    for m in (1, 2):
        for lam in (0.5, 1.0):
            rec = sweep_cell(kind, m, param, lam, 2000, seed="demo/sweep",
                             realizable=25)
            print(f"{kind:>5} {m:>2} {lam:>5}  "
                  f"{rec.ratio_a_m1:>15.4f} "
                  f"{rec.max_a_m1_unfiltered:>14.4f} "
                  f"{rec.ceiling:>8.4f} "
                  f"{'yes' if rec.ceiling_ok else 'NO':>3}")

print()
print("single atom p = delta(1), q = delta(-1) (alpha=1):")
for m in (1, 2):
    for lam in (F(1, 2), F(1)):
        p = CaratheodoryFunction([(1, ONE)], fold=m)
        q = CaratheodoryFunction([(1, -ONE)], fold=m)
        a_m1 = solve_alpha(p, q, m, F(1), lam).a_m1
        ceiling = structural_ceiling(ClassSpec("arg", m=m, lam=lam, alpha=1))
        print(f"  m={m} lam={str(lam):>3}: a_(m+1) = {a_m1.real}, "
              f"ceiling {ceiling:.4f}, "
              f"{'attained' if float(a_m1.real) == ceiling else 'MISSED'}")

print()
print("two atoms (7/8, 1/8) at (1, -1), q swapped (alpha=1, lambda=1/2):")
s = F(3, 4)  # (1 + lambda)/sqrt(radicand of B1), the radicand being 4
for m in (1, 2, 3):
    p = CaratheodoryFunction([((1 + s) / 2, ONE), ((1 - s) / 2, -ONE)],
                             fold=m)
    q = CaratheodoryFunction([((1 - s) / 2, ONE), ((1 + s) / 2, -ONE)],
                             fold=m)
    sol = solve_alpha(p, q, m, F(1), F(1, 2))
    b1_sq = bound_alpha_exact(m, 1, F(1, 2))[0]
    exact = (all(v == 0 for v in sol.residuals.values())
             and forward_verify(sol, p, q).max_abs == 0)
    a_sq = sol.a_m1 * sol.a_m1
    print(f"  m={m}: a_(m+1)^2 = {a_sq.real}, B1^2 = {b1_sq}, "
          f"{'attained' if a_sq == b1_sq else 'MISSED'}, "
          f"system residuals {'all exactly 0' if exact else 'NONZERO'}")
