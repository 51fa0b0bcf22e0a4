#!/usr/bin/env python3
# Correspondence curvature: how far a tensor sum is from respecting squares.
#
# With a vertical operator S on the module, the curvature of the pair is
# (S + M)^2 - S^2 - N, and it always decomposes as R + [S, M]_+.  The same
# defect vanishes identically for the external product of two triples.

from ncgcurv import external_product_defect, external_product_defect_ungraded, spectral_norm
from ncgcurv.curvature import correspondence_report
from ncgcurv.generate import random_connection, random_module, random_triple, random_vertical, rng_for

rng = rng_for(424242)
st = random_triple(rng, n=4)
module = random_module(rng, st, m=3)
a = random_connection(rng, module, hermitian=True)
s = random_vertical(rng, module)

corr = correspondence_report(module, a, s)
print("correspondence curvature norm:", spectral_norm(corr.curvature))
print("decomposition residual: %.2e" % corr.decomposition_residual)
print("anticommutator diagnostic |[S, M]_+| / (|S| + 1):", round(corr.wac, 6))

# External product of two triples: the graded tensor sum respects squares
# on the nose; dropping the grading twist breaks it.
st1 = random_triple(rng)
st2 = random_triple(rng)
defect = spectral_norm(external_product_defect(st1, st2))
control = spectral_norm(external_product_defect_ungraded(st1, st2))
print("\nexternal product defect (graded):  %.2e" % defect)
print("external product defect (ungraded):", round(control, 6))
