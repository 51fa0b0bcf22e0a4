#!/usr/bin/env python3
# Junk two-forms: the obstruction to differentiating represented forms.
#
# On a 3-dimensional triple with the full diagonal algebra, some universal
# one-forms represent to zero while their would-be differentials do not.
# Those differentials are the junk forms, and curvature is only defined
# modulo them.

import numpy as np

from ncgcurv import SpectralTriple
from ncgcurv.forms import junk_space, kernel_one_forms, two_form_space
from ncgcurv.glinalg import anticommutator, frobenius_norm, project_off

gamma = np.diag([1.0, 1.0, -1.0])
q1 = np.diag([1.0, 0.0, 0.0])
q2 = np.diag([0.0, 1.0, 0.0])
dirac = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
st = SpectralTriple(gamma, (np.eye(3), q1, q2), dirac)

# Forms with pi_D = 0: the source of junk.
kernel = kernel_one_forms(st)
print("forms representing to zero:", len(kernel))
for w in kernel:
    print("  |pi_D| = %.2e   |pi_D2| = %.3f" % (
        frobenius_norm(w.pi_d()), frobenius_norm(w.pi_d2())))

# For such forms the two-form identity collapses to
# pi_D2(w) = -sum [D, b_i][D, b_j], so pi_D2(w) is an honest two-form.
w = kernel[0]
identity_gap = frobenius_norm(w.two_form() - (anticommutator(dirac, w.pi_d()) - w.pi_d2()))
print("\ntwo-form identity gap: %.2e" % identity_gap)

junk = junk_space(st)
two = two_form_space(st)
print("junk dimension:", junk.dim, "inside the", two.dim, "dimensional two-form space")

# Canonical representatives drop the junk component.
m = w.pi_d2()
print("\n|pi_D2(w)|            =", frobenius_norm(m))
print("|pi_D2(w) mod junk|   =", frobenius_norm(project_off(m, junk.basis)))
