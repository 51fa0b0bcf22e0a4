#!/usr/bin/env python3
# Walk through the smallest interesting example: the two-point space.
#
# The algebra is the diagonal 2x2 matrices spanned by {1, q} with
# q = diag(1, 0), the Hilbert space is C^2 with grading diag(1, -1), and
# the Dirac matrix is the flip [[0, 1], [1, 0]].

import numpy as np

from ncgcurv import SpectralTriple, c1_norm, c2_norm, delta, validate
from ncgcurv.forms import junk_space, one_form_space, two_form_space

gamma = np.diag([1.0, -1.0])
q = np.diag([1.0, 0.0])
dirac = np.array([[0.0, 1.0], [1.0, 0.0]])
st = SpectralTriple(gamma, (np.eye(2), q), dirac)

# Every structural invariant is a numerical check with a residual.
for check in validate(st):
    print(check)

# The universal differential of q represents to the commutator [D, q].
dq = delta(st, [0.0, 1.0])
print("\npi_D(delta q) =\n", np.real(dq.pi_d()))
print("membership in ker(m):", dq.mult_residual())

# Represented form spaces: off-diagonal one-forms, diagonal two-forms,
# and no junk at all since D^2 is the identity.
print("\ndim one-forms:", one_form_space(st).dim)
print("dim two-forms:", two_form_space(st).dim)
print("dim junk:     ", junk_space(st).dim)

# The derivative-aware norms dominate the operator norm.
coeffs = np.array([0.3 + 0.1j, -0.7])
print("\n|a|      =", np.linalg.norm(st.assemble(coeffs), 2))
print("c1 norm  =", c1_norm(st, coeffs))
print("c2 norm  =", c2_norm(st, coeffs))
