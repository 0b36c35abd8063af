"""Constants shared by the test modules: the Pauli matrices and the
standard anti-Hermitian pair built from them."""

import numpy as np

from trotterion.formula import GeneratorPair

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_PAIR = GeneratorPair(-1j * SIGMA_X, -1j * SIGMA_Z)
