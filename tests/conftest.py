"""Constants shared by the test modules: the Pauli matrices and the
standard anti-Hermitian pair built from them; and `bits`, a formula's
steps in a form that compares bit for bit."""

import numpy as np

from trotterion.formula import GeneratorPair, ProductFormula

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_PAIR = GeneratorPair(-1j * SIGMA_X, -1j * SIGMA_Z)


def bits(f: ProductFormula) -> list[tuple[str, str]]:
    """f's steps with each coefficient as its exact bits (float.hex keeps -0.0)."""
    return [(tag, coeff.hex()) for tag, coeff in f.steps]
