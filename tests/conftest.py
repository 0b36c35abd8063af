"""Constants shared by the test modules: the Pauli matrices and the
standard anti-Hermitian pair built from them; `bits`, a formula's steps
in a form that compares bit for bit; and `word_sum`, the terms of a
formula's expansion summed one string-keyed word at a time."""

import numpy as np

from trotterion.formula import GeneratorPair, ProductFormula, word_series

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_PAIR = GeneratorPair(-1j * SIGMA_X, -1j * SIGMA_Z)


def bits(f: ProductFormula) -> list[tuple[str, str]]:
    """f's steps with each coefficient as its exact bits (float.hex keeps -0.0)."""
    return [(tag, coeff.hex()) for tag, coeff in f.steps]


def word_sum(f: ProductFormula, gens: GeneratorPair, degree: int) -> list[np.ndarray]:
    """P_0 ... P_degree, where P_k sums coeff(w) * G_w over the words w of
    length k of `word_series`: each G_w is G_{w[:-1]} times the generator
    of w's last letter, and each term is added in the series' word order."""
    d = gens.dim
    words = {"": np.eye(d, dtype=complex)}
    p = [np.zeros((d, d), dtype=complex) for _ in range(degree + 1)]
    for word, coeff in word_series(f, degree).items():
        if word:
            words[word] = words[word[:-1]] @ gens.matrix(word[-1])
        p[len(word)] += coeff * words[word]
    return p
