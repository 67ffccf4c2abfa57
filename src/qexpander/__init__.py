"""Workbench for quantum expander channels built from random unitaries.

Subpackages and modules:

- matrixcore: seeded RNG streams, Haar sampling, sub-batches across CPUs
- channel:    weighted unitary-Kraus CPTP maps and the one random-channel builder
- spectrum:   real Hermitian-basis superoperator R, eigenvalues, lambda2, moments
- cayley:     exact tree walk counts and the Alon-Boppana lower bound
- sdengine:   symbolic evaluation of Haar expectations of trace products
- edgex:      the converse edge bound and the eigenvector chain inequality
- cli:        experiment harness (sweeps, scaling collapse, file outputs)
"""

__version__ = "0.1.0"
