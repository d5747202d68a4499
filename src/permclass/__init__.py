"""Pattern-replacement equivalence relations on permutations.

Submodules:

- perms: permutation values, standardization, ranking, symmetries
- relation: replacement partitions, hits, one-step transformations
- engine: exhaustive class decomposition of S_n (Lehmer-digit grid + root-hooking closure)
- oracle: closed-form and recursive class-count formulas
- invariants: relation-specific invariants and canonical forms
- meta: avoidance criterion, adjacent-vs-subword equality, stooge machinery
- cli: the ``permclass`` command-line front end
"""

__version__ = "0.1.0"
