"""polyevp: polyhedral cone scalarization, lower-boundedness diagnostics,
and certified variational descent on finite metric spaces.

Everything is computed exactly, so answers are certificates rather than
approximations: through rational linear programming, and for the descent
solver's repeated questions about one pair (H, K) through an integer
halfspace representation computed once per problem.

The package re-exports nothing: import each name from its module, as in
``from polyevp.scalarization import evaluate``.  The modules, in layer
order, each importing only modules above it in this list:

* ``rational``: exact numbers, vectors and their integer scaling.
* ``lp_core``: the exact standard-form LP solver and its one builder.
* ``geometry``: polytopes, cones, their halfspaces and membership oracles.
* ``scalarization``: the cone-separation functional phi.
* ``boundedness``: the lower-boundedness ladder for ranges.
* ``evp``: the variational descent, its certificates and their verifier.
* ``problemfile``: JSON problem and certificate documents.
* ``cli``: the ``polyevp`` command.

``scalarization`` and ``boundedness`` stand side by side: neither
imports the other.
"""

__version__ = "0.1.0"
