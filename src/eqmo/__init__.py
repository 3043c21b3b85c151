"""Equilibrium strategies for moment-based objectives under time inconsistency.

Core pipeline: describe a market and a polynomial moment objective
(:mod:`eqmo.model`), compute conditional moments of terminal wealth under
deterministic strategies (:mod:`eqmo.moments`), solve the per-step
stationarity condition backward for the equilibrium candidate
(:mod:`eqmo.equilibrium`), and certify it against spike deviations
(:mod:`eqmo.verify`). A regression Monte Carlo solver for (flows of)
backward SDEs (:mod:`eqmo.bsde`) cross-validates the closed forms from the
probabilistic side. :mod:`eqmo.cli` exposes everything as reproducible batch
commands.
"""

__version__ = "0.1.0"
