"""Random distance graphs on the 2-D discrete torus.

Samples graphs whose edge probabilities decay with torus distance
(optionally modulated by i.i.d. vertex weights), measures largest
connected components, and evaluates the limit constants predicted for
the sub- and supercritical regimes, together with branching-process
oracles for cross-checks.
"""

__version__ = "0.1.0"
