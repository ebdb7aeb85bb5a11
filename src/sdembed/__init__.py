"""Data-free moment networks for polynomial SDEs.

Solve the truncated coefficient system of the backward Kolmogorov equation
to get moment maps of a stochastic differential equation, then embed those
maps into a one-hidden-layer sigmoid network by matching the network's
exact Taylor coefficients — no training data needed.  Monte Carlo and
backprop-trained baselines are included for validation and comparison.
Import each name from the module that defines it (`sdembed.dual`,
`sdembed.fit`, ...); `import sdembed` loads only the version.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
