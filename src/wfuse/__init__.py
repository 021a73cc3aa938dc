"""Resource costs and simulation of a polarization fusion gate for W states.

The library models a probabilistic gate that merges two W states into a
larger one, and answers "how many basic three-photon resource states does a
target size cost?" for every growth strategy: exact closed forms, optimal
dynamic programming, and seeded Monte Carlo of the recycling strategy,
plus an amplitude-level verifier of the gate itself.

The package root only carries the version: import from the submodules
(``wfuse.growth_costs``, ``wfuse.optimal``, ``wfuse.simulate``,
``wfuse.gate``, ``wfuse.fusion_model``, ``wfuse.rng``), so a process
loads only the modules it uses.
"""

__version__ = "0.1.0"
