"""Experiment harness: regenerates every table and figure of the paper.

One module per artefact; each sweep harness builds an
:class:`~repro.exp.ExperimentSpec` and returns a result with
``payload()`` and ``render()``.
"""
