"""repro — high-dimensional Bayesian optimization for AMS failure detection.

A from-scratch reproduction of "Enabling High-Dimensional Bayesian
Optimization for Efficient Failure Detection of Analog and Mixed-Signal
Circuits" (Hu, Li, Huang — DAC 2019), including every substrate the paper
depends on: GP regression, DIRECT-L/COBYLA optimizers, PI/EI/LCB/pBO
acquisitions, random-embedding BO with embedding-dimension selection,
Monte-Carlo and scaled-sigma sampling baselines, behavioral UVLO/LDO
circuit testbenches and an MNA circuit simulator.

The single documented entry point for running a campaign is
:class:`repro.campaign.Campaign`; observability (tracing spans and
counters) lives in :mod:`repro.telemetry`.
"""

__version__ = "1.0.0"
