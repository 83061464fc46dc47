"""Sequential AMP for grant-free activity detection and channel estimation.

Per detection time, a generic AMP loop with a Bernoulli-Gaussian MMSE
denoiser recovers the access-state sparse vector; between detection times,
the exact two-component posterior is moment-matched back into the
Bernoulli-Gaussian family and pushed through the known Markov / AR-1
transition kernels, so each frame starts from a historical
knowledge-aided prior.  Includes the simulation scenario, Bayes detector,
state-evolution predictor, classical baselines and a reproducible
experiment harness.

The package exports no names: each is imported from its module, such as
``from seqamp.experiments import run_experiment``.
"""
