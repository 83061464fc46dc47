"""Sequential AMP for grant-free activity detection and channel estimation.

Per detection time, a generic AMP loop with a Bernoulli-Gaussian MMSE
denoiser recovers the access-state sparse vector; between detection times,
the exact two-component posterior is moment-matched back into the
Bernoulli-Gaussian family and pushed through the known Markov / AR-1
transition kernels, so each frame starts from a historical
knowledge-aided prior.  Includes the simulation scenario, Bayes detector,
state-evolution predictor, classical baselines and a reproducible
experiment harness.
"""

from .amp import AmpDivergenceError, AmpState, amp_init, amp_iterate, amp_run
from .baselines import (BaselineResult, amp_mmse, amp_soft,
                        calibrate_soft_alpha, omp, oracle_ls)
from .config import SystemConfig, desk_config
from .denoiser import (BgPrior, denoise_deriv, denoise_mean, denoise_var,
                       gamma, log_gamma)
from .detection import bayes_detect, detect_sequence, metric_nmse
from .exact_filter import MixturePosterior, exact_sssm_filter
from .experiments import (ConfigError, ExperimentSpec, MetricsRecord,
                          load_config, run_experiment, run_se, write_csv)
from .rng import stream
from .scenario import (Profiles, Scenario, derive_noise_var, gen_user_profiles,
                       make_scenario, synthesize_received)
from .sequential import (PosteriorSummary, SequenceResult, initial_prior,
                         moment_match, posterior_update, prior_propagate,
                         s_amp_run)
from .state_evolution import (SeFixpoint, SeSamples, SeTrace, se_fixpoint,
                              se_sequential_trace, se_step, static_sampler)

__version__ = "0.1.0"
