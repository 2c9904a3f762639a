"""MAP joint carrier-frequency-offset and MIMO channel estimation over
spatially and temporally correlated Gaussian fading, with closed-form
Bayesian Cramer-Rao bounds and a Monte-Carlo experiment harness."""

from .errors import EstimationError, ModelError, NumericalError, ParameterError
from .pilots import (PilotMatrix, PilotStructure, custom_pilot, expand_block,
                     generate_periodic_pilot, generate_td_pilot,
                     pilot_from_config, pilot_to_config)
from .channel import (CfoPrior, ChannelStats, CorrelationModel, build_stats,
                      exponential_spatial_cov, make_model,
                      sample_ar1_trajectory, synthesize_rx)
from .estimator import (CfoEstimate, EstimatorWorkspace, build_workspace,
                        compute_z, estimate_cfo_per_antenna,
                        estimate_cfo_universal, estimate_cfo_universal_batch,
                        estimate_channel_mmse,
                        map_metric, metric_gradient, mmse_gain,
                        per_antenna_metric, rotated_design, wrap_frequency)
from .bounds import (BoundResult, compute_beta, compute_bounds,
                     evaluate_bounds, fisher_oracle, resolvability_floor)

__version__ = "0.1.0"

__all__ = [
    "BoundResult", "CfoEstimate", "CfoPrior", "ChannelStats",
    "CorrelationModel", "EstimationError", "EstimatorWorkspace", "ModelError",
    "NumericalError", "ParameterError", "PilotMatrix", "PilotStructure",
    "build_stats", "build_workspace", "compute_beta", "compute_bounds",
    "compute_z", "custom_pilot", "estimate_cfo_per_antenna",
    "estimate_cfo_universal", "estimate_cfo_universal_batch",
    "estimate_channel_mmse", "evaluate_bounds",
    "expand_block", "exponential_spatial_cov", "fisher_oracle",
    "generate_periodic_pilot", "generate_td_pilot", "make_model", "map_metric",
    "metric_gradient", "mmse_gain", "per_antenna_metric", "pilot_from_config",
    "pilot_to_config", "resolvability_floor", "rotated_design",
    "sample_ar1_trajectory", "synthesize_rx", "wrap_frequency",
]
