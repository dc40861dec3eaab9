"""High-dimensional canonical correlation analysis.

Detect signal spikes above the noise bulk of squared sample canonical
correlations, estimate the underlying signal strengths, and quantify the
angles between estimated and true canonical variables, by closed-form and
spectrum-reuse routes that cross-check each other.
"""

from .errors import (
    BelowCutoff,
    BelowEdge,
    DegenerateQ,
    DenominatorVanishes,
    DimensionError,
    HdccaError,
    MissingValue,
    OnSupport,
    ParseError,
    PoleProximity,
    RankDeficient,
    RegimeWarning,
    RepeatedCosine,
    ShapeMismatch,
    SpecError,
    ZeroVector,
)
from .inference import (
    AnalysisReport,
    SpikeReport,
    analyze,
    detect_spikes,
    estimate_spike_closed_form,
    estimate_spike_empirical,
)
from .linalg import (
    CanonicalBasis,
    CcaResult,
    angle_between,
    canonical_bases,
    pca_spectrum,
    sample_cca,
)
from .master import (
    MasterInputs,
    StieltjesEval,
    empirical_G,
    master_residual,
    master_roots,
    master_vector_stats,
    wachter_G,
)
from .simulate import (
    GroundTruth,
    McSummary,
    SimSpec,
    gen_data,
    ks_distance,
    mc_angles,
    sample_r_sq,
    seeded_rng,
    sinusoid_pair,
)
from .wachter import (
    AsymptoticRegime,
    SpikePrediction,
    regime_from_dims,
    regime_from_ratios,
    rho2_from_z,
    sin2_angles,
    spike_prediction,
    theta_degrees,
    wachter_cdf,
    wachter_density,
    wachter_stieltjes,
    wachter_stieltjes_deriv,
    z_from_rho2,
)

__version__ = "0.1.0"
