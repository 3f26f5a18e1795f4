"""Wavelet-based clustering of nonstationary functional time series.

The toolkit slices a long sampled signal into curves, represents each
curve either by discrete-wavelet scale-energy features or by its
continuous-wavelet time-scale spectrum, and clusters the curves with
restarted k-means on selected features or PAM on spectral
dissimilarities (wavelet coherence / WER, maximum-covariance leading
patterns), with shadow-value and neighborhood-graph diagnostics and a
reproducible three-cluster simulation benchmark.
"""

__version__ = "0.1.0"

from .clustering import (
    DistortionCurve,
    Partition,
    choose_k_by_jump,
    kmeans,
    pam,
)
from .cwt import (
    ScaleGrid,
    Spectrum,
    cwt_morlet,
    make_scale_grid,
    smooth_spectrum,
)
from .data import (
    FunctionalDataset,
    SampledSignal,
    resample_dataset,
    resample_dyadic,
    slice_series,
)
from .dissimilarity import (
    CoherenceField,
    DissimilarityMatrix,
    McaResult,
    build_dissimilarity_matrix,
    mca_analysis,
    mca_distance,
    wavelet_coherence,
    wer_distance,
)
from .dwt import (
    FeatureMatrix,
    WaveletDecomposition,
    WaveletFilter,
    dwt_forward,
    energy_contributions,
    feature_matrix,
    get_filter,
    relative_contributions,
)
from .errors import DegenerateInputError
from .evaluation import (
    NeighborhoodGraph,
    ValidationReport,
    misclassification,
    neighborhood_graph,
    rand_indices,
    shadow_values,
    validation_report,
)
from .feature_selection import (
    SelectionReport,
    clusterability_index,
    screening_threshold,
    select_features,
    select_features_stable,
)
from .rng import derived_rng
from .simulation import (
    FarModel,
    far_operator,
    gen_benchmark,
    gen_far,
    gen_sinus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
