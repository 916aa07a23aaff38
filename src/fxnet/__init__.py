"""Correlation-network reconstruction for panels of asset time series."""

from .market_data import (
    AssetMeta,
    PanelError,
    PeggedAssetError,
    PricePanel,
    ReturnPanel,
    compute_log_returns,
    parse_price_panel,
)
from .tails import TailFit, TailFitError, fit_tail_exponent, hill_estimate
from .spectral import (
    RmtBounds,
    SpectralDecomposition,
    correlation_matrix,
    eigendecompose,
    rmt_bounds,
)
from .modes import ModeDecomposition, decompose_modes, element_histogram, select_ng
from .network import (
    ClusterReport,
    Graph,
    SweepResult,
    cluster_report,
    mantegna_distance,
    minimum_spanning_tree,
    threshold_network,
    threshold_sweep,
)
from .report import PipelineConfig, StageError, run_pipeline

__version__ = "0.1.0"
