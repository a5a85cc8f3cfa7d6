"""Streaming Matrix Profile anomaly detection for converter frequency channels."""

from mpstream.core import (
    SENTINEL_INDEX,
    MatrixProfile,
    RollingStats,
    TimeSeries,
    default_exclusion_radius,
    discords,
    matrix_profile,
    matrix_profile_brute,
    rolling_stats,
    znorm_distance,
)
from mpstream.detect import (
    AnomalyDetector,
    AnomalySegment,
    DetectionEvent,
    DetectorConfig,
    EventKind,
    FilterChain,
    calibrate_threshold,
    events_to_segments,
)
from mpstream.evaluate import (
    ConfusionCounts,
    Metrics,
    SegmentReport,
    classification_metrics,
    metrics_table,
    point_confusion,
    segment_score,
)
from mpstream.generate import (
    DEFAULT_LAYOUT,
    FaultKind,
    FaultSpec,
    FourFaultLayout,
    GeneratorConfig,
    LabeledDataset,
    four_fault_dataset,
    generate_base,
    inject_fault,
)
from mpstream.stream import StreamingProfile

__version__ = "0.1.0"
