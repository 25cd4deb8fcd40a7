"""Pseudo-label propagation for sequential LiDAR semantic segmentation.

Given a sequence of scans with poses and a small labeled subset, labels are
propagated to nearby unlabeled scans by pose-aligned nearest-neighbor
transfer (naive, or progressive: nearest frames first, with estimates as
references), the resulting label quality is scored, and a small dual-head
student/teacher classifier demonstrates training on the mixed label pool.
"""

from .errors import (
    ConfigError,
    DataError,
    EmptyIndexError,
    EmptyResultError,
    FormatError,
    IoError,
    MissingDataError,
    PlelidarError,
    ShapeError,
)
from .geometry import RigidTransform
from .lidar_io import LabelMap, PointCloud, SequenceManifest, build_manifest
from .ple import PleConfig, PseudoLabelMap, run_naive, run_progressive
from .spatial_index import KdTree
from .split import sample_labeled
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "EmptyIndexError",
    "EmptyResultError",
    "FormatError",
    "IoError",
    "KdTree",
    "LabelMap",
    "MissingDataError",
    "PlelidarError",
    "PleConfig",
    "PointCloud",
    "PseudoLabelMap",
    "RigidTransform",
    "SequenceManifest",
    "ShapeError",
    "SynthConfig",
    "build_manifest",
    "generate",
    "run_naive",
    "run_progressive",
    "sample_labeled",
    "__version__",
]
