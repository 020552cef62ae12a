"""Geodetic vessel tracking: AIS decoding, great-circle and Vincenty geodesy,
an unscented Kalman filter in geographic coordinates, a planar EKF baseline,
multi-vessel track management, and trajectory simulation.

The package root exports the single-vessel filter API; everything else is
imported from its module (``geotrack.ais``, ``geotrack.tracker``, ...)."""

from .ukf import GeodeticUkf, Measurement

__version__ = "0.1.0"

__all__ = ["GeodeticUkf", "Measurement", "__version__"]
