"""Planar vehicle velocity from downward-facing event-camera optical flow.

Event streams are accumulated into per-polarity count histograms, dense
optical flow between consecutive histograms feeds a RANSAC-guarded 2D
rigid-motion least-squares fit, and the pixel-space solution is converted
to metric velocity at the rear axle.  A contrast-threshold event-camera
simulator over procedural ground textures supplies ground truth for
end-to-end verification.
"""

__version__ = "0.1.0"
