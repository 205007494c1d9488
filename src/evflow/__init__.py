"""Planar vehicle velocity from downward-facing event-camera optical flow.

Event streams are accumulated into per-window event-count histograms,
dense optical flow between consecutive histograms feeds a RANSAC-guarded 2D
rigid-motion least-squares fit, and the pixel-space solution is converted
to metric velocity at the rear axle.  A contrast-threshold event-camera
simulator over procedural ground textures supplies ground truth for
end-to-end verification.

Importing the package pins OpenBLAS and OpenMP to one thread unless the
caller has set ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``:
``estimate`` and ``simulate`` already spread their work over the CPUs in
forked processes, and a BLAS thread pool in each only oversubscribes them.
The pin holds when ``evflow`` is imported before numpy, as both
command-line entry points do.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"
