"""Monocular ground-plane localization toolkit.

Calibrates a fixed forward-looking camera, maps detector bounding boxes to
ground-contact pixels, back-projects them onto the carpet, and scores the
resulting positions against ground truth.

The package namespace re-exports nothing: import each name from the module
that defines it (groundcam.geometry, groundcam.files, ...).
"""
