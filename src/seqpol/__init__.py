"""seqpol: interpretable behavior-policy modeling over sequential decision logs.

Build hand-crafted history representations (truncation windows, running
aggregates) from patient trajectories, fit probabilistic policy models
(logistic regression, decision trees, integer risk scores, MLPs), and
evaluate them with stratified AUROC, calibration error, patient-level
bootstrap intervals and off-policy importance-weight diagnostics. A seeded
synthetic cohort generator with a known ground-truth policy makes the whole
pipeline verifiable end to end.
"""

import os

__version__ = "0.1.0"

# One BLAS thread unless the user chose a number: the matrices here are small,
# so more threads spend CPU time without saving wall time. A value already set
# wins, and the defaults have no effect if numpy was imported first.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

# Importing the package loads the whole program (the runner imports every
# module but the CLI). perfbench/run.py imports ``seqpol`` before it times
# the first set-up, so the import cost stays out of ``setup_s``.
from . import runner  # noqa: E402,F401
