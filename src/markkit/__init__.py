"""markkit: marker-aware Chinese pretraining toolkit.

Words are exposed to a character-level model by inserting boundary
markers between word spans; markers double as anchors for a
replaced-word-detection objective alongside masked language modeling.
The API is the modules (``markkit.cli``, ``markkit.model``, ...); the
package itself holds only ``__version__``.

Importing markkit before numpy pins OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, so that a trained
checkpoint does not depend on the host's core count.
"""

import os

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
