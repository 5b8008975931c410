"""Preset integrands shared by the CLI and the experiment suites."""

from __future__ import annotations

import numpy as np

from .matrix_core import Integrand
from .specfun import LNGAMMA

EXP = Integrand(eval=np.exp, label="exp")
IDENTITY = Integrand(eval=lambda x: np.asarray(x, dtype=np.float64), label="identity")
CONST1 = Integrand(eval=lambda x: np.ones_like(x, dtype=np.float64), label="const1")

PRESETS: dict[str, Integrand] = {
    "exp": EXP,
    "lngamma": LNGAMMA,
    "identity": IDENTITY,
    "const1": CONST1,
}

