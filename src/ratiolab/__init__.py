"""ratiolab: numerical experiments on ratio-sampled symmetric matrices.

A small laboratory around the symmetric matrices with entries
f(min(i,j)/max(i,j)): streaming entrywise m-norms and their integral
limits, a self-contained log-Gamma evaluator with its classical identity
suite, Farey-sequence equidistribution, a Householder and Sturm-multisection
eigensolver for spectral sums, and the Hadamard last-two-rows oscillation bound.
"""

from .eigen import (
    DenseSymmetric,
    EigenDecomposition,
    SpectralSums,
    jacobi_eigenvalues,
    materialize,
    spectral_sum_report,
)
from .errors import CapacityError, EvaluationError
from .farey import (
    FareySequence,
    TotientTable,
    coprime_density,
    farey_sequence,
    phi_summatory,
    totient_sieve,
    weyl_average,
)
from .hadamard import (
    OscillationReport,
    SignMatrix,
    Verdict,
    is_hadamard,
    oscillation_bound,
    spectral_sum_sq,
    sylvester,
)
from .matrix_core import (
    Integrand,
    NormReport,
    SampledMatrixSpec,
    convergence_table,
    exact_sum,
    matrix_entry,
    norm_power,
    norm_report,
    predict_limit,
    sample_row,
    weighted_cesaro,
)
from .specfun import (
    duplication_residual,
    euler_reflection_residual,
    gamma_integral_closed_partial,
    gamma_integral_via_matrix,
    gamma_row_log_product,
    gamma_row_log_product_closed,
    ln_gamma,
    sine_product_residual,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DenseSymmetric",
    "EigenDecomposition",
    "EvaluationError",
    "FareySequence",
    "Integrand",
    "NormReport",
    "OscillationReport",
    "SampledMatrixSpec",
    "SignMatrix",
    "SpectralSums",
    "TotientTable",
    "Verdict",
    "convergence_table",
    "coprime_density",
    "duplication_residual",
    "euler_reflection_residual",
    "exact_sum",
    "farey_sequence",
    "gamma_integral_closed_partial",
    "gamma_integral_via_matrix",
    "gamma_row_log_product",
    "gamma_row_log_product_closed",
    "is_hadamard",
    "jacobi_eigenvalues",
    "ln_gamma",
    "materialize",
    "matrix_entry",
    "norm_power",
    "norm_report",
    "oscillation_bound",
    "phi_summatory",
    "predict_limit",
    "sample_row",
    "sine_product_residual",
    "spectral_sum_report",
    "spectral_sum_sq",
    "sylvester",
    "totient_sieve",
    "weighted_cesaro",
    "weyl_average",
]
