"""upspec: spectral analysis of upsampling operators.

Exact DFT primitives, the standard upsamplers (zero insertion, sample
repetition, linear interpolation, pixel shuffle, transposed convolution
with an optional parallel small kernel, ideal Fourier zero-padding),
alias and checkerboard diagnostics, and least-squares fitting of
transposed-convolution kernels to the ideal interpolator.
"""

__version__ = "0.1.0"

from .alias_analysis import (
    AliasReport,
    ContributionMap,
    alias_energy,
    contribution_map,
    empirical_filter_response,
    error_spectrum,
    filter_response,
    psnr,
    replica_deviation,
)
from .kernel_fit import (
    DivergenceError,
    EdgeProfile,
    FitProblem,
    FitResult,
    fit_closed_form,
    fit_gradient_descent,
    kernel_edge_profile,
    lctc_fit,
    residual_sweep,
)
from .signal_core import (
    NonRealResultError,
    RadialProfile,
    Spectrum,
    as_image,
    as_signal,
    center_shift,
    dft,
    idft,
    log_magnitude,
    radial_average,
)
from .upsamplers import (
    KernelSpec,
    bed_of_nails,
    fourier_pad_upsample,
    linear,
    nearest,
    pixel_shuffle,
    pixel_unshuffle,
    transposed_conv,
    transposed_conv2,
)

__all__ = [
    "AliasReport",
    "ContributionMap",
    "DivergenceError",
    "EdgeProfile",
    "FitProblem",
    "FitResult",
    "KernelSpec",
    "NonRealResultError",
    "RadialProfile",
    "Spectrum",
    "alias_energy",
    "as_image",
    "as_signal",
    "bed_of_nails",
    "center_shift",
    "contribution_map",
    "dft",
    "empirical_filter_response",
    "error_spectrum",
    "filter_response",
    "fit_closed_form",
    "fit_gradient_descent",
    "fourier_pad_upsample",
    "idft",
    "kernel_edge_profile",
    "lctc_fit",
    "linear",
    "log_magnitude",
    "nearest",
    "pixel_shuffle",
    "pixel_unshuffle",
    "psnr",
    "radial_average",
    "replica_deviation",
    "residual_sweep",
    "transposed_conv",
    "transposed_conv2",
]
