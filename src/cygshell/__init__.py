"""Lattice point counting in shrinking Cygan-Koranyi spherical shells and the
distributional statistics of the normalized error term."""

from .arith import R2Table, build_r2, squarefree_core
from .counting import (BALL_VOLUME, RadiusPoint, ShellSample, count_ball_brute,
                       count_ball_fast, shell_sample)
from .gapwidth import (AlmostPeriodicGap, GapWidth, OmegaDiagnostics,
                       gap_from_json, make_almost_periodic, make_slowly_varying,
                       midpoint_grid, omega_diagnostics)
from .spectra import (DensitySpec, TrigPolyModulus, construction_moment,
                      constrained_frequency_sum, density_eval, density_moment,
                      gauss_moment, l_j, phi_from_poly, phi_moment,
                      predicted_moment)
from .stats import (EmpiricalDistribution, SampleGrid, ks_distance, m_j,
                    mixture_cdf, normal_cdf, sample_errors, sample_shells,
                    variance_sigma2)
from .voronoi import diagonal_sum, expansion_rhs, sum_sqrt_is_zero

__version__ = "0.1.0"
