"""Central tolerance configuration.

The cutoffs a scene file can override by name live here; `rectifying.py`'s
seven contract bounds and `runner.GAUSS_TOL` are still module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    # metric / linear algebra
    spd_tol: float = 1e-12        # Cholesky pivot floor; below this the metric is singular
    degeneracy_tol: float = 1e-10  # relative floor for plane-section denominators
    frame_tol: float = 1e-10      # orthonormality slack for tangent/normal frames
    rank_tol: float = 1e-10       # relative smallest-singular-value floor for immersions
    normal_keep_tol: float = 1e-6  # relative residual floor for normal-frame completion
    min_field_norm: float = 1e-12  # points with |V| below this are outside the scene domain

    # field classification
    class_tol: float = 1e-7       # residual cutoff for class membership
    parallel_tol: float = 1e-9    # |grad V| cutoff for the parallel verdict
    class_min_points: int = 50    # minimum sample size for a scene-level verdict
    geodesic_tol: float = 1e-8    # bound on max |∇̃_V V| for a unit anti-torqued field
    unit_norm_tol: float = 1e-8   # bound on max ||V| − 1| for the unit-field precondition

    # rectifying verification
    proper_tol: float = 1e-8      # both |V_tan| and |V_nor| must exceed this for properness
    rect_tol: float = 1e-7        # normalized rectifying residual cutoff
    null_dir_tol: float = 1e-16   # |X|² floor below which X ⊥ W^⊤ counts as zero (torqued)

    # warped-product checks
    ode_tol: float = 1e-6         # warping ODE residual cutoff
    warp_tol: float = 1e-6        # tanh-model deviation cutoff
    decomp_geodesic_tol: float = 1e-8  # (a) |∇̃_{E₁}E₁| of the ambient decomposition
    decomp_tol: float = 1e-7      # items (b), (c), (d) of the ambient decomposition

    def override(self, **kwargs) -> "Tolerances":
        """Return a copy with the given named tolerances replaced."""
        return replace(self, **kwargs)


DEFAULT = Tolerances()

#: names accepted in a scene document's "tolerances" block
TOLERANCE_NAMES = tuple(f.name for f in fields(Tolerances))
