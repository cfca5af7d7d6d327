"""Numerical toolkit for torse-forming vector fields, the extrinsic geometry
of immersed submanifolds, rectifying-submanifold verification, and
warped-product structure checks."""

from .classify import (ANTI_TORQUED, CONCIRCULAR, NONE, PARALLEL, TORQUED,
                       TORSE_FORMING, ClassificationReport,
                       SceneClassification, classify, fit_torse_forming,
                       geodesic_unit_check)
from .config import DEFAULT, Tolerances
from .expr import eval_float, parse, to_source
from .immersion import (FramePacket, Immersion, decompose_field, frames,
                        gauss_equation_residual, induced_metric,
                        shape_operator)
from .jets import Jet, eval_jet, eval_jet_env, jet_variables
from .metric import (MetricAtPoint, MetricField, VectorAtPoint, VectorField,
                     christoffel, covariant_derivative, riemann,
                     riemann_components, sectional_curvature)
from .rectifying import (RectifyingSceneReport, rectifying_scene,
                         verify_normal_vanishes, verify_tangential_vanishes)
from .runner import SceneReport, exit_code, render_report, report_to_json, run
from .scenes import (BUILTIN_DOCUMENTS, Scene, builtin_names, builtin_scene,
                     load_scene, load_scene_file, sample_ambient_points,
                     sample_parameter_points)
from .warped import (IntegralCurve, WarpFit, build_warped_ambient,
                     cumulative_simpson, fit_tanh_integral,
                     lambda_log_derivative, trace_integral_curve,
                     verify_ambient_decomposition, warping_ode_residual)

__version__ = "0.1.0"
