"""Cameron-Liebler sets, spreads and association schemes in affine and
projective geometries over small finite fields, with exact arithmetic
throughout."""

__version__ = "0.1.0"

from .clsets import KSet, is_cameron_liebler, point_pencil
from .galois import field_for_order, make_field
from .geometry import AmbientSpace, Subspace, ambient, gaussian_binomial
from .incidence import build_incidence
from .scheme import hyperplane_scheme, line_scheme
from .spreads import Spread, spread_type_I, spread_type_II, spread_type_III

__all__ = ["make_field", "field_for_order", "AmbientSpace", "Subspace",
           "ambient", "gaussian_binomial",
           "build_incidence", "KSet", "is_cameron_liebler", "point_pencil",
           "Spread", "spread_type_I", "spread_type_II", "spread_type_III",
           "line_scheme", "hyperplane_scheme", "__version__"]
