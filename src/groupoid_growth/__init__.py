"""Exact growth and complexity computations for subshift groupoids,
groupoids of germs of self-similar groups, and their convolution algebras."""

from .fields import GF2, QQ, BitRowBasis, Field, RowBasis, parse_field
from .groupoid import (
    GermGroupoidModel,
    LabeledBall,
    SubshiftModel,
    WindowUnit,
    ball_to_dot,
    canonical_code,
    delta_enumerated,
)
from .matrix_recursion import (
    GroupRingElement,
    IdentityError,
    LevelMatrix,
    grig_witness,
    homomorphism_check,
    image_at_level,
    loglog_slope,
    parse_element,
    thinned_growth,
)
from .selfsimilar import (
    ADDING_MACHINE,
    GRIGORCHUK,
    EventuallyPeriodicPoint,
    NotContracting,
    SelfSimilarGroup,
    StateCapExceeded,
    WreathRecursion,
    group_from_spec,
)
from .shift_algebra import (
    RadiusExhausted,
    WindowSpace,
    growth_dims,
    module_growth,
    semigroup_dims,
)
from .subshift import Language, build_language
from .words import (
    EventuallyPeriodicSource,
    ExplicitSource,
    SturmianSource,
    SubstitutionSource,
    ToeplitzSource,
    WordSource,
    golden_sturmian,
    source_from_config,
    thue_morse,
)

__version__ = "0.1.0"
