"""Finite groupoid spines and the groups they generate.

The pipeline: validate a spine, check regularity, extend it to a groupoid,
extract the automorphism group at an object, and classify it. Alongside:
coset geometry tests in finite group powers and generators for positive,
negative, and adversarial instances.
"""

from .catalog import IsoClass, classify_group, is_isomorphic
from .cosets import (
    AmbientGroup,
    CosetReport,
    FiberReport,
    LinearityReport,
    PartitionReport,
    coset_test,
    family_local_linearity,
    fiber_coset_structure,
    partition_check,
)
from .document import (
    load_group,
    load_spine,
    parse_document,
    serialize_group,
    serialize_spine,
)
from .errors import (
    DocumentError,
    DocumentSyntaxError,
    EmptySet,
    InvalidSpine,
    NotACoset,
    NotPrime,
    NotRegular,
    SchemaError,
    SearchExhausted,
    SpineKitError,
    TheoremViolation,
    TooLarge,
    UnknownElement,
    UnknownObject,
    ValidationError,
)
from .extension import (
    ExtensionResult,
    RegularityReport,
    check_regularity,
    extend_to_groupoid,
    symmetric_closure,
)
from .generators import (
    gen_affine_config,
    gen_group_action_spine,
    gen_latin_square_family,
    latin_family_spine,
    perturb_spine,
)
from .groups import (
    GroupAction,
    GroupTable,
    extract_group,
    group_on_fiber,
    relabel_group,
)
from .model import (
    FiniteMap,
    FiniteSet,
    GroupoidSpine,
    ValidationReport,
    Violation,
    validate_spine,
)

__version__ = "0.1.0"
