"""The names `import spinekit` exports, and the public attributes of the
group classes, so that adding or removing one is a deliberate change to the
public surface."""

from types import ModuleType

import spinekit
from spinekit.catalog import cyclic_group
from spinekit.extension import extend_to_groupoid
from spinekit.generators import gen_group_action_spine
from spinekit.groups import extract_group

PUBLIC = set(
    # catalog, cosets, document
    "IsoClass classify_group is_isomorphic AmbientGroup CosetReport FiberReport "
    "LinearityReport PartitionReport coset_test family_local_linearity "
    "fiber_coset_structure partition_check load_group load_spine parse_document "
    "serialize_group serialize_spine "
    # errors
    "DocumentError DocumentSyntaxError EmptySet InvalidSpine NotACoset NotPrime "
    "NotRegular SchemaError SearchExhausted SpineKitError TheoremViolation TooLarge "
    "UnknownElement UnknownObject ValidationError "
    # extension, generators, groups, model
    "ExtensionResult RegularityReport check_regularity extend_to_groupoid "
    "symmetric_closure gen_affine_config gen_group_action_spine "
    "gen_latin_square_family latin_family_spine perturb_spine GroupAction "
    "GroupTable extract_group group_on_fiber relabel_group FiniteMap FiniteSet "
    "GroupoidSpine ValidationReport Violation validate_spine".split()
)


def test_exported_names():
    names = {n for n, v in vars(spinekit).items() if not isinstance(v, ModuleType)}
    assert {n for n in names if not n.startswith("_")} == PUBLIC


# `product` is the one label view, built on first read; `op`, `inv` and
# `apply` read the integer tables
GROUP_TABLE = {"elements", "identity", "product", "op", "inv", "order_of", "order_profile"}
GROUP_ACTION = {"group", "carrier", "apply"}


def test_group_attributes():
    g = cyclic_group(3)
    action = extract_group(extend_to_groupoid(gen_group_action_spine(g, 1)), "1")
    public = lambda x: {n for n in dir(x) if not n.startswith("_")}
    assert public(g) == GROUP_TABLE
    assert public(action) == GROUP_ACTION
