"""Norm maps and Asai twisting on conjugacy classes of unipotent group laws."""

from .asai import (
    CentralizerWitness,
    ClassFunction,
    NormMapResult,
    asai_apply,
    centralizer_witness,
    constant_function,
    delta_function,
    image_of_member,
    inner_product,
    is_asai_trivial,
    moved_classes,
    norm_map,
    twisted_classes,
)
from .easiness import (
    ConsistencyReport,
    EasinessVerdict,
    FamilyLabel,
    easiness_crosscheck,
    easiness_scan,
    family_oracle,
)
from .errors import (
    AsaitwistError,
    CapExceeded,
    GroupLawSemanticError,
    GroupLawSyntaxError,
    IncompatibleFields,
    InternalInconsistencyError,
    ParameterError,
)
from .fields import FieldElement, FieldId, FieldTower
from .grouplaw import (
    GroupLaw,
    Polynomial,
    builtin,
    canonical_text,
    derive_inverse,
    parse_group_dsl,
    parse_group_name,
    validate_law,
)
from .lang import (
    LangWitness,
    default_degree_cap,
    lang_solve_batch,
    lang_solve_bruteforce,
    lang_solve_triangular,
    verify_witness,
)
from .points import (
    CentralizerGrowth,
    ClassTable,
    FiniteGroupView,
    LawOps,
    Point,
    centralizer,
    centralizer_counts,
    conjugacy_classes,
    enumerate_group,
)

__version__ = "0.1.0"
