"""germtower: exact bookkeeping for completion towers, germ cascades, and
cuspidal correspondences.

The engine is organized in layers: index towers (`tower`), triangular matrix
pairs and labeled expansions (`bisemigroup`), polynomial jets with their
catastrophe classification (`germs`), germ-valued semisheaves and their
morphisms (`sheaves`), exponential-sum compactification and correspondences
(`cuspidal`), versal deformation with the blowup cascade (`blowup`), and the
deterministic pipeline plus CLI (`pipeline`, `cli`).
"""

from .bisemigroup import (
    FREE,
    INTERACTION,
    LEVELS,
    Bielement,
    LabeledTerm,
    TriangularElement,
    class_representatives,
    cross_compose,
    expand_sum_product,
)
from .blowup import (
    BlowupResult,
    DeformedBundle,
    DetachedMonomial,
    Level,
    LevelStack,
    Provenance,
    blow_up,
    deform,
    desingularize,
    detect_resingularization,
    generate_levels,
    time_space_lift,
)
from .cuspidal import (
    Correspondence,
    EllipticSemimodule,
    LevelRecord,
    Mode,
    WeilDescriptor,
    bistring_modulus,
    compactify,
    evaluate,
    lgc,
    lggc_st,
)
from .germs import (
    CATALOGUE,
    CUSP,
    ELLIPTIC_UMBILIC,
    FOLD,
    HYPERBOLIC_UMBILIC,
    MORSE,
    REGULAR,
    SWALLOWTAIL,
    UNCLASSIFIED,
    Germ,
    SingularityClass,
    Unfolding,
    classify_germ,
    corank,
    format_germ,
    germ_from_json,
    germ_to_json,
    normal_form,
    quotient_basis,
    versal_unfold,
)
from .pipeline import (
    PipelineConfig,
    PipelineError,
    Report,
    config_from_json,
    config_to_json,
    dumps_canonical,
    emit_expansion,
    normalize_scenario,
    parse_reduce_rule,
    run_pipeline,
    sample_rows,
    samples_csv,
)
from .sheaves import (
    NATURES,
    Bisemisheaf,
    Section,
    Semisheaf,
    SplitResult,
    annihilate_biquantum,
    attach_sections,
    create_biquantum,
    default_reduce,
    emergent_project,
    endo_split,
    inject_singularity,
    shift,
    split_diag_offdiag,
    tensor,
)
from .tower import (
    LEFT,
    RIGHT,
    ClassIndex,
    Completion,
    Tower,
    TowerConfig,
    build_tower,
    tower_config_from_json,
    tower_config_to_json,
)

__version__ = "0.1.0"
