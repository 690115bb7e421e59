"""germtower: exact bookkeeping for completion towers, germ cascades, and
cuspidal correspondences.

The engine is organized in layers: index towers (`tower`), level tags and
labeled sum-product expansions (`bisemigroup`), polynomial jets with their
catastrophe classification (`germs`), germ-valued semisheaves and their
morphisms (`sheaves`), exponential-sum compactification and correspondences
(`cuspidal`), versal deformation with the blowup cascade (`blowup`), the run
configuration (`config`), the deterministic pipeline and its report
(`pipeline`, `report`), and the CLI (`cli`, with `tools`).
"""

from .bisemigroup import LabeledTerm, expand_sum_product
from .blowup import (
    BlowupResult,
    DeformedBundle,
    Level,
    blow_up,
    deform,
    desingularize,
    detect_resingularization,
    generate_levels,
    plan_levels,
    time_space_lift,
)
from .cuspidal import (
    EllipticSemimodule,
    LevelRecord,
    Mode,
    WeilDescriptor,
    bistring_modulus,
    compactify,
    level_record,
    lgc,
    lggc_st,
)
from .germs import (
    CATALOGUE,
    Germ,
    SingularityClass,
    Unfolding,
    classify_germ,
    corank,
    format_germ,
    normal_form,
    versal_unfold,
)
from .config import (
    PipelineConfig,
    config_from_json,
    config_to_json,
    parse_reduce_rule,
)
from .pipeline import PipelineError, run_pipeline
from .report import Report, dumps_canonical
from .sheaves import (
    Bisemisheaf,
    Section,
    Semisheaf,
    annihilate_biquantum,
    attach_sections,
    create_biquantum,
    emergent_project,
    endo_split,
    inject_singularity,
    shift,
    tensor,
)
from .tower import ClassIndex, Tower, TowerConfig, build_tower

__version__ = "0.1.0"
