"""Preplan-plan-execute reasoning-data toolkit.

Parses tagged reasoning trajectories, scores preplans for spoiler content,
computes the composite reward and GRPO objective values, synthesizes
filtered SFT corpora against LLM endpoints, and evaluates models with
maj@k / pass@k plus preplan-perturbation probes.
"""

from .clients import (
    ClientError,
    Facet,
    GenerationRequest,
    HttpChatClient,
    LlmClient,
    ProtocolError,
    RateLimited,
    RetryPolicy,
    ScriptedClient,
    Timeout,
    UnparseableVerdict,
    attribute_error,
    judge_equivalence,
)
from .evaluation import (
    EvalRecord,
    EvalReport,
    PerturbationMode,
    answers_equivalent,
    evaluate,
    maj_at_k,
    normalize_answer,
    pass_at_k,
    perturb_preplan,
)
from .grpo import (
    GrpoConfig,
    GrpoResult,
    RolloutGroup,
    group_advantages,
    grpo_objective,
    kl_term,
)
from .rewards import (
    RewardBreakdown,
    RewardWeights,
    adherence_reward,
    composite_reward,
    outcome_reward,
)
from .spoiler import (
    DropReason,
    FilterDecision,
    SpoilerConfig,
    SpoilerReport,
    filter_decision,
    spoiler_score,
    style_penalty,
)
from .synthesis import (
    GeneratorSuite,
    ProblemRecord,
    StageFailure,
    SynthesisRecord,
    apply_filter,
    build_dataset,
    synthesize,
)
from .trajectory import (
    FormatVerdict,
    MalformedTrajectory,
    Trajectory,
    Violation,
    check_format,
    extract_boxed,
    parse_trajectory,
    render_trajectory,
)

__version__ = "0.1.0"
