import hashlib

from ppc import prompts
from ppc.synthesis import STAGES

# The prompt texts are wire-format assets: generators and judges are only
# guaranteed to behave as documented when fed these exact strings, so any
# edit must be deliberate (update the pin together with the text).
ASSET_PINS = {
    "PREPLAN_PROMPT": "b43011811c22e5f9e027f8fc2e2c9d4364ce907f2efc43d7c4ef45db9ee16891",
    "PLAN_PROMPT": "ad5d3c8aef2bc9139eb88f4c14c043a2be7c41e7fb3de8c0a4f31a7642da403f",
    "RAW_SOLUTION_PROMPT": "b0377543010b62a8c78269edf2a7355ceecc0c37460aab0dbc928454eb441a3d",
    "CLEANUP_PROMPT": "0279d370c71225c84cd7b5b74648a7b9fca84dbe2d07cfe5fdc57f73dbb2cdc6",
    "EQUIVALENCE_PROMPT": "83a2b391625e136b000a4dbe19549954865730950b6e29a3a4a9ce5dd88b47ce",
    "ATTRIBUTION_PROMPT": "d8b4005c84b0c9e3baef08ee3e1ae71b6af29e43182a3b50ac1d4ac14990f99c",
    "EVAL_SYSTEM_PROMPT": "1ac42a4db949361d680bccf674bfe78603b409d1c10f77fce293f14b9e14cc1e",
    "GENERIC_PREPLAN": "b829f2e5d4d1811b1967de1657d9d82d2889179bfba9904c5531886cbff230ba",
}


def test_assets_are_pinned():
    for name, expected in ASSET_PINS.items():
        text = getattr(prompts, name)
        assert hashlib.sha256(text.encode()).hexdigest() == expected, name


def test_fill_is_literal_replacement():
    out = prompts.fill("value {x} and {y}", x="a{b}c")
    assert out == "value a{b}c and {y}"  # braces survive; unknown fields stay


def stage_prompt(stage: str, question: str, **shown: str) -> str:
    """The prompt `synthesize` sends for `stage`: its STAGES template, filled."""
    [(template, names)] = [(template, names) for name, _, template, names in STAGES if name == stage]
    assert set(shown) == set(names)
    return prompts.fill(template, question=question, **shown)


def test_fill_never_fills_a_field_s_own_text():
    out = prompts.fill("Q: {question}\nP: {preplan}", question="what is {preplan}?", preplan="SECRET")
    assert out == "Q: what is {preplan}?\nP: SECRET"
    plan = stage_prompt("plan", "what is {preplan}?", preplan="SECRET")
    assert "what is {preplan}?" in plan and plan.count("SECRET") == 1
    cleanup = stage_prompt("execute", "Q", plan="see {raw_solution}", raw_solution="RAW")
    assert "see {raw_solution}" in cleanup and cleanup.count("RAW") == 1
    assert "{answer}" in cleanup  # the template's own literal placeholder stays


def test_builders_embed_their_inputs():
    assert "Q-TEXT" in stage_prompt("preplan", "Q-TEXT")
    plan = stage_prompt("plan", "Q-TEXT", preplan="PP-TEXT")
    assert "Q-TEXT" in plan and "PP-TEXT" in plan
    raw = stage_prompt("raw_solution", "Q-TEXT", plan="PLAN-TEXT")
    assert "PLAN-TEXT" in raw and "PP-TEXT" not in raw
    cleanup = stage_prompt("execute", "Q-TEXT", plan="PLAN-TEXT", raw_solution="RAW-TEXT")
    assert "RAW-TEXT" in cleanup and "PP-TEXT" not in cleanup


def test_each_stage_template_spells_exactly_the_stages_it_shows():
    # fill leaves a {name} with no field as text, so a template that spells a
    # stage its row does not show (or misses one it does) would reach the endpoint.
    stages = {stage for stage, *_ in STAGES}
    for stage, _, template, shown in STAGES:
        placeholders = set(prompts._PLACEHOLDER.findall(template))
        assert "question" in placeholders, stage
        assert placeholders & stages == set(shown), stage


def test_attribution_prompt_keeps_json_braces():
    prompt = prompts.fill(prompts.ATTRIBUTION_PROMPT, question="Q", solution="S", gold="G")
    assert "Problem:\nQ\n\nGold answer: G\n" in prompt and "solution:\nS\n" in prompt
    assert '{"what_to_solve": true,' in prompt
    assert '"facet": null}' in prompt


def test_boxed_marker_in_system_prompt():
    assert "\\boxed{}" in prompts.EVAL_SYSTEM_PROMPT
