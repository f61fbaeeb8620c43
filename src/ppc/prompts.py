"""Versioned prompt assets for the generators and judges.

These strings are part of the artifact's contract: the synthesis stages and
the judges behave as specified only when fed these exact prompts, so edit
them like wire formats, not like copy. Placeholders are filled with literal
replacement (`fill`), never str.format, because the prompts themselves
contain braces.
"""

from __future__ import annotations

import re

EVAL_SYSTEM_PROMPT = (
    "Please reason step by step, and put your final answer within \\boxed{}."
)

GENERIC_PREPLAN = (
    "This is a math problem. Careful reading, a sound method, and attention "
    "to constraints will be needed. Common pitfalls should be avoided."
)

PREPLAN_PROMPT = """You are a math teacher briefing a student before they attempt a problem. You yourself MUST NOT solve the problem. Your only job is to set the stage so that the student knows HOW TO APPROACH the problem mentally before starting.

<question>
{question}
</question>

Write a brief pre-solution analysis as a single coherent paragraph (around 4-8 sentences). Cover the following aspects naturally -- without using labels or section headers:
- What TYPE of problem is this? (e.g., "this is a contour integral", "this is a divisibility problem")
- What general TOOLS or CONCEPTS are likely useful? (Name them, do not apply them.)
- What is the high-level STRATEGIC DIRECTION? (Describe in plain words, not as steps.)
- What CONSTRAINTS or boundary conditions matter?
- What PITFALLS should be anticipated?

ABSOLUTE RULES (any violation invalidates your output):
1. NO derivations. Do NOT use phrases like "this simplifies to", "this leads to", "this implies", "this becomes", "we get", "the result is".
2. NO formulas longer than 15 characters. You may name a quantity (e.g., "the integral", "the polynomial f(x)") but DO NOT write extended expressions in $...$.
3. NO equations beyond definitional ones (e.g., "let n be the count of...").
4. NO specific computed values. Even if you know the answer, do NOT mention it.
5. NO step-by-step procedures. The plan comes later -- your job is meta-thinking.
6. Write as flowing prose, NOT as a list. Use natural transitions like "this suggests", "a natural approach is", "we should also be careful about".
7. Be reasonably concise -- focus on insights, not exhaustive coverage.

Output the paragraph directly. No headers, no labels, no quotation marks around the output."""

PLAN_PROMPT = """You are given a math problem and a pre-analysis written by a teacher. Your job is to translate the high-level strategic direction in the pre-analysis into a concrete numbered solution plan.

<question>
{question}
</question>

<pre_analysis>
{preplan}
</pre_analysis>

Create a numbered plan (4-7 steps). Each step should:
- Have a brief title and a one-sentence description
- Describe WHAT to do and WHY (referencing the strategy from the pre-analysis)
- NOT perform actual calculations (that comes in execution)

The plan MUST faithfully follow the strategy hinted at in the pre-analysis. Do NOT invent a different approach.

Output EXACTLY in this format (no other text):

1. [Step Title]: [one sentence describing what to do and why]
2. [Step Title]: [one sentence]
3. ...

Rules:
- Each step <= 2 sentences.
- NO specific numerical computations.
- NO LaTeX formulas longer than 20 characters.
- The total plan should be 400-1000 characters."""

RAW_SOLUTION_PROMPT = """Solve the following math problem. A solution plan is provided; follow it step by step, show all of your work and calculations, and end with the final answer in \\boxed{}.

<question>
{question}
</question>

<solution_plan>
{plan}
</solution_plan>"""

CLEANUP_PROMPT = """You are given a mathematician's raw solution work for a math problem, and the solution plan that was supposed to guide it. Your task is to organize the raw solution into a clean, structured execution.

<question>
{question}
</question>

<solution_plan>
{plan}
</solution_plan>

<raw_solution>
{raw_solution}
</raw_solution>

Organize the raw solution into a structured numbered execution.
Rules:
1. Each step title MUST exactly match the corresponding plan step title.
2. Include the full mathematical reasoning and calculations from the raw solution.
3. If the raw solution contains errors, self-corrections, or multiple attempts, use the FINAL corrected version.
4. Preserve ALL numerical calculations from the raw solution. Do NOT re-derive.

Your output MUST end with exactly: Final Answer: \\boxed{answer}

Output EXACTLY in this format (no other text before or after):

1. [Title matching plan step 1]: [calculation and reasoning]
2. [Title matching plan step 2]: [calculation and reasoning]
...
Final Answer: \\boxed{answer}"""

EQUIVALENCE_PROMPT = """You decide whether two final answers to a math problem denote the same value or object.

Question: {question}
Answer A: {pred}
Answer B: {gold}

Treat differences of formatting, notation, or algebraic form as equivalent (e.g., 0.5 vs 1/2, x+1 vs 1+x). Different values are NOT equivalent.
Output ONLY YES or NO."""

ATTRIBUTION_PROMPT = """You are an expert mathematician diagnosing WHY a model's solution to a competition math problem is wrong. The model produced an INCORRECT final answer.

Your single most important job is to decide ONE thing:

  >> Was this failure caused by the model not understanding WHAT TO SOLVE?

Definition you MUST use. "Understanding WHAT TO SOLVE" is the non-computational understanding of the problem that should happen BEFORE any calculation. It has exactly four facets:
  (1) PROBLEM TYPE  - recognizing what kind of problem this is and what overall approach it calls for.
  (2) TOOLS/CONCEPTS - knowing which theorem, formula, concept, or technique is the right one to bring to bear.
  (3) CONSTRAINTS   - noticing the boundary conditions, domain restrictions, edge cases, or the multiple cases that must be considered.
  (4) PITFALLS      - anticipating well-known traps (misreading a condition, double counting, sign/orientation issues baked into the setup, off-by-one in the framing).

A "WHAT-TO-SOLVE failure" means the root cause is a breakdown in one of these four facets: the model went wrong because it misjudged the nature of the problem, brought the wrong tool, ignored a constraint, or walked into a foreseeable trap -- i.e. a short upfront analysis of the problem (without doing any calculation) would plausibly have caught it.

This is the OPPOSITE of a "HOW-TO-SOLVE failure", where the model correctly understood what the problem needs and chose a sound approach, but failed while CARRYING IT OUT.

Problem:
{question}

Gold answer: {gold}

Model's (incorrect) solution:
{solution}

Decision rules:
- Judge the ROOT CAUSE, not the most visible symptom: if a wrong framing preceded the first calculation error, the framing decides the case.
- When both understanding and execution look flawed, attribute to whichever failed FIRST in the solution.
- If you attribute to WHAT TO SOLVE, pick the single facet (1-4) that best names the breakdown.

Respond with ONLY a JSON object on one line, no other text:
{"what_to_solve": true, "facet": "PROBLEM TYPE" | "TOOLS/CONCEPTS" | "CONSTRAINTS" | "PITFALLS"}
or
{"what_to_solve": false, "facet": null}"""


_PLACEHOLDER = re.compile(r"\{(\w+)\}")


def fill(template: str, **fields: str) -> str:
    """Replace each {name} placeholder of `template` by its field, literally,
    in one pass: a field's text is never searched for placeholders, and a
    {name} with no field stays as it is."""
    return _PLACEHOLDER.sub(lambda m: fields.get(m.group(1), m.group(0)), template)
