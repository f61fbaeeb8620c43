import importlib.util
import sys
import time
from pathlib import Path

from ppc.clients import ScriptedClient
from ppc.synthesis import GeneratorSuite, ProblemRecord

_SESSION_START = time.monotonic()

OFFLINE_BUDGET_SECONDS = 60.0


def session_elapsed() -> float:
    return time.monotonic() - _SESSION_START


def pytest_sessionfinish(session, exitstatus):
    elapsed = session_elapsed()
    status = "PASS" if elapsed < OFFLINE_BUDGET_SECONDS else "FAIL"
    print(
        f"\nACCEPTANCE 10 {status} - full offline suite finished in "
        f"{elapsed:.1f}s (budget {OFFLINE_BUDGET_SECONDS:.0f}s)"
    )


def outcome(fn, *args):
    """fn(*args) as ("ok", value), or (exception type, message) when it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def load_perfbench_inputs():
    """perfbench/inputs.py, the benchmark's seeded input generators, as a module."""
    name = "perfbench_inputs"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


# --- worker pool probes ----------------------------------------------------

def waiting_for_workers(thread_id):
    """Whether the thread is blocked on a lock with every pool worker started."""
    frame = sys._current_frames().get(thread_id)
    if frame is None or frame.f_code.co_name != "wait":
        return False
    while frame is not None and frame.f_code.co_name != "submit":
        frame = frame.f_back
    return frame is None


def joining_workers(thread_id):
    """Whether the thread is inside the pool's shutdown, joining its workers."""
    frame = sys._current_frames().get(thread_id)
    while frame is not None and frame.f_code.co_name != "shutdown":
        frame = frame.f_back
    return frame is not None


def wait_until(condition, timeout=5):
    """Poll condition until it holds or the timeout passes; its last value."""
    deadline = time.monotonic() + timeout
    while not (held := condition()) and time.monotonic() < deadline:
        time.sleep(0.001)
    return held


# --- scripted synthesis fixtures ---------------------------------------------

def clean_preplan(tag: str = "") -> str:
    """A signal-free preplan comfortably inside the 150..1500 token bounds."""
    body = (
        f"This is a routine problem {tag}. The relevant tools are careful case "
        "analysis and a standard counting argument. A natural approach is to "
        "organize the cases before touching any arithmetic. We should be "
        "careful about boundary cases and avoid double counting."
    )
    filler = " ".join(["Further structural observations follow."] * 40)
    return f"{body} {filler}"


def make_problem(pid: str, question: str | None = None, answer: str = "7") -> ProblemRecord:
    return ProblemRecord(
        id=pid, question=question or f"question text {pid}", gold_answer=answer
    )


def make_suite(stage_texts: dict, trace: list | None = None) -> GeneratorSuite:
    """Scripted four-role suite.

    stage_texts maps problem question -> dict with keys preplan/plan/raw/execute;
    each role answers by matching the question substring inside its prompt.
    """

    def rules(key):
        return [(question, texts[key]) for question, texts in stage_texts.items()]

    return GeneratorSuite(
        preplan_gen=ScriptedClient(rules("preplan"), name="preplan_gen", trace=trace),
        plan_gen=ScriptedClient(rules("plan"), name="plan_gen", trace=trace),
        executor=ScriptedClient(rules("raw"), name="executor", trace=trace),
        cleanup=ScriptedClient(rules("execute"), name="cleanup", trace=trace),
    )


def default_stage_texts(problems, answer_for=None) -> dict:
    """Well-formed stage responses for each problem; all pass the filter."""
    texts = {}
    for p in problems:
        answer = answer_for(p) if answer_for else p.gold_answer
        texts[p.question] = {
            "preplan": clean_preplan(p.id),
            "plan": f"1. Set up: organize the givens for {p.id}.\n2. Solve: carry out the computation.",
            "raw": f"working... the value comes out to {answer}. \\boxed{{{answer}}}",
            "execute": (
                f"1. Set up: organize the givens for {p.id}.\n"
                f"2. Solve: the computation gives the value.\n"
                f"Final Answer: \\boxed{{{answer}}}"
            ),
        }
    return texts
