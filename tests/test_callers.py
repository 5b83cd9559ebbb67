"""Every public function of the layer modules is one the pipeline runs.

The whole command-line chain runs on the seed-7 cohort under
`sys.setprofile`, and each public function whose code it never enters must
be named in `NOT_CALLED`. Library code that no command reaches either gets a
caller or goes.
"""

import importlib
import inspect
import sys

from hypoalarm.cli import main

LAYERS = ("cgm_data", "features", "cart", "evaluation", "synth", "cli")

NOT_CALLED = {
    # the README's and the demos' way to read a tree's rules; no command
    # prints a tree yet, and the first one that does takes this entry out
    "cart.format_tree",
}


def public_functions() -> dict:
    """Dotted name -> code object of each public function of the layer
    modules, by the rule of `benchmarks/spans.py`: no leading underscore,
    a plain function, defined in that module."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"hypoalarm.{layer}")
        for name, fn in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(fn) \
                    and fn.__module__ == module.__name__:
                found[f"{layer}.{name}"] = fn.__code__
    return found


def test_every_public_function_has_a_pipeline_caller(tmp_path):
    cohort, table, tree, report = (tmp_path / "cohort", tmp_path / "features.csv",
                                   tmp_path / "tree.json", tmp_path / "report")
    chain = [
        ["synth", "--seed", "7", "--out", cohort],
        ["ingest", "--in", cohort / "p00.csv"],
        ["features", "--in", cohort, "--out", table],
        ["train", "--features", table, "--out", tree],
        ["evaluate", "--features", table, "--seed", "7", "--cohort", cohort / "cohort.json",
         "--out", report],
        ["report", "--summary", report / "summary.json", "--out", tmp_path / "tables"],
        ["predict", "--tree", tree, "--xt", "8.0", "--rate", "0.081"],
        ["anova", "--report", report / "summary.json", "--metric", "accuracy"],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        exit_codes = [main([str(arg) for arg in argv]) for argv in chain]
    finally:
        sys.setprofile(None)
    assert exit_codes == [0] * len(chain)
    assert len(list(cohort.glob("p*.csv"))) == 33
    never = {name for name, code in public_functions().items() if code not in entered}
    assert never == NOT_CALLED
