"""The benchmark's tracer finds every function it traces.

`perfbench/spans.Tracer()` looks up each traced name as a module attribute
of mannafair and raises `AttributeError` if one is gone, so a refactor that
drops or renames a traced function fails here rather than only under
`perfbench/run.py --trace 1`.
"""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

from mannafair import fixed_n
from mannafair.harness import gen_random

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_name():
    load_spans().Tracer()


def test_fixed_n_counts_pairs_and_agents():
    # build_f_ij is called once per ordered agent pair, reconstruct_I once
    # per agent, whatever the number of separator options
    tracer = load_spans().Tracer()
    with tracer.installed():
        fixed_n.search_efr_po(gen_random(3, 5, 9, F(1, 2), seed=1))
    assert tracer.calls["fixed_n.build_f_ij"] == 6
    assert tracer.calls["fixed_n.reconstruct_I"] == 3
    assert tracer.calls["fixed_n.search_efr_po"] == 1
    assert not hasattr(fixed_n.build_f_ij, "__wrapped__")  # uninstalled
