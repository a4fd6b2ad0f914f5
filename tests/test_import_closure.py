"""Start-up cost: which modules `import mannafair` and each command load.

Each check runs a fresh `python -S` with `PYTHONPATH` set to the source
tree.  `-S` skips `site`, whose `.pth` files may preload standard modules
(`re`, `typing`, `random`, ...) and so hide an import that a command adds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mannafair
from mannafair import cli, core

SRC = Path(__file__).resolve().parents[1] / "src"

# `mannafair.__all__` as it was when the package imported every layer,
# less the `TieGraph` record, whose forest test became the fixed-n
# search's cut (`fixed_n._tie_forests`)
OLD_ALL = (
    "Allocation", "Budget", "BudgetExceededError", "EfrCertificate",
    "EfrDecision", "EnvyGraph", "IncompleteCertificateError", "Instance",
    "PerturbParams", "PerturbedInstance", "Rational", "WeightVector",
    "algorithms", "build_envy_graph", "build_f_ij", "bundle_value",
    "check_nondegenerate", "compute_params", "conflict_aware_picking",
    "core", "decide_efr_k", "demand_sets",
    "double_round_robin_ef1", "efr_n_minus_1", "extend_with_round_robin",
    "fixed_n", "is_ef1", "is_envy_free", "is_envy_free_for",
    "is_pareto_optimal_bruteforce", "max_weighted_welfare", "min_efr_k",
    "oracles", "perturb_nondegenerate", "po_certificate_lp", "reconstruct_I",
    "resolve_top_trading_cycles", "run_picking_rounds", "search_efr_po",
    "solve_partition", "validate_certificate",
    "welfare",
)

BASE = {"mannafair", "mannafair.cli", "mannafair.core", "mannafair.harness"}
ALGORITHMS = BASE | {"mannafair.algorithms"}
FIXED_N = BASE | {"mannafair.fixed_n", "mannafair.welfare"}
ORACLES = BASE | {"mannafair.oracles"}
WELFARE = BASE | {"mannafair.welfare"}

# modules no command may load: `dataclasses` alone costs more than a layer,
# and `typing` would serve annotations only
NEVER = {"dataclasses", "inspect", "typing"}
# a module only `gen --family random` may load
RANDOM = "random"


def fresh(code, cwd):
    """Run `code` in a fresh `python -S`; return its last line of stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_by(code, cwd):
    """The modules loaded after running `code`, which binds `result`."""
    line = fresh(
        f"import sys\n{code}\nprint(result, *sorted(sys.modules))", cwd
    )
    result, *modules = line.split()
    return result, set(modules)


def test_import_loads_no_submodule(tmp_path):
    _, modules = loaded_by("import mannafair\nresult = 0", tmp_path)
    assert {m for m in modules if m.startswith("mannafair")} == {"mannafair"}
    assert not modules & (NEVER | {RANDOM})


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Tiny input files for every command, written in this process."""
    d = tmp_path_factory.mktemp("closure")

    def p(name):
        return str(d / name)

    assert cli.main(["gen", "--family", "random", "--n", "2", "--m", "3",
                     "--seed", "1", "-o", p("mixed.json")]) == 0
    assert cli.main(["gen", "--family", "random", "--n", "2", "--m", "3",
                     "--seed", "1", "--chore-prob", "0",
                     "-o", p("goods.json")]) == 0
    assert cli.main(["solve", "--algo", "efr", "-i", p("mixed.json"),
                     "-o", p("cert.json")]) == 0
    assert cli.main(["solve", "--algo", "ef1", "-i", p("mixed.json"),
                     "-o", p("alloc.json")]) == 0
    return d


# (argv, allowed exit codes, the mannafair modules it must load)
COMMANDS = {
    "gen-random": (
        ["gen", "--family", "random", "--n", "2", "--m", "3", "--seed", "2",
         "-o", "out.json"], {0}, BASE,
    ),
    "gen-partition": (
        ["gen", "--family", "partition", "--set", "1,1",
         "--alloc-out", "out-alloc.json", "-o", "out.json"], {0}, BASE,
    ),
    "gen-identical-chores": (
        ["gen", "--family", "identical-chores", "--n", "3", "-o", "out.json"],
        {0}, BASE,
    ),
    "verify": (
        ["verify", "--cert", "cert.json", "-i", "mixed.json"], {0}, BASE,
    ),
    "solve-ef1": (
        ["solve", "--algo", "ef1", "-i", "mixed.json", "-o", "out.json"],
        {0}, ALGORITHMS,
    ),
    "solve-efr": (
        ["solve", "--algo", "efr", "-i", "mixed.json", "-o", "out.json"],
        {0}, ALGORITHMS,
    ),
    "solve-goods": (
        ["solve", "--algo", "goods", "-i", "goods.json", "-o", "out.json"],
        {0}, ALGORITHMS,
    ),
    "solve-goods-rr": (
        ["solve", "--algo", "goods", "--extend-round-robin",
         "-i", "goods.json", "-o", "out.json"], {0}, ALGORITHMS,
    ),
    "solve-fixed-n": (
        ["solve", "--algo", "fixed-n", "-i", "mixed.json", "-o", "out.json"],
        {0}, FIXED_N,
    ),
    "decide-efr": (
        ["decide-efr", "--k", "1", "-i", "mixed.json", "--alloc", "alloc.json"],
        {0, 1}, ORACLES,
    ),
    "check-po": (
        ["check-po", "-i", "mixed.json", "--alloc", "alloc.json"],
        {0, 1}, ORACLES,
    ),
    "perturb": (
        ["perturb", "-i", "mixed.json", "-o", "out.json"], {0}, WELFARE,
    ),
    "help": (["--help"], {0}, BASE),
    "input-error": (["verify", "--cert", "missing.json", "-i", "mixed.json"],
                    {3}, BASE),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_each_command_loads_exactly_its_closure(files, name):
    argv, codes, closure = COMMANDS[name]
    result, modules = loaded_by(
        f"from mannafair import cli\nresult = cli.main({argv!r})", files
    )
    assert int(result) in codes
    assert {m for m in modules if m.startswith("mannafair")} == closure
    assert not modules & NEVER
    assert (RANDOM in modules) == (name == "gen-random")


def test_old_public_names_resolve():
    assert mannafair.__all__ == sorted(OLD_ALL)
    for name in OLD_ALL:
        assert getattr(mannafair, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(mannafair, "no_such_name")
    assert set(OLD_ALL) <= set(dir(mannafair))


def test_star_import_binds_every_old_name(tmp_path):
    line = fresh(
        "from mannafair import *\n"
        "print(*sorted(k for k in dir() if not k.startswith('_')))",
        tmp_path,
    )
    assert line.split() == sorted(OLD_ALL)


def test_package_names_follow_the_module_binding(monkeypatch):
    assert mannafair.Instance is core.Instance
    assert mannafair.core is core
    replacement = object()
    monkeypatch.setattr(core, "is_ef1", replacement)
    assert mannafair.is_ef1 is replacement
    monkeypatch.undo()
    assert mannafair.is_ef1 is core.is_ef1
