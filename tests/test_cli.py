"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mannafair import cli, welfare
from mannafair.algorithms import efr_n_minus_1
from mannafair.cli import main
from mannafair.harness import (
    gen_random,
    parse_certificate,
    parse_instance,
    parse_perturbed,
    serialize_allocation,
    serialize_instance,
)

from conftest import format1_text

DATA = Path(__file__).parent / "data"


def run(argv):
    return main(argv)


def format1_doc(inst_path):
    """The EFR-(n-1) certificate of the instance file, as a format-1 JSON
    document that lists every witness allocation."""
    inst = parse_instance(inst_path.read_text())
    return json.loads(format1_text(efr_n_minus_1(inst)))


def solved_doc(inst_path, cert_path):
    """`solve --algo efr` run on the instance file, its certificate read
    back as a (format-2) JSON document."""
    argv = ["solve", "--algo", "efr", "-i", str(inst_path), "-o", str(cert_path)]
    assert run(argv) == 0
    return json.loads(cert_path.read_text())


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "inst.json"
    assert (
        run(
            [
                "gen", "--family", "random", "--n", "3", "--m", "5",
                "--seed", "3", "-o", str(path),
            ]
        )
        == 0
    )
    return path


class TestGen:
    def test_families(self, tmp_path):
        for args in (
            ["--family", "identical-chores", "--n", "4"],
            ["--family", "paired-goods", "--n", "4"],
            ["--family", "partition", "--set", "1,1,2,4"],
            ["--family", "random", "--n", "2", "--m", "4", "--seed", "1"],
        ):
            out = tmp_path / "out.json"
            assert run(["gen", *args, "-o", str(out)]) == 0
            parse_instance(out.read_text())

    def test_partition_allocation_output(self, tmp_path):
        inst_out = tmp_path / "p.json"
        alloc_out = tmp_path / "pa.json"
        assert (
            run(
                [
                    "gen", "--family", "partition", "--set", "1,1",
                    "-o", str(inst_out), "--alloc-out", str(alloc_out),
                ]
            )
            == 0
        )
        doc = json.loads(alloc_out.read_text())
        assert doc["bundles"][0] == [1, 2]

    def test_missing_parameters_is_input_error(self, tmp_path):
        out = tmp_path / "x.json"
        assert run(["gen", "--family", "random", "-o", str(out)]) == 3

    @pytest.mark.parametrize("family", ["identical-chores", "paired-goods"])
    def test_missing_n_is_input_error_naming_the_flag(
        self, tmp_path, capsys, family
    ):
        out = tmp_path / "x.json"
        assert run(["gen", "--family", family, "-o", str(out)]) == 3
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--m", "-1"), ("--n", "0"), ("--n", "-2")]
    )
    def test_random_bad_size_is_input_error_naming_it(
        self, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "x.json"
        sizes = {"--n": "2", "--m": "3", flag: value}
        argv = ["gen", "--family", "random", "--seed", "1", "-o", str(out)]
        assert run([*argv, "--n", sizes["--n"], "--m", sizes["--m"]]) == 3
        assert f"{flag[2:]} must be at least" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--n", "0"), ("--m", "-1"), ("--values", "0"), ("--chore-prob", "3/2")],
    )
    def test_random_range_error_names_the_flag(
        self, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "x.json"
        args = {"--n": "2", "--m": "3", "--values": "9", "--chore-prob": "1/2"}
        args[flag] = value
        argv = ["gen", "--family", "random", "--seed", "1", "-o", str(out)]
        assert run([*argv, *(x for kv in args.items() for x in kv)]) == 3
        assert capsys.readouterr().err.startswith(f"input error: {flag}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, n, reason",
        [
            ("identical-chores", "1", "need at least 2 agents"),
            ("paired-goods", "3", "need an even number of agents, at least 2"),
        ],
    )
    def test_bad_agent_count_names_the_flag(
        self, tmp_path, capsys, family, n, reason
    ):
        out = tmp_path / "x.json"
        assert run(["gen", "--family", family, "--n", n, "-o", str(out)]) == 3
        assert capsys.readouterr().err == f"input error: --n: {reason}\n"
        assert not out.exists()

    def test_partition_bad_entry_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["gen", "--family", "partition", "--set", "1,x", "-o", str(out)]
        assert run(argv) == 3
        assert "--set entry 'x' is not an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_denominator_chore_prob_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["gen", "--family", "random", "--n", "2", "--m", "3", "--seed",
                "1", "--chore-prob", "1/0", "-o", str(out)]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: --chore-prob: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e10000000", "1_0"])
    def test_exponent_chore_prob_is_input_error(self, tmp_path, capsys, value):
        out = tmp_path / "x.json"
        argv = ["gen", "--family", "random", "--n", "2", "--m", "3", "--seed",
                "1", "--chore-prob", value, "-o", str(out)]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err == f"input error: --chore-prob: bad rational {value!r}\n"
        assert not out.exists()

    def test_odd_partition_sum_is_input_error(self, tmp_path):
        out = tmp_path / "x.json"
        assert (
            run(["gen", "--family", "partition", "--set", "1,2", "-o", str(out)])
            == 3
        )

    @pytest.mark.parametrize(
        "values,reason",
        [("1,-2", "values must be positive"), ("1,2", "must have an even sum")],
    )
    def test_partition_bad_set_names_the_flag(
        self, tmp_path, capsys, values, reason
    ):
        out = tmp_path / "x.json"
        argv = ["gen", "--family", "partition", "--set", values, "-o", str(out)]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: --set: ") and reason in err
        assert not out.exists()


class TestSolveAndVerify:
    def test_efr_pipeline(self, tmp_path, inst_file):
        cert = tmp_path / "cert.json"
        assert (
            run(["solve", "--algo", "efr", "-i", str(inst_file), "-o", str(cert)])
            == 0
        )
        assert run(["verify", "--cert", str(cert), "-i", str(inst_file)]) == 0

    def test_ef1_then_decide_and_check_po(self, tmp_path, inst_file):
        alloc = tmp_path / "alloc.json"
        assert (
            run(["solve", "--algo", "ef1", "-i", str(inst_file), "-o", str(alloc)])
            == 0
        )
        assert (
            run(["decide-efr", "-i", str(inst_file), "--alloc", str(alloc), "--k", "2"])
            == 0
        )
        assert run(["check-po", "-i", str(inst_file), "--alloc", str(alloc)]) in (0, 1)

    def test_goods_solver_rejects_mixed_input(self, tmp_path, inst_file):
        cert = tmp_path / "cert.json"
        assert (
            run(["solve", "--algo", "goods", "-i", str(inst_file), "-o", str(cert)])
            == 3
        )

    def test_goods_solver_with_extension(self, tmp_path):
        inst = tmp_path / "goods.json"
        cert = tmp_path / "cert.json"
        run(
            [
                "gen", "--family", "random", "--n", "4", "--m", "6",
                "--seed", "5", "--chore-prob", "0", "-o", str(inst),
            ]
        )
        assert (
            run(
                [
                    "solve", "--algo", "goods", "--extend-round-robin",
                    "-i", str(inst), "-o", str(cert),
                ]
            )
            == 0
        )
        assert run(["verify", "--cert", str(cert), "-i", str(inst)]) == 0

    @pytest.mark.parametrize("extend", [[], ["--extend-round-robin"]])
    def test_goods_solver_names_the_negative_value(self, tmp_path, capsys, extend):
        inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
        inst.write_text(
            json.dumps(
                {"format_version": 1, "agents": 2, "items": 3,
                 "values": [[1, 2, -3], [4, 5, -6]]}
            )
        )
        argv = ["solve", "--algo", "goods", *extend]
        assert run([*argv, "-i", str(inst), "-o", str(cert)]) == 3
        assert capsys.readouterr().err == (
            "input error: values[0][2]: conflict-aware picking requires "
            "nonnegative values, got -3\n"
        )
        assert not cert.exists()

    def test_invalid_certificate_exits_one(self, tmp_path, inst_file):
        doc = format1_doc(inst_file)
        doc["realloc_set"] = []
        if doc["witnesses"][0] == doc["base"]:
            # make at least one witness differ from the base
            doc["witnesses"][0][0], doc["witnesses"][0][1] = (
                doc["witnesses"][0][1],
                doc["witnesses"][0][0],
            )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", "--cert", str(bad), "-i", str(inst_file)]) == 1

    def test_invalid_format_2_certificate_exits_one(self, tmp_path, inst_file):
        cert = tmp_path / "cert.json"
        doc = solved_doc(inst_file, cert)
        assert doc["format_version"] == 2 and doc["realloc_set"]
        # the base's holders of R in every vector: no witness moves an item,
        # and this base is not envy-free
        home = [
            next(j for j, b in enumerate(doc["base"], 1) if t in b)
            for t in doc["realloc_set"]
        ]
        for edit in (
            lambda doc: doc.update(witness_owners=[home] * 3),
            lambda doc: doc.update(realloc_set=[], witness_owners=[[]] * 3),
        ):
            edit(doc)
            cert.write_text(json.dumps(doc))
            assert run(["verify", "--cert", str(cert), "-i", str(inst_file)]) == 1

    def test_a_format_1_file_of_an_earlier_release_still_verifies(
        self, tmp_path, capsys
    ):
        inst, cert = DATA / "mixed-4x9.json", DATA / "mixed-4x9-cert-v1.json"
        doc = json.loads(cert.read_text())
        assert doc["format_version"] == 1 and doc["realloc_set"]
        assert run(["verify", "-i", str(inst), "--cert", str(cert)]) == 0
        assert capsys.readouterr().out == "valid\n"
        doc["realloc_set"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", "-i", str(inst), "--cert", str(bad)]) == 1
        assert capsys.readouterr().out == "invalid\n"

    def test_fixed_n_solver(self, tmp_path):
        inst = tmp_path / "two.json"
        cert = tmp_path / "cert.json"
        run(
            [
                "gen", "--family", "random", "--n", "2", "--m", "4",
                "--seed", "9", "-o", str(inst),
            ]
        )
        assert (
            run(["solve", "--algo", "fixed-n", "-i", str(inst), "-o", str(cert)])
            == 0
        )
        parsed = parse_certificate(
            cert.read_text(), parse_instance(inst.read_text())
        )
        assert len(parsed.realloc_set) <= 1

    def test_fixed_n_base_and_witnesses_are_pareto_optimal(
        self, tmp_path, capsys
    ):
        # values [[3,5,8],[8,4,8],[7,1,5]]: the search once returned the
        # base {1,2},{3},{} here, which check-po calls dominated
        inst = tmp_path / "inst.json"
        cert = tmp_path / "cert.json"
        argv = ["gen", "--family", "random", "--n", "3", "--m", "3"]
        argv += ["--seed", "1", "--chore-prob", "0", "-o", str(inst)]
        assert run(argv) == 0
        assert (
            run(["solve", "--algo", "fixed-n", "-i", str(inst), "-o", str(cert)])
            == 0
        )
        parsed = parse_certificate(cert.read_text(), parse_instance(inst.read_text()))
        for placed in (parsed.base, *parsed.witnesses):
            alloc = tmp_path / "alloc.json"
            alloc.write_text(serialize_allocation(placed))
            capsys.readouterr()
            assert run(["check-po", "-i", str(inst), "--alloc", str(alloc)]) == 0
            assert capsys.readouterr().out == "pareto-optimal\n"

    def test_fixed_n_solver_accepts_rational_values(self, tmp_path):
        inst = tmp_path / "half.json"
        cert = tmp_path / "cert.json"
        inst.write_text(
            '{"format_version": 1, "agents": 2, "items": 3,'
            ' "values": [["1/2", -3, "7/3"], [2, "-5/4", "1/6"]]}'
        )
        assert (
            run(["solve", "--algo", "fixed-n", "-i", str(inst), "-o", str(cert)])
            == 0
        )
        assert run(["verify", "--cert", str(cert), "-i", str(inst)]) == 0


    def test_perturb_accepts_rational_values(self, tmp_path):
        inst = tmp_path / "half.json"
        pert = tmp_path / "pert.json"
        inst.write_text(
            '{"format_version": 1, "agents": 2, "items": 3,'
            ' "values": [["1/2", -3, "7/3"], [2, "-5/4", "1/6"]]}'
        )
        assert run(["perturb", "-i", str(inst), "-o", str(pert)]) == 0
        base = parse_perturbed(pert.read_text()).base
        # the base is the instance scaled by the LCM of its denominators
        assert base.values == parse_instance(
            '{"format_version": 1, "agents": 2, "items": 3,'
            ' "values": [[6, -36, 28], [24, -15, 2]]}'
        ).values


    def test_check_po_reaches_3_by_14(self, tmp_path, capsys):
        """3^14 = 4,782,969 allocations: the full scan took seconds, the
        pruned search answers a welfare maximizer and a dominated copy of it
        at once."""
        values = gen_random(3, 14, 9, Fraction(1, 2), 1)
        uniform = welfare.WeightVector((Fraction(1, 3),) * 3)
        best = welfare.max_weighted_welfare(
            welfare.perturb_nondegenerate(values), uniform
        )
        # give the maximizer's good t to an agent b it costs: moving t
        # back gains its holder v_a(t) > 0 and b -v_b(t) > 0, so this is
        # dominated
        t, b = next(
            (t, b)
            for a, bundle in enumerate(best.bundles)
            for t in sorted(bundle)
            for b in range(3)
            if values.values[a][t] > 0 > values.values[b][t]
        )
        worse = best.reassign({t: b})
        inst = tmp_path / "inst.json"
        inst.write_text(serialize_instance(values))
        for alloc, code, says in (
            (best, 0, "pareto-optimal"), (worse, 1, "dominated")
        ):
            path = tmp_path / "alloc.json"
            path.write_text(serialize_allocation(alloc))
            capsys.readouterr()
            argv = ["check-po", "-i", str(inst), "--alloc", str(path)]
            assert run(argv) == code
            assert capsys.readouterr().out == says + "\n"


    def test_check_po_default_budget_reaches_3_by_20(self, tmp_path, capsys):
        """3^20 = 3.5e9 allocations exceed the default budget of 10^8, but
        the budget counts search nodes, and this welfare maximizer, which
        maximizes the utility sum, is answered before any."""
        values = gen_random(3, 20, 9, Fraction(1, 2), 1)
        uniform = welfare.WeightVector((Fraction(1, 3),) * 3)
        best = welfare.max_weighted_welfare(
            welfare.perturb_nondegenerate(values), uniform
        )
        inst, alloc = tmp_path / "inst.json", tmp_path / "alloc.json"
        inst.write_text(serialize_instance(values))
        alloc.write_text(serialize_allocation(best))
        assert run(["check-po", "-i", str(inst), "--alloc", str(alloc)]) == 0
        assert capsys.readouterr().out == "pareto-optimal\n"


    def test_check_po_answers_a_partition_reduction(self, tmp_path, capsys):
        """Identical chores at 14 x 23: no slack cut prunes the search, but
        every allocation maximizes the utility sum, so it is Pareto
        optimal before the search starts."""
        inst, alloc = tmp_path / "inst.json", tmp_path / "alloc.json"
        argv = ["gen", "--family", "partition", "--set", "9,7,5,3,1,2,4,6,8,10,1"]
        assert run([*argv, "-o", str(inst), "--alloc-out", str(alloc)]) == 0
        capsys.readouterr()
        assert run(["check-po", "-i", str(inst), "--alloc", str(alloc)]) == 0
        assert capsys.readouterr().out == "pareto-optimal\n"


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path):
        assert (
            run(
                [
                    "solve", "--algo", "efr",
                    "-i", str(tmp_path / "nope.json"),
                    "-o", str(tmp_path / "out.json"),
                ]
            )
            == 3
        )

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert (
            run(
                [
                    "solve", "--algo", "efr", "-i", str(bad),
                    "-o", str(tmp_path / "out.json"),
                ]
            )
            == 3
        )

    def test_budget_exceeded_exit(self, tmp_path, inst_file):
        alloc = tmp_path / "alloc.json"
        run(["solve", "--algo", "ef1", "-i", str(inst_file), "-o", str(alloc)])
        assert (
            run(
                [
                    "decide-efr", "-i", str(inst_file), "--alloc", str(alloc),
                    "--k", "5", "--budget", "1",
                ]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["decide-efr", "--k", "5", "--budget", "1"], "EFR-k witness-search"),
            (["check-po", "--budget", "1"], "Pareto-scan allocation prefixes"),
        ],
    )
    def test_budget_message_names_the_search_and_limit(
        self, tmp_path, capsys, inst_file, argv, what
    ):
        alloc = tmp_path / "alloc.json"
        run(["solve", "--algo", "ef1", "-i", str(inst_file), "-o", str(alloc)])
        capsys.readouterr()
        argv = [*argv, "-i", str(inst_file), "--alloc", str(alloc)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: ") and what in err
        assert f"limit of {argv[argv.index('--budget') + 1]}" in err

    def test_fixed_n_budget_message_names_the_search(
        self, tmp_path, capsys, inst_file
    ):
        out = str(tmp_path / "out.json")
        argv = ["solve", "--algo", "fixed-n", "-i", str(inst_file), "-o", out]
        assert run([*argv, "--max-candidates", "1"]) == 2
        err = capsys.readouterr().err
        assert "fixed-n set intersections" in err and "limit of 1" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_max_candidates_below_one_is_input_error(
        self, tmp_path, capsys, inst_file, budget
    ):
        out = str(tmp_path / "out.json")
        argv = ["solve", "--algo", "fixed-n", "-i", str(inst_file), "-o", out]
        assert run([*argv, "--max-candidates", budget]) == 3
        assert "--max-candidates" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["-1", "9"])
    def test_k_out_of_range_names_the_flag(self, tmp_path, capsys, k):
        inst, alloc = tmp_path / "inst.json", tmp_path / "alloc.json"
        argv = ["gen", "--family", "random", "--n", "2", "--m", "4", "--seed", "1"]
        run([*argv, "-o", str(inst)])
        run(["solve", "--algo", "ef1", "-i", str(inst), "-o", str(alloc)])
        capsys.readouterr()
        argv = ["decide-efr", "-i", str(inst), "--alloc", str(alloc), "--k", k]
        assert run(argv) == 3
        assert capsys.readouterr().err == (
            f"input error: --k: k={k} outside [0, m=4]\n"
        )

    def test_fixed_n_agent_cap_names_the_field(self, tmp_path, capsys):
        inst, out = tmp_path / "five.json", tmp_path / "out.json"
        argv = ["gen", "--family", "random", "--n", "5", "--m", "3", "--seed", "0"]
        run([*argv, "-o", str(inst)])
        capsys.readouterr()
        argv = ["solve", "--algo", "fixed-n", "-i", str(inst), "-o", str(out)]
        assert run(argv) == 3
        assert capsys.readouterr().err == (
            "input error: agents: the fixed-n search takes at most 4 agents "
            "(its cost is exponential in n), got 5\n"
        )
        assert not out.exists()

    def test_fixed_n_internal_value_error_is_internal_error(
        self, tmp_path, capsys, monkeypatch, inst_file
    ):
        from mannafair import fixed_n

        def broken(pert, demand):
            raise ValueError("demand map must cover every item")

        monkeypatch.setattr(fixed_n, "po_certificate_lp", broken)
        out = tmp_path / "out.json"
        argv = ["solve", "--algo", "fixed-n", "-i", str(inst_file), "-o", str(out)]
        assert run(argv) == 4
        assert capsys.readouterr().err == (
            "internal error: RuntimeError: fixed-n search: ValueError: "
            "demand map must cover every item\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check-po", "decide-efr"])
    def test_budget_below_one_is_input_error(
        self, tmp_path, capsys, inst_file, command
    ):
        alloc = tmp_path / "alloc.json"
        run(["solve", "--algo", "ef1", "-i", str(inst_file), "-o", str(alloc)])
        argv = [command, "-i", str(inst_file), "--alloc", str(alloc)]
        if command == "decide-efr":
            argv += ["--k", "1"]
        assert run([*argv, "--budget", "-1"]) == 3
        assert "--budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [
            (["decide-efr", "--k", "1"], "--budget"),
            (["check-po"], "--budget"),
            (["solve", "--algo", "fixed-n"], "--max-candidates"),
        ],
    )
    def test_non_integer_budget_names_the_option_not_the_parser(
        self, tmp_path, capsys, inst_file, command, option
    ):
        alloc = tmp_path / "alloc.json"
        run(["solve", "--algo", "ef1", "-i", str(inst_file), "-o", str(alloc)])
        capsys.readouterr()
        if command[0] == "solve":
            files = ["-o", str(tmp_path / "out.json")]
        else:
            files = ["--alloc", str(alloc)]
        assert run([*command, "-i", str(inst_file), *files, option, "1e3"]) == 3
        err = capsys.readouterr().err
        assert f"argument {option}: must be a positive integer, got '1e3'" in err
        assert "_budget" not in err

    def test_zero_denominator_value_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"format_version": 1, "agents": 1, "items": 1, "values": [["1/0"]]}'
        )
        out = str(tmp_path / "o.json")
        assert run(["solve", "--algo", "efr", "-i", str(bad), "-o", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: values[0][0]: ")
        assert "Traceback" not in err

    def test_non_object_instance_is_input_error(self, tmp_path):
        bad = tmp_path / "five.json"
        bad.write_text("5")
        out = str(tmp_path / "out.json")
        assert run(["solve", "--algo", "efr", "-i", str(bad), "-o", out]) == 3

    def test_bad_realloc_item_is_input_error(self, tmp_path, inst_file):
        cert = tmp_path / "cert.json"
        run(["solve", "--algo", "efr", "-i", str(inst_file), "-o", str(cert)])
        doc = json.loads(cert.read_text())
        doc["realloc_set"] = ["x"]
        cert.write_text(json.dumps(doc))
        assert run(["verify", "--cert", str(cert), "-i", str(inst_file)]) == 3

    @pytest.mark.parametrize(
        "command", [["decide-efr", "--k", "1"], ["check-po"]]
    )
    def test_item_id_above_m_in_an_allocation_is_input_error(
        self, tmp_path, capsys, command
    ):
        inst, alloc = tmp_path / "inst.json", tmp_path / "alloc.json"
        assert run(["gen", "--family", "random", "--n", "3", "--m", "4",
                    "--seed", "1", "-o", str(inst)]) == 0
        alloc.write_text('{"bundles": [[1, 2], [3], [4, 9]]}')
        capsys.readouterr()
        assert run([*command, "-i", str(inst), "--alloc", str(alloc)]) == 3
        err = capsys.readouterr().err
        assert err == "input error: bundles[2]: item id 9 out of range 1..4\n"

    @pytest.mark.parametrize(
        "command", [["decide-efr", "--k", "1"], ["check-po"]]
    )
    @pytest.mark.parametrize(
        "bundles, message",
        [
            ("[[1, 2], [2, 3], [4]]", "item id 2 is in bundles[0] and bundles[1]"),
            ("[[1, 2], [3], [4, 2]]", "item id 2 is in bundles[0] and bundles[2]"),
            ("[[1, 2], [3], []]", "item id 4 is in no bundle"),
            ("[[], [], []]", "item id 1 is in no bundle"),
        ],
    )
    def test_allocation_that_is_no_partition_is_input_error(
        self, tmp_path, capsys, command, bundles, message
    ):
        inst, alloc = tmp_path / "inst.json", tmp_path / "alloc.json"
        assert run(["gen", "--family", "random", "--n", "3", "--m", "4",
                    "--seed", "1", "-o", str(inst)]) == 0
        alloc.write_text(f'{{"bundles": {bundles}}}')
        capsys.readouterr()
        assert run([*command, "-i", str(inst), "--alloc", str(alloc)]) == 3
        assert capsys.readouterr().err == f"input error: bundles: {message}\n"

    @pytest.mark.parametrize(
        "base, message",
        [
            ([[1, 2], [3], []], "item id 4 is in no bundle"),
            ([[1, 2], [2, 3], [4]], "item id 2 is in base[0] and base[1]"),
        ],
    )
    def test_certificate_base_that_is_no_partition_is_input_error(
        self, tmp_path, capsys, base, message
    ):
        inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
        assert run(["gen", "--family", "random", "--n", "3", "--m", "4",
                    "--seed", "1", "-o", str(inst)]) == 0
        for doc in (format1_doc(inst), solved_doc(inst, cert)):
            doc["base"] = base
            cert.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run(["verify", "--cert", str(cert), "-i", str(inst)]) == 3
            assert capsys.readouterr().err == f"input error: base: {message}\n"

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("base[1]", lambda doc: doc["base"][1].append(9)),
            ("realloc_set", lambda doc: doc["realloc_set"].append(9)),
            ("witnesses[2][0]", lambda doc: doc["witnesses"][2][0].append(9)),
        ],
    )
    def test_item_id_above_m_in_a_certificate_is_input_error(
        self, tmp_path, capsys, field, edit
    ):
        inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
        assert run(["gen", "--family", "random", "--n", "3", "--m", "4",
                    "--seed", "1", "-o", str(inst)]) == 0
        doc = format1_doc(inst)
        edit(doc)
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--cert", str(cert), "-i", str(inst)]) == 3
        err = capsys.readouterr().err
        assert err == f"input error: {field}: item id 9 out of range 1..4\n"

    @pytest.mark.parametrize(
        "field, edit, message",
        [
            ("base[1]", lambda doc: doc["base"][1].append(9),
             "item id 9 out of range 1..4"),
            ("realloc_set", lambda doc: doc["realloc_set"].append(9),
             "item id 9 out of range 1..4"),
            ("witness_owners[2]", lambda doc: doc["witness_owners"][2].__setitem__(0, 4),
             "agent id 4 not in 1..3"),
            ("witness_owners[0]", lambda doc: doc["witness_owners"][0].__setitem__(1, 0),
             "agent id 0 not in 1..3"),
            ("witness_owners[1]", lambda doc: doc["witness_owners"][1].__setitem__(0, True),
             "agent id True not in 1..3"),
            ("witness_owners[1]", lambda doc: doc["witness_owners"][1].__setitem__(0, 1.0),
             "agent id 1.0 not in 1..3"),
            ("witness_owners[1]", lambda doc: doc["witness_owners"][1].append(1),
             "expected 2 agent ids, one per realloc_set item"),
            ("witness_owners[0]", lambda doc: doc["witness_owners"][0].pop(),
             "expected 2 agent ids, one per realloc_set item"),
            ("witness_owners[2]", lambda doc: doc["witness_owners"].__setitem__(2, 3),
             "expected 2 agent ids, one per realloc_set item"),
            ("witness_owners", lambda doc: doc.update(witness_owners={}),
             "expected 3 owner vectors, one per agent"),
            ("witness_owners", lambda doc: doc["witness_owners"].pop(),
             "expected 3 owner vectors, one per agent"),
            ("witness_owners", lambda doc: doc["witness_owners"].append([1, 2]),
             "expected 3 owner vectors, one per agent"),
            ("witness_owners", lambda doc: doc.update(witness_owners=[]),
             "expected 3 owner vectors, one per agent"),
            ("'witness_owners'", lambda doc: doc.pop("witness_owners"),
             None),
        ],
    )
    def test_bad_format_2_certificate_is_input_error_naming_the_field(
        self, tmp_path, capsys, field, edit, message
    ):
        inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
        assert run(["gen", "--family", "random", "--n", "3", "--m", "4",
                    "--seed", "1", "-o", str(inst)]) == 0
        doc = solved_doc(inst, cert)
        assert len(doc["realloc_set"]) == 2
        edit(doc)
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--cert", str(cert), "-i", str(inst)]) == 3
        want = f"missing field {field}" if message is None else f"{field}: {message}"
        assert capsys.readouterr().err == f"input error: {want}\n"

    @pytest.mark.parametrize("keep", [0, 2, 4])
    def test_witness_count_other_than_n_is_input_error(
        self, tmp_path, capsys, keep
    ):
        inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
        assert run(["gen", "--family", "random", "--n", "3", "--m", "4",
                    "--seed", "1", "-o", str(inst)]) == 0
        doc = format1_doc(inst)
        doc["witnesses"] = (doc["witnesses"] * 2)[:keep]
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--cert", str(cert), "-i", str(inst)]) == 3
        assert capsys.readouterr().err == (
            "input error: witnesses: expected 3 allocations, one per agent\n"
        )

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_unknown_certificate_format_version_is_input_error(
        self, tmp_path, capsys, version
    ):
        inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
        assert run(["gen", "--family", "random", "--n", "3", "--m", "4",
                    "--seed", "1", "-o", str(inst)]) == 0
        doc = solved_doc(inst, cert)
        doc["format_version"] = version
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--cert", str(cert), "-i", str(inst)]) == 3
        assert capsys.readouterr().err == (
            f"input error: format_version: unsupported version {version!r}\n"
        )

    def test_format_1_certificate_of_format_2_fields_is_input_error(
        self, tmp_path, capsys
    ):
        inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
        assert run(["gen", "--family", "random", "--n", "3", "--m", "4",
                    "--seed", "1", "-o", str(inst)]) == 0
        doc = solved_doc(inst, cert)
        doc["format_version"] = 1
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--cert", str(cert), "-i", str(inst)]) == 3
        assert capsys.readouterr().err == "input error: missing field 'witnesses'\n"

    def test_bool_bundle_item_is_input_error(self, tmp_path, inst_file):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(
            '{"format_version": 1, "bundles": [[true, 2, 3, 4, 5], [], []]}'
        )
        assert (
            run(["check-po", "-i", str(inst_file), "--alloc", str(alloc)])
            == 3
        )

    def test_exponent_value_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"format_version": 1, "agents": 1, "items": 1,'
            ' "values": [["1e10000000"]]}'
        )
        out = str(tmp_path / "o.json")
        assert run(["solve", "--algo", "efr", "-i", str(bad), "-o", out]) == 3
        err = capsys.readouterr().err
        assert err == "input error: values[0][0]: bad rational '1e10000000'\n"

    def test_repeated_bundle_item_is_input_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        assert run(["gen", "--family", "random", "--n", "2", "--m", "2",
                    "--seed", "1", "-o", str(inst)]) == 0
        alloc = tmp_path / "alloc.json"
        alloc.write_text('{"bundles": [[1, 1], [2]]}')
        assert run(["check-po", "-i", str(inst), "--alloc", str(alloc)]) == 3
        err = capsys.readouterr().err
        assert err == "input error: bundles[0]: repeated item id 1\n"

    def test_unknown_format_version_is_input_error(self, tmp_path, inst_file):
        doc = json.loads(inst_file.read_text())
        doc["format_version"] = 99
        bad = tmp_path / "v99.json"
        bad.write_text(json.dumps(doc))
        out = str(tmp_path / "out.json")
        assert run(["solve", "--algo", "efr", "-i", str(bad), "-o", out]) == 3

    def test_format_2_instance_is_input_error(self, tmp_path, capsys, inst_file):
        # format 2 is a certificate format; instance files stay at 1
        doc = json.loads(inst_file.read_text())
        doc["format_version"] = 2
        bad = tmp_path / "v2.json"
        bad.write_text(json.dumps(doc))
        out = str(tmp_path / "out.json")
        capsys.readouterr()
        assert run(["solve", "--algo", "efr", "-i", str(bad), "-o", out]) == 3
        assert capsys.readouterr().err == (
            "input error: format_version: unsupported version 2\n"
        )

    # a command per file reader: (its argv, the flag of the file under test,
    # that file's JSON with %s for one value)
    READERS = {
        "instance": (
            ["solve", "--algo", "efr", "-o", "out.json"], "-i",
            '{"format_version": 1, "agents": 1, "items": 1, "values": [%s]}',
        ),
        "allocation-check-po": (
            ["check-po", "-i", "inst.json"], "--alloc", '{"bundles": [%s]}',
        ),
        "allocation-decide-efr": (
            ["decide-efr", "--k", "1", "-i", "inst.json"], "--alloc",
            '{"bundles": [%s]}',
        ),
        "certificate": (
            ["verify", "-i", "inst.json"], "--cert",
            '{"base": [%s], "realloc_set": [], "witnesses": []}',
        ),
        "certificate-2": (
            ["verify", "-i", "inst.json"], "--cert",
            '{"format_version": 2, "base": [%s], "realloc_set": [],'
            ' "witness_owners": []}',
        ),
    }
    # the int-to-str digit limit, 0 where this Python has none
    DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    def run_reader(self, reader, value, tmp_path, monkeypatch):
        argv, flag, text = self.READERS[reader]
        (tmp_path / "bad.json").write_text(text % value)
        monkeypatch.chdir(tmp_path)
        return run([*argv, flag, "bad.json"])

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_deep_nesting_is_input_error(
        self, tmp_path, capsys, monkeypatch, inst_file, reader
    ):
        deep = "[" * 3000 + "]" * 3000
        assert self.run_reader(reader, deep, tmp_path, monkeypatch) == 3
        assert capsys.readouterr().err == (
            "input error: top level: arrays or objects nested too deeply\n"
        )

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-to-str digit limit")
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_integer_over_the_digit_limit_is_input_error(
        self, tmp_path, capsys, monkeypatch, inst_file, reader
    ):
        huge = "9" * (self.DIGIT_LIMIT + 1)
        assert self.run_reader(reader, huge, tmp_path, monkeypatch) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: top level: ")
        assert str(self.DIGIT_LIMIT) in err and "Traceback" not in err

    # values a message may echo: 400 nested lists, well under the
    # decoder's nesting limit, and a 5,000-character string
    DEEP = "[" * 400 + "]" * 400
    LONG = '"' + "x" * 5000 + '"'
    BASE = "[[1, 2, 3, 4, 5], [], []]"  # a partition for `inst_file`

    @pytest.mark.parametrize("value", [DEEP, LONG], ids=["deep", "long"])
    @pytest.mark.parametrize(
        "argv, flag, text, field",
        [
            (
                ["solve", "--algo", "efr", "-o", "out.json"], "-i",
                '{"format_version": 1, "agents": 1, "items": 1,'
                ' "values": [[%s]]}',
                "values[0][0]",
            ),
            (
                ["solve", "--algo", "efr", "-o", "out.json"], "-i",
                '{"format_version": %s, "agents": 1, "items": 1,'
                ' "values": [[1]]}',
                "format_version",
            ),
            (
                ["check-po", "-i", "inst.json"], "--alloc",
                '{"bundles": [%s, [1, 2, 3, 4, 5], []]}', "bundles[0]",
            ),
            (
                ["verify", "-i", "inst.json"], "--cert",
                '{"base": %s, "realloc_set": [%%s], "witnesses": []}' % BASE,
                "realloc_set",
            ),
            (
                ["verify", "-i", "inst.json"], "--cert",
                '{"base": %s, "realloc_set": [],'
                ' "witnesses": [[[1, 2, 3, 4, 5], [%%s], []]]}' % BASE,
                "witnesses[0][1]",
            ),
            (
                ["verify", "-i", "inst.json"], "--cert",
                '{"format_version": 2, "base": %s, "realloc_set": [1],'
                ' "witness_owners": [[%%s], [1], [1]]}' % BASE,
                "witness_owners[0]",
            ),
        ],
        ids=["value", "format-version", "bundle", "realloc-item", "witness-item",
             "owner-id"],
    )
    def test_echoed_value_is_cut_short(
        self, tmp_path, capsys, monkeypatch, inst_file, argv, flag, text,
        field, value,
    ):
        (tmp_path / "bad.json").write_text(text % value)
        monkeypatch.chdir(tmp_path)
        assert run([*argv, flag, "bad.json"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {field}: ")
        assert len(err) < 100, err

    @pytest.mark.parametrize(
        "agents, items, message",
        [
            (0, 0, "agents: expected a positive integer"),
            (-1, 1, "agents: expected a positive integer"),
            (1, -1, "items: expected a non-negative integer"),
        ],
    )
    def test_agent_and_item_counts_name_their_field(
        self, tmp_path, capsys, agents, items, message
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"format_version": 1, "agents": agents, "items": items,
                 "values": []}
            )
        )
        out = str(tmp_path / "o.json")
        assert run(["solve", "--algo", "efr", "-i", str(bad), "-o", out]) == 3
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_usage_error_maps_to_input_error(self):
        assert run(["solve", "--algo", "efr"]) == 3
        assert run(["bogus"]) == 3

    def test_unexpected_exception_is_internal_error(
        self, tmp_path, capsys, monkeypatch, inst_file
    ):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_perturb", broken)
        out = str(tmp_path / "pert.json")
        assert run(["perturb", "-i", str(inst_file), "-o", out]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"


class TestDeterminism:
    def test_all_commands_byte_identical_on_rerun(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        for base in (first, second):
            inst = base / "inst.json"
            run(
                [
                    "gen", "--family", "random", "--n", "3", "--m", "5",
                    "--seed", "17", "-o", str(inst),
                ]
            )
            for algo in ("ef1", "efr"):
                run(
                    [
                        "solve", "--algo", algo, "-i", str(inst),
                        "-o", str(base / f"{algo}.json"),
                    ]
                )
            run(["perturb", "-i", str(inst), "-o", str(base / "pert.json")])
        for name in ("inst.json", "ef1.json", "efr.json", "pert.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
