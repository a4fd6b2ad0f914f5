"""The four benchmark workloads.

Each workload generates its inputs (`generate`, timed as set-up; the workload
seed draws the inputs that are not pinned in workloads.json), derives what its
operations and output checks need (`ops`, untimed) and returns a fixed list of
operations, in an order that may also depend on the seed.  An operation's `run` is
timed; its `check` runs afterwards, outside the timed region, and raises
CheckFailed when the output is wrong.

Operations call mannafair through module attributes looked up at call time,
so that spans.Tracer sees them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

from mannafair import algorithms, cli, core, fixed_n, harness, oracles, welfare
from mannafair.core import Allocation

VALUE_RANGE = 9
MIXED = Fraction(1, 2)
HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """An operation returned a wrong output or exit code."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


class Workload:
    """Inputs from one workload seed, and the operations over them."""

    uses_children = False  # True when the operations run as child processes
    calibration = "kernel"  # the run.CALIBRATIONS entry that tracks its ops' speed

    def __init__(self, spec, seed):
        self.spec, self.seed = spec, seed

    def generate(self):
        """Build the inputs; timed as set-up."""
        raise NotImplementedError

    def ops(self):
        """Derive untimed inputs and expected outputs; return the operations."""
        raise NotImplementedError

    def close(self):
        pass


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def inproc(name, fn, check):
    """An operation that calls mannafair in this process."""

    def run(tracer):
        if tracer is None:
            return fn()
        with tracer.installed():
            return fn()

    return Op(name, run, check)


def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _check_certificate(inst, cert, bound):
    expect(core.validate_certificate(inst, cert), "certificate invalid")
    size = len(cert.realloc_set)
    expect(size <= bound, f"|R|={size} exceeds {bound}")


# --- poly-large ----------------------------------------------------------------


class PolyLarge(Workload):
    """The polynomial pipeline on mixed and goods-only instances up to m=700."""

    def generate(self):
        self.instances = [
            (s["name"], s["ops"], harness.gen_random(
                s["n"], s["m"], VALUE_RANGE, Fraction(s["chore_prob"]), s["seed"]
            ))
            for s in self.spec["instances"]
        ]

    def ops(self):
        build = {
            "efr": self._efr, "goods": self._goods, "goods-rr": self._goods_rr,
            "ttc": self._ttc,
        }
        ops = [
            build[kind](name, inst)
            for name, kinds, inst in self.instances
            for kind in kinds
        ]
        _rng("poly-large", self.seed).shuffle(ops)
        return ops

    @staticmethod
    def _efr(name, inst):
        def fn():
            cert = algorithms.efr_n_minus_1(inst)
            text = harness.serialize_certificate(cert)
            back = harness.parse_certificate(text, inst)
            return (
                cert, back,
                core.validate_certificate(inst, back), core.is_ef1(inst, back.base),
            )

        def check(result):
            cert, back, valid, ef1 = result
            expect(back == cert, "certificate round trip differs")
            expect(valid, "certificate invalid")
            expect(ef1, "base is not EF1")
            size, n = len(cert.realloc_set), inst.num_agents
            expect(size <= n - 1, f"|R|={size} exceeds n-1")

        return inproc(f"efr {name}", fn, check)

    @staticmethod
    def _goods(name, inst):
        def fn():
            cert = algorithms.conflict_aware_picking(inst)
            text = harness.serialize_certificate(cert)
            back = harness.parse_certificate(text, inst)
            return cert, back, core.validate_certificate(inst, back)

        def check(result):
            cert, back, valid = result
            expect(back == cert, "certificate round trip differs")
            expect(valid, "certificate invalid")
            size, n = len(cert.realloc_set), inst.num_agents
            expect(size <= n // 2, f"|R|={size} exceeds n/2")

        return inproc(f"goods {name}", fn, check)

    @staticmethod
    def _goods_rr(name, inst):
        def fn():
            partial, reserved, _ = algorithms.run_picking_rounds(inst)
            alloc = algorithms.extend_with_round_robin(inst, partial, reserved)
            return reserved, alloc, core.is_ef1(inst, alloc)

        def check(result):
            reserved, alloc, ef1 = result
            core.validate_allocation(inst, alloc)
            expect(ef1, "allocation is not EF1")
            size, n = len(reserved), inst.num_agents
            expect(size <= n // 2, f"|R|={size} exceeds n/2")

        return inproc(f"goods-rr {name}", fn, check)

    @staticmethod
    def _ttc(name, inst):
        drr = algorithms.double_round_robin_ef1(inst).bundles
        shifted = Allocation(drr[1:] + drr[:1])
        if core.build_envy_graph(inst, shifted).sinks():
            raise RuntimeError("shifted input already has a sink")

        def fn():
            return algorithms.resolve_top_trading_cycles(inst, shifted)

        def check(alloc):
            expect(
                core.build_envy_graph(inst, alloc).sinks(),
                "no agent is envy-free",
            )

        return inproc(f"ttc {name}", fn, check)


# --- fixed-n-search ------------------------------------------------------------


class FixedNSearch(Workload):
    """search_efr_po on pinned instances, including the known slow seeds."""

    def generate(self):
        self.instances = [
            (f"n{s['n']}m{s['m']}s{s['seed']}",
             harness.gen_random(s["n"], s["m"], VALUE_RANGE, MIXED, s["seed"]))
            for s in self.spec["instances"]
        ]

    def ops(self):
        ops = [self._search(name, inst) for name, inst in self.instances]
        _rng("fixed-n-search", self.seed).shuffle(ops)
        return ops

    @staticmethod
    def _search(name, inst):
        def fn():
            return fixed_n.search_efr_po(inst)

        def check(result):
            alloc, cert, weights = result
            n = inst.num_agents
            expect(cert.base == alloc, "certificate base differs")
            _check_certificate(inst, cert, n - 1)
            expect(sum(weights.weights) == 1, "weights do not sum to 1")
            expect(
                oracles.is_pareto_optimal_bruteforce(inst, alloc),
                "allocation is not Pareto optimal",
            )

        return inproc(f"search {name}", fn, check)


# --- oracle-audit --------------------------------------------------------------


class OracleAudit(Workload):
    """Brute-force oracles and the n>3 perturbation."""

    def generate(self):
        spec = self.spec

        def gen(s, seed=None):
            return harness.gen_random(
                s["n"], s["m"], VALUE_RANGE, MIXED, s["seed"] if seed is None else seed
            )

        self.po = [(s, gen(s)) for s in spec["po_instances"]]
        self.partitions = [
            (values, harness.gen_partition_reduction(values))
            for values in spec["partition_sets"]
        ]
        rng = _rng("oracle-audit", self.seed)
        s = spec["min_efr_instance"]
        inst = gen(s, rng.randrange(2**31))
        self.min_efr = []
        for _ in range(s["allocations"]):
            owner = [rng.randrange(s["n"]) for _ in range(s["m"])]
            alloc = Allocation(
                tuple(
                    frozenset(t for t in range(s["m"]) if owner[t] == i)
                    for i in range(s["n"])
                )
            )
            self.min_efr.append((inst, alloc))
        self.perturb = [(s, gen(s)) for s in spec["perturb_instances"]]

    def ops(self):
        ops = [self._po(*x) for x in self.po]
        ops += [self._decide(values, *red) for values, red in self.partitions]
        ops += [self._min_efr(i, *x) for i, x in enumerate(self.min_efr)]
        ops += [self._perturb(*x) for x in self.perturb]
        _rng("oracle-audit/order", self.seed).shuffle(ops)
        return ops

    @staticmethod
    def _po(s, inst):
        n = inst.num_agents
        uniform = welfare.WeightVector(tuple(Fraction(1, n) for _ in range(n)))
        alloc = welfare.max_weighted_welfare(
            welfare.perturb_nondegenerate(inst), uniform
        )
        name = f"po n{n}m{inst.num_items}s{s['seed']}"

        def fn():
            return oracles.is_pareto_optimal_bruteforce(inst, alloc)

        def check(result):
            expect(result is True, "welfare maximizer reported dominated")

        return inproc(name, fn, check)

    @staticmethod
    def _decide(values, inst, alloc, k):
        name = "decide " + ",".join(map(str, values))

        def fn():
            return oracles.decide_efr_k(inst, alloc, k), oracles.solve_partition(values)

        def check(result):
            decision, subset = result
            expect(
                decision.verdict == (subset is not None),
                f"verdict {decision.verdict} disagrees with Partition",
            )
            if subset is not None:
                expect(
                    2 * sum(values[i] for i in subset) == sum(values),
                    "Partition subset is not a half-sum",
                )
            if decision.verdict:
                _check_certificate(inst, decision.certificate, k)

        return inproc(name, fn, check)

    @staticmethod
    def _min_efr(index, inst, alloc):
        name = f"min-efr n{inst.num_agents}m{inst.num_items} #{index}"

        def fn():
            return oracles.min_efr_k(inst, alloc)

        def check(result):
            k, cert = result
            expect(cert.base == alloc, "certificate base differs")
            _check_certificate(inst, cert, k)
            expect(len(cert.realloc_set) == k, f"|R| differs from k={k}")

        return inproc(name, fn, check)

    @staticmethod
    def _perturb(s, inst):
        timed_check = s["timed_check"]
        kind = "perturb+check" if timed_check else "perturb"
        name = f"{kind} n{s['n']}m{s['m']}s{s['seed']}"
        verified = []  # the first output, once check_nondegenerate passed it

        def fn():
            pert = welfare.perturb_nondegenerate(inst)
            ok = welfare.check_nondegenerate(pert.pert_values) if timed_check else None
            return pert, ok

        def check(result):
            pert, ok = result
            expect(pert.base == inst, "perturbed base differs")
            if timed_check:
                expect(ok is True, "perturbed matrix is degenerate")
            elif verified:  # the perturbation is deterministic
                expect(pert == verified[0], "repeated perturbation differs")
            else:
                expect(
                    welfare.check_nondegenerate(pert.pert_values) is True,
                    "perturbed matrix is degenerate",
                )
                verified.append(pert)

        return inproc(name, fn, check)


# --- cli-mix -------------------------------------------------------------------


class CliMix(Workload):
    """Every CLI subcommand as its own process, one at a time."""

    uses_children = True
    calibration = "interpreter"

    def __init__(self, spec, seed, workdir, env):
        super().__init__(spec, seed)
        self.dir, self.env = workdir, env
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:  # not empty: another run is using it
            pass

    def path(self, name):
        return os.path.join(self.dir, name)

    def _write(self, name, text):
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def generate(self):
        spec = self.spec
        rng = _rng("cli-mix", self.seed)
        n, m = spec["solve_n"], spec["solve_m"]
        self.mixed_seed, self.goods_seed = rng.randrange(2**31), rng.randrange(2**31)
        self.mixed = harness.gen_random(n, m, VALUE_RANGE, MIXED, self.mixed_seed)
        self.goods = harness.gen_random(n, m, VALUE_RANGE, Fraction(0), self.goods_seed)
        s = spec["small_instance"]
        self.small = harness.gen_random(s["n"], s["m"], VALUE_RANGE, MIXED, s["seed"])
        self.part, self.part_alloc, _ = harness.gen_partition_reduction(
            spec["partition_set"]
        )
        self.efr_cert = algorithms.efr_n_minus_1(self.mixed)
        self.small_alloc = algorithms.double_round_robin_ef1(self.small)
        self._write("mixed.json", harness.serialize_instance(self.mixed))
        self._write("goods.json", harness.serialize_instance(self.goods))
        self._write("small.json", harness.serialize_instance(self.small))
        self._write("part.json", harness.serialize_instance(self.part))
        self._write("part_alloc.json", harness.serialize_allocation(self.part_alloc))
        self._write("efr_cert.json", harness.serialize_certificate(self.efr_cert))
        self._write("small_alloc.json", harness.serialize_allocation(self.small_alloc))

    def ops(self):
        spec, p = self.spec, self.path
        n, m = spec["solve_n"], spec["solve_m"]
        part_set = ",".join(map(str, spec["partition_set"]))
        ok, false = cli.EXIT_OK, cli.EXIT_FALSE  # the documented exit codes

        def solve(algo, inst_name, inst, extra=()):
            out = f"out/solve-{algo}{''.join(extra)}.json"
            argv = ["solve", "--algo", algo, *extra, "-i", p(inst_name), "-o", p(out)]
            return argv, out

        def cert_check(inst, bound, ef1=False, po=False):
            def check(text, stdout):
                cert = harness.parse_certificate(text, inst)
                _check_certificate(inst, cert, bound)
                if ef1:
                    expect(core.is_ef1(inst, cert.base), "base is not EF1")
                if po:
                    expect(
                        oracles.is_pareto_optimal_bruteforce(inst, cert.base),
                        "base is not Pareto optimal",
                    )
            return check

        def ef1_check(text, stdout):
            alloc = harness.parse_allocation(text, self.mixed)
            core.validate_allocation(self.mixed, alloc)
            expect(core.is_ef1(self.mixed, alloc), "allocation is not EF1")

        def same_instance(expected):
            def check(text, stdout):
                expect(harness.parse_instance(text) == expected, "instance differs")
            return check

        def nondegenerate(text, stdout):
            pert = harness.parse_perturbed(text)
            expect(pert.base == self.small, "perturbed base differs")
            expect(welfare.check_nondegenerate(pert.pert_values), "degenerate")

        def says(word):
            def check(text, stdout):
                expect(stdout == word + "\n", f"printed {stdout!r}, expected {word!r}")
            return check

        valid = core.validate_certificate(self.mixed, self.efr_cert)
        decided = oracles.decide_efr_k(self.part, self.part_alloc, 2).verdict
        po = oracles.is_pareto_optimal_bruteforce(self.small, self.small_alloc)
        commands = [
            ("gen-random",
             ["gen", "--family", "random", "--n", str(n), "--m", str(m),
              "--seed", str(self.mixed_seed), "-o", p("out/gen-random.json")],
             "out/gen-random.json", ok, same_instance(self.mixed)),
            ("gen-partition",
             ["gen", "--family", "partition", "--set", part_set,
              "--alloc-out", p("out/gen-part-alloc.json"), "-o", p("out/gen-part.json")],
             "out/gen-part.json", ok, same_instance(self.part)),
            ("solve-ef1", *solve("ef1", "mixed.json", self.mixed), ok, ef1_check),
            ("solve-efr", *solve("efr", "mixed.json", self.mixed), ok,
             cert_check(self.mixed, n - 1, ef1=True)),
            ("solve-goods", *solve("goods", "goods.json", self.goods), ok,
             cert_check(self.goods, n // 2)),
            ("solve-goods-rr",
             *solve("goods", "goods.json", self.goods, ("--extend-round-robin",)),
             ok, cert_check(self.goods, n // 2, ef1=True)),
            ("solve-fixed-n", *solve("fixed-n", "small.json", self.small), ok,
             cert_check(self.small, self.small.num_agents - 1, po=True)),
            ("verify",
             ["verify", "--cert", p("efr_cert.json"), "-i", p("mixed.json")],
             None, ok if valid else false, says("valid" if valid else "invalid")),
            ("decide-efr",
             ["decide-efr", "--k", "2", "-i", p("part.json"), "--alloc", p("part_alloc.json")],
             None, ok if decided else false, says("true" if decided else "false")),
            ("check-po",
             ["check-po", "-i", p("small.json"), "--alloc", p("small_alloc.json")],
             None, ok if po else false,
             says("pareto-optimal" if po else "dominated")),
            ("perturb",
             ["perturb", "-i", p("small.json"), "-o", p("out/perturb.json")],
             "out/perturb.json", ok, nondegenerate),
        ]
        return [self._command(*c) for c in commands]

    def _command(self, name, argv, out, code, check_output):
        first = []  # (exit code, stdout, output text) of the first run

        def run(tracer):
            stats = self.path(f"stats-{name}.json")
            if tracer is None:
                cmd = [sys.executable, "-m", "mannafair.cli", *argv]
            else:
                cmd = [sys.executable, os.path.join(HERE, "launch.py"), stats, *argv]
            proc = subprocess.run(
                cmd, cwd=self.dir, env=self.env, capture_output=True, text=True,
                timeout=120,
            )
            if tracer is not None and os.path.exists(stats):
                with open(stats, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh))
                os.remove(stats)
            return proc

        def check(proc):
            expect(
                proc.returncode == code,
                f"exit {proc.returncode}, expected {code}: {proc.stderr.strip()}",
            )
            text = None
            if out is not None:
                with open(self.path(out), encoding="utf-8") as fh:
                    text = fh.read()
                os.remove(self.path(out))  # a later run must write it again
            seen = (proc.returncode, proc.stdout, text)
            if first:
                expect(seen == first[0], "repeated run wrote different output")
                return
            check_output(text, proc.stdout)
            first.append(seen)

        return Op(name, run, check)


def make(name, spec, seed, root, env):
    """The workload `name` for `seed`; cli-mix works under `root`."""
    if name == "poly-large":
        return PolyLarge(spec, seed)
    if name == "fixed-n-search":
        return FixedNSearch(spec, seed)
    if name == "oracle-audit":
        return OracleAudit(spec, seed)
    if name == "cli-mix":
        workdir = os.path.join(root, ".perfbench_work", f"cli-mix-{os.getpid()}")
        return CliMix(spec, seed, workdir, env)
    raise ValueError(f"unknown workload {name!r}")
