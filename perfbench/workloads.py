"""The benchmark's workloads: their inputs, ops and correctness checks.

An op is one call into kstab, timed alone.  It fails when it raises or
when its check misses.  A check names a miss either ``reported`` (the
program itself flagged it: a failed verdict, a non-zero exit code, a
blow-up mismatch) or ``silent`` (the program claimed success and the
independent check disagrees).  Only silent misses make a run incorrect;
every failed op lands in the ledger with its type and message.

Every workload runs in whole rounds.  ``round_s`` is the nominal length
of one round on a 2-core Xeon sandbox; ``--seconds`` buys that many
rounds.  Inputs for a round are built before its ops start, outside op
time.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import gen

SANDWICH_SLACK = 1e-9


class Miss(Exception):
    """A correctness check that did not hold.

    ``kind`` names a failure the program reported itself; a miss without
    one is silent: the program claimed success and was wrong.
    """

    def __init__(self, message: str, kind: str | None = None):
        super().__init__(message)
        self.kind = kind


def _first_line(text: str) -> str:
    lines = str(text).strip().splitlines()
    return lines[0] if lines else ""


class Run:
    """Closed-loop op runner with the failure ledger for one workload."""

    def __init__(self, workload: str, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.op_wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.silent = 0
        self.ledger = []
        self.op_log = []
        self.err_over_tol = []
        self.err_over_residual = []

    def op(self, name: str, call, check):
        """Time ``call()``, then run ``check(result)`` outside the timer."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.phase = "ops"
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an op failure is data: ledger it, go on
            self._log(name, time.perf_counter() - t0)
            self._fail(name, type(exc).__name__, str(exc))
            return None
        finally:
            if self.tracer is not None:
                self.tracer.phase = "setup"
        self._log(name, time.perf_counter() - t0)
        try:
            check(result)
        except Miss as miss:
            self.silent += miss.kind is None
            self._fail(name, miss.kind or "CheckMiss", str(miss))
        except Exception as exc:  # output the check cannot read is wrong
            self.silent += 1
            self._fail(name, "CheckMiss", f"{type(exc).__name__}: {exc}")
        return result

    def _log(self, name, seconds):
        self.op_wall += seconds
        self.op_log.append((name, seconds))

    def _fail(self, name, kind, message):
        self.failed += 1
        self.ledger.append({"workload": self.workload, "op": name,
                            "type": kind, "message": _first_line(message)})

    def accuracy(self, slope, exact, tol, residual, reference: bool):
        err = abs(slope - exact)
        if reference:
            self.err_over_tol.append(err / (tol * (1.0 + abs(exact))))
        if residual > 0:
            self.err_over_residual.append(err / residual)


def check_sandwich(rows, n: int):
    """Criterion 7: I, J >= 0 and J/n <= I - J <= n J on every row."""
    for i_val, j_val in rows:
        ok = (j_val >= -SANDWICH_SLACK and i_val >= -SANDWICH_SLACK
              and j_val / n - SANDWICH_SLACK <= i_val - j_val
              <= n * j_val + SANDWICH_SLACK)
        if not ok:
            raise Miss(f"I/J sandwich broken: I={i_val!r} J={j_val!r}")


def check_verdict(slope, exact, tol, passed: bool):
    """The program's pass flag must match the recomputed tolerance test."""
    within = abs(slope - exact) <= tol * (1.0 + abs(exact))
    if within != passed:
        raise Miss(f"verdict says pass={passed} but |slope - exact| = "
                   f"{abs(slope - exact):.3g} against tol {tol:g}")
    if not passed:
        raise Miss(f"slope {slope:.6g} misses exact {exact:.6g}",
                   "VerdictFailed")


# -- exact --------------------------------------------------------------------


class Exact:
    """Seeded configurations through the exact invariant layer.

    ``search_s`` is the time spent finding the first round's specs; it is
    benchmark work, so it is left out of the set-up time.
    """

    name = "exact"
    round_s = 7.5

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        t0 = time.perf_counter()
        specs = gen.exact_round(self.rng)
        self.search_s = time.perf_counter() - t0
        self.inputs = []
        self.pending = self._build(specs)

    def _build(self, specs):
        items = [gen.build_exact(spec) for spec in specs]
        self.inputs.extend(item["record"] for item in items)
        return items

    def run_round(self, run: Run):
        import kstab
        items = self.pending or self._build(gen.exact_round(self.rng))
        self.pending = None
        for item in items:
            self._config_ops(run, item, kstab)

    def _config_ops(self, run: Run, item, kstab):
        cfg, mz, az = item["cfg"], item["min_zero"], item["average_zero"]
        name = item["name"]
        facts = {}

        def check_report(rep):
            if {rep.provenance[k] for k in ("df", "minimum_norm")} != \
                    {"both_agree"}:
                raise Miss(f"routes not cross-checked: {rep.provenance}")
            if rep.minimum_norm < 0 or (rep.minimum_norm == 0) != cfg.trivial:
                raise Miss(f"minimum norm {rep.minimum_norm} on a "
                           f"{'trivial' if cfg.trivial else 'nontrivial'} "
                           "configuration")
            facts["norm"] = rep.minimum_norm

        def norm():
            if "norm" not in facts:
                facts["norm"] = kstab.minimum_norm(mz)
            return facts["norm"]

        def check_weights(weights):
            facts["weights"] = weights
            if (max(weights) > 0) != (norm() > 0):
                raise Miss(f"destabilizer dichotomy broken: max weight "
                           f"{max(weights)}, norm {norm()}")

        def check_scan(scan):
            weights = facts.get("weights") or [
                kstab.chow_weight(az, v) for v in cfg.base.vertices]
            if scan.destabilizing != (norm() > 0) or \
                    scan.best.value != max(weights):
                raise Miss(f"scan best {scan.best.value} destabilizing "
                           f"{scan.destabilizing}, norm {norm()}")

        def check_blowup(rep):
            n = cfg.dim
            expect = -n * (n - 1) * kstab.chow_weight(mz, item["vertex"])
            if rep.reference_coefficient != expect:
                raise Miss(f"reference coefficient {rep.reference_coefficient}"
                           f" != {expect}")
            if rep.matches != (rep.fitted_coefficient == expect):
                raise Miss("matches flag disagrees with the coefficients")
            if not rep.matches:
                raise Miss(f"fitted {rep.fitted_coefficient} != "
                           f"reference {expect}", "BlowupMismatch")

        run.op(f"{name}:invariant_report",
               lambda: kstab.invariant_report(mz), check_report)
        run.op(f"{name}:chow_weight",
               lambda: [kstab.chow_weight(az, v) for v in cfg.base.vertices],
               check_weights)
        run.op(f"{name}:scan_destabilizer",
               lambda: kstab.scan_destabilizer(cfg), check_scan)
        run.op(f"{name}:blowup_expansion",
               lambda: kstab.blowup_expansion(mz, item["vertex"],
                                              item["epsilons"]),
               check_blowup)


# -- ray1d --------------------------------------------------------------------


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-finite number {token} in report.json")
    return json.loads(text, parse_constant=refuse)


class _ErrorObserver:
    """Remembers the last exception raised through the CLI's imports.

    The CLI turns typed numerical failures into exit code 4 and a line
    on stderr; this keeps the exception type for the ledger.
    """

    NAMES = ("verify_theorem", "l1_norm_path", "invariant_report",
             "blowup_expansion", "scan_destabilizer")

    def __init__(self):
        import kstab.cli
        self.last = None
        for attr in self.NAMES:
            setattr(kstab.cli, attr, self._watch(getattr(kstab.cli, attr)))

    def _watch(self, fn):
        def watched(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.last = exc
                raise
        return watched


class Ray1D:
    """1D verdicts through the CLI, one task per generated scenario file."""

    name = "ray1d"
    round_s = 17.0
    search_s = 0.0
    L1_EXACT = 0.25   # n! * integral of |x - 1/2| over [0, 1]
    L1_TOL = 1e-3

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.scenarios = workdir / "scenarios"
        self.scenarios.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        self.reference = []
        for name, pieces, blob in gen.ray1d_reference():
            self._validate(pieces)
            self.reference.append((name, self._write(name, blob)))
        self.round = 1
        self.pending = self._seeded()
        self.observer = _ErrorObserver()

    def _validate(self, pieces):
        """Build the config (every piece must be active) and record it."""
        import kstab
        cfg = kstab.make_config(kstab.interval(0, 1), pieces)
        self.inputs.append(gen.describe(cfg))

    def _write(self, name: str, blob: dict) -> Path:
        path = self.scenarios / f"{name}.json"
        path.write_text(json.dumps(blob, indent=1), encoding="utf-8")
        return path

    def _seeded(self):
        """Scenario files for one round of seeded rays (DF and MINNORM)."""
        ops = []
        for ray in gen.ray1d_round(self.rng):
            self._validate(ray["pieces"])
            for theorem in ("DF", "MINNORM"):
                name = f"seeded{self.round}-{ray['name']}-{theorem}"
                blob = gen.scenario(name, gen.UNIT_INTERVAL, ray["pieces"],
                                    {"kind": "slopes", "theorems": [theorem]})
                ops.append((name, self._write(name, blob)))
        return ops

    def run_round(self, run: Run):
        import kstab.cli
        seeded = self.pending or self._seeded()
        self.pending = None
        for name, path in self.reference:
            self._cli_op(run, kstab.cli, name, path, reference=True)
        for name, path in seeded:
            self._cli_op(run, kstab.cli, name, path, reference=False)
        self.round += 1

    def _cli_op(self, run: Run, cli, name: str, path: Path, reference: bool):
        out_dir = self.workdir / "out" / f"{self.round}-{name}"
        sink = io.StringIO()
        self.observer.last = None

        def call():
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                return cli.run_scenario(path, out_dir=out_dir)

        def check(code):
            report_path = out_dir / "report.json"
            report = None
            if report_path.exists():
                try:
                    report = _strict_json(report_path.read_text("utf-8"))
                except ValueError as exc:
                    raise Miss(f"report.json is not strict JSON: {exc}")
            if code == cli.EXIT_NUMERIC and self.observer.last is not None:
                exc = self.observer.last
                raise Miss(str(exc), type(exc).__name__)
            if code not in (cli.EXIT_PASS, cli.EXIT_VERDICT_FAIL):
                raise Miss(_first_line(sink.getvalue()) or
                           f"exit code {code}", f"Exit{code}")
            if report is None:
                raise Miss("no report.json after a finished run")
            if (code == cli.EXIT_PASS) != report["pass"]:
                raise Miss(f"exit code {code} but report pass "
                           f"{report['pass']}")
            (task,) = report["tasks"]
            if task["kind"] == "l1":
                self._check_l1(task, reference, run)
            else:
                self._check_slopes(task, out_dir, reference, run)

        run.op(name, call, check)

    def _check_l1(self, task, reference, run):
        limit, length = task["limit"], task["length"]
        if limit is None or length is None or length <= 0:
            raise Miss(f"l1 limit {limit} length {length}")
        run.accuracy(limit, self.L1_EXACT, self.L1_TOL, 0.0, reference)
        if abs(limit - self.L1_EXACT) > self.L1_TOL * (1 + self.L1_EXACT):
            raise Miss(f"l1 limit {limit} against exact {self.L1_EXACT}")

    def _check_slopes(self, task, out_dir, reference, run):
        (verdict,) = task["verdicts"]
        exact = float(Fraction(verdict["exact"]))
        slope, tol = verdict["slope"], verdict["tol"]
        run.accuracy(slope, exact, tol, verdict["residual"], reference)
        if verdict["theorem"] != "POINT":
            rows = []
            csv_path = out_dir / verdict["trace_csv"]
            lines = csv_path.read_text("utf-8").splitlines()
            header = lines[0].split(",")
            i_col, j_col = header.index("I"), header.index("J")
            for line in lines[1:]:
                cells = line.split(",")
                rows.append((float(cells[i_col]), float(cells[j_col])))
            check_sandwich(rows, 1)
        check_verdict(slope, exact, tol, verdict["pass"])


# -- ray2d --------------------------------------------------------------------


class Ray2D:
    """2D rays: the first DF rung on the square and the simplex MINNORM."""

    name = "ray2d"
    round_s = 60.0
    DF_TOL = 1e-2     # affine-tier DF tolerance of verify_theorem
    search_s = 0.0

    def __init__(self, seed: int, workdir: Path):
        from fractions import Fraction as F
        import kstab
        self.square = kstab.normalize(
            kstab.make_config(kstab.box(2), [((F(1), F(0)), F(0))]),
            "min_zero")
        self.simplex = kstab.make_config(kstab.unit_simplex(2),
                                         [((F(1), F(0)), F(0))])
        self.square_df = float(kstab.donaldson_futaki(self.square))
        self.inputs = [gen.describe(self.square), gen.describe(self.simplex)]

    def run_round(self, run: Run):
        import kstab
        from kstab.functionals import ROUTE_TOL
        from kstab.slopes import Schedule

        def first_rung():
            schedule = Schedule()
            ray = kstab.Ray(self.square, beta=schedule.beta0,
                            tau_max=max(schedule.taus))
            state = ray.state(1.0)
            return kstab.energy_report(state), kstab.mabuchi(state)

        def check_rung(result):
            rep, mab = result
            check_sandwich([(rep.i_val, rep.j_val)], 2)
            gap = abs(mab.route_a - mab.route_b)
            if gap > ROUTE_TOL * (1.0 + abs(mab.route_a)):
                raise Miss(f"Mabuchi routes differ by {gap:.3g}")
            run.accuracy(mab.value, self.square_df, self.DF_TOL, 0.0, True)
            if abs(mab.value - self.square_df) > \
                    self.DF_TOL * (1.0 + abs(self.square_df)):
                raise Miss(f"M(1) = {mab.value:.6g}, exact {self.square_df}")

        def check_minnorm(verdict):
            check_sandwich([(row[2], row[3]) for row in verdict.energies], 2)
            exact = float(verdict.exact)
            run.accuracy(verdict.slope, exact, verdict.tol, verdict.residual,
                         reference=True)
            check_verdict(verdict.slope, exact, verdict.tol, verdict.passed)

        run.op("square-DF-rung1", first_rung, check_rung)
        run.op("simplex-MINNORM",
               lambda: kstab.verify_theorem(self.simplex, "MINNORM"),
               check_minnorm)


WORKLOADS = {w.name: w for w in (Exact, Ray1D, Ray2D)}
