#!/usr/bin/env python3
"""romkit benchmark: offline build, certified online queries and validation.

Run from the repository root:

    python3 perfbench/run.py --workload greedy_n128 --seed 1 \
        --seconds 15 --trace 0

The benchmark is closed-loop with a single client: it calls the public CLI
(``romkit.cli.main``) and the public library in-process, one call after the
other. Every run, whatever the workload, goes through the same stages so
that it can report every end-to-end metric in ``BENCHMARK.json``:

1. set-up, repeated and reported as a median: build the reference archive
   (greedy, n=32, mu in [0.1, 10]^4, train 500, romkit seed 7);
2. offline: the workload's own ``romkit offline`` build, if it has one
   (romkit seed drawn from ``--seed``);
3. reload: every payload of the workload's archive, checksums verified;
4. audit: ``romkit validate`` of the reference archive on a fixed sample set
   (romkit seed 11), so that audited and violation counts compare commits
   rather than samples;
5. sweep: ``romkit sweep`` of the reference archive over a tensor grid;
6. queries: rounds of one ``romkit online`` command followed by
   ``certify.certificate`` calls, on the reference archive at parameters
   drawn from ``--seed``, until ``--seconds`` have passed since stage 2
   began and at least a minimum number of rounds ran;
7. probe: a tiny POD build that records a known defect (untimed).

The online stages use the reference archive everywhere, so their cost does
not follow the basis size of a seed-dependent build. The workload decides
the offline build and the size of each stage. Every output is checked; a
failed check marks its operation failed and is never retried. The last
line of stdout is one JSON object; the lines before it record the
environment, the notes and the gate outcomes. With ``--trace 1`` the
per-layer metrics of tracing.py are reported instead of the end-to-end
ones; the trace covers the last set-up build and stages 2 to 7.
"""

from __future__ import annotations

import os

# pin threads before numpy loads BLAS: one BLAS thread per worker and one
# worker per processor, so threads never exceed the processor count
NPROC = len(os.sched_getaffinity(0))
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "ROMKIT_THREADS": str(NPROC)})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("greedy_n128", "pod_n128", "online_n32", "validate_n32")
REFERENCE_SEED = 7   # romkit seed of the reference archive's training set
AUDIT_SEED = 11      # romkit seed of the audit's validation samples
GREEDY_TOL = 1e-6
CEILING_SLACK = 1.0 + 1e-8  # as in certify.effectivities
WARMUP_ROUNDS = 20    # untimed query rounds before the timed ones
ROUND_BLOCK = 100     # query rounds per block of a latency estimate
SWEEP_REPEATS = 3     # sweep_points_per_s is the best of these
VALIDATE_REPEATS = 2  # validate_s is the best of these
UNTIMED = [
    "offline greedy n=128 mu in [0.1,10]^4 train 500: exits 3, a truth "
    "solve stalls at relative residual ~4e-12 above the 1e-12 limit "
    "(ROADMAP item 2); left out until the truth solver changes",
]


@dataclass(frozen=True)
class Scale:
    n_big: int       # mesh of the n128 workloads' offline builds
    n_ref: int       # mesh of the reference archive
    train: int       # greedy training points
    snapshots: int   # POD snapshots
    setups: int      # set-up repetitions; setup_s is their median
    audit: int       # validation samples (validate_n32: audit_big)
    audit_big: int
    sweep: int       # sweep grid points (online_n32: sweep_big)
    sweep_big: int
    certs: int       # certificates per query round (online_n32: certs_big)
    certs_big: int
    online_min: int  # fewest online commands per run


FULL = Scale(n_big=128, n_ref=32, train=500, snapshots=49, setups=3,
             audit=30, audit_big=100, sweep=10 ** 4, sweep_big=12 ** 4,
             certs=10, certs_big=40, online_min=1000)
# tiny sizes for perfbench/test_smoke.py; not a benchmark configuration
SMOKE = Scale(n_big=8, n_ref=8, train=40, snapshots=9, setups=3,
              audit=4, audit_big=6, sweep=2 ** 4, sweep_big=3 ** 4,
              certs=3, certs_big=10, online_min=20)


def offline_args(workload, scale, seed):
    """romkit offline flags of the workload's own build, or None."""
    narrow = ["--mesh-n", str(scale.n_big), "--mu-lo", "0.5", "--mu-hi", "2.0",
              "--seed", str(seed)]
    if workload == "greedy_n128":
        return narrow + ["--method", "greedy", "--tol", str(GREEDY_TOL),
                         "--n-max", "40", "--train", str(scale.train)]
    if workload == "pod_n128":
        return narrow + ["--method", "pod", "--strategy", "random",
                         "--snapshots", str(scale.snapshots)]
    return None


def reference_args(scale):
    return ["--mesh-n", str(scale.n_ref), "--method", "greedy",
            "--tol", str(GREEDY_TOL), "--n-max", "40",
            "--train", str(scale.train), "--seed", str(REFERENCE_SEED)]


class Ledger:
    """Operations attempted and failed, with the outcome of every gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gates = {}   # gate -> [passed, failed]

    def record(self, what, checks):
        self.attempted += 1
        for gate, passed in checks.items():
            self.gates.setdefault(gate, [0, 0])[0 if passed else 1] += 1
        ok = all(checks.values())
        if not ok:
            self.failed += 1
            bad = [gate for gate, passed in checks.items() if not passed]
            print(f"perfbench: FAILED {what}: {', '.join(bad)}",
                  file=sys.stderr)
        return ok


class Bench:
    def __init__(self, workload, seed, seconds, scale, work, ledger):
        self.workload = workload
        self.seconds = seconds
        self.scale = scale
        self.work = work
        self.ledger = ledger
        self.rng = np.random.default_rng(seed)
        self.romkit_seed = int(self.rng.integers(2 ** 31 - 1))
        self.end_to_end = {}
        self.notes = []
        self.reference_N = None
        self.trace_overhead = 0.0
        self.ceiling_violations = 0
        self.online_samples = 0

    # -- helpers ----------------------------------------------------------

    def cli(self, argv):
        """romkit.cli.main in-process: (exit code, seconds, summary)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        lines = out.getvalue().splitlines()
        summary = json.loads(lines[-1]) if code == 0 and lines else None
        return code, seconds, summary

    def offline(self, what, flags, out):
        code, seconds, summary = self.cli(["offline", *flags,
                                           "--out", str(out)])
        checks = {"offline_exit_0": code == 0}
        if code == 0 and summary["method"] == "greedy":
            checks["greedy_stops_on_tolerance"] = (
                summary["stopping_reason"] == "tolerance"
                and summary["max_estimator"][-1] <= GREEDY_TOL)
        ok = self.ledger.record(what, checks)
        return (seconds, summary) if ok else (seconds, None)

    def query_points(self, archive, count):
        """Log-uniform parameters in the archive's domain, from the seed."""
        manifest = json.loads((archive / "manifest.json").read_text())
        lo = np.array([lo for lo, _, _ in manifest["domain"]])
        hi = np.array([hi for _, hi, _ in manifest["domain"]])
        u = self.rng.uniform(size=(count, lo.size))
        return np.clip(np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))),
                       lo, hi)

    # -- stages -----------------------------------------------------------

    def set_up(self, tracer=None):
        """Build the reference archive; returns it and its median build."""
        totals, commands = [], []
        archive = None
        for k in range(self.scale.setups):
            if tracer is not None and k == self.scale.setups - 1:
                for name in tracer.install():
                    self.notes.append(f"not traced: {name}")
            start = time.perf_counter()
            out = self.work / f"reference{k}"
            seconds, summary = self.offline(f"set-up build {k}",
                                            reference_args(self.scale), out)
            totals.append(time.perf_counter() - start)
            commands.append(seconds)
            if summary is not None:
                archive, self.reference_N = out, summary["N"]
        if tracer is not None:
            self.trace_overhead = totals[-1] - statistics.median(totals[:-1])
            totals = totals[:-1]
        self.end_to_end["setup_s"] = statistics.median(totals)
        return archive, statistics.median(commands)

    def reload(self, archive):
        try:
            loaded = persistence.load_model(archive, online_only=False)
        except romkit.errors.ArchiveError as exc:
            print(f"perfbench: reload of {archive}: {exc}", file=sys.stderr)
            return self.ledger.record("reload", {"checksummed_reload": False})
        manifest = loaded.manifest
        return self.ledger.record("reload", {
            "checksummed_reload": loaded.basis_vectors.shape
            == (manifest["N"], manifest["n_free"])})

    def audit(self, reference, samples):
        """validate, repeated on the same inputs; validate_s is the best."""
        times, outputs = [], []
        for k in range(VALIDATE_REPEATS):
            out = self.work / f"validate{k}.csv"
            code, seconds, summary = self.cli([
                "validate", "--model", str(reference), "--samples",
                str(samples), "--seed", str(AUDIT_SEED), "--out", str(out)])
            checks = {"validate_exit_0": code == 0}
            if code == 0:
                checks.update(self.check_validate(out, summary, samples))
                times.append(seconds)
                outputs.append(out.read_bytes())
                checks["validate_repeatable"] = outputs[0] == outputs[-1]
            self.ledger.record("validate", checks)
        if times:
            self.end_to_end["validate_s"] = min(times)

    def check_validate(self, out, summary, samples):
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        audited_rows = [row for row in rows
                        if not csv_flag(row["indeterminate"])]
        audited = len(audited_rows)
        violations = sum(not ceilings_hold(row) for row in audited_rows)
        self.end_to_end["audited_ratio"] = audited / samples
        self.ceiling_violations = violations
        spelled = sorted({row["indeterminate"] for row in rows})
        note = (f"audit: {audited}/{samples} samples audited, {violations} "
                f"ceiling violations, indeterminate spelled {spelled} "
                f"(known defects, recorded as measured)")
        if note not in self.notes:
            self.notes.append(note)
        return {"validate_rigor_ok": summary["rigor_ok"] is True,
                "validate_rows": len(rows) == samples,
                "validate_counts_agree": (
                    audited == summary["audited"]
                    and (violations == 0) == summary["ceilings_ok"])}

    def sweep(self, archive, loaded, count):
        rates = []
        for k in range(SWEEP_REPEATS):
            out = self.work / f"sweep{k}.csv"
            code, seconds, summary = self.cli([
                "sweep", "--model", str(archive), "--count", str(count),
                "--out", str(out)])
            checks = {"sweep_exit_0": code == 0}
            if code == 0:
                checks.update(self.check_sweep(out, summary, loaded))
                rates.append(summary["points"] / seconds)
            self.ledger.record("sweep", checks)
        if rates:
            self.end_to_end["sweep_points_per_s"] = max(rates)

    def check_sweep(self, out, summary, loaded):
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        finite = all(math.isfinite(float(row["s_rb"]))
                     and math.isfinite(float(row["eta_s"])) for row in rows)
        # spot-check rows against the library on the same archive
        matches = True
        p = loaded.model.p
        for i in self.rng.choice(len(rows), size=min(5, len(rows)),
                                 replace=False):
            row = rows[i]
            mu = np.array([float(row[f"mu_{j}"]) for j in range(p)])
            cert = certify.certificate(loaded.model, loaded.data, mu)
            matches &= (float(row["s_rb"]) == cert.s_rb
                        and float(row["eta_s"]) == cert.eta_s)
        return {"sweep_rows_equal_points": len(rows) == summary["points"],
                "sweep_finite": finite, "sweep_matches_library": matches}

    def certificate(self, loaded, mu):
        start = time.perf_counter()
        cert = certify.certificate(loaded.model, loaded.data, mu)
        seconds = time.perf_counter() - start
        self.ledger.record("certificate", {"certificate_finite": all(
            math.isfinite(v) for v in (cert.s_rb, cert.eta_en, cert.eta_s,
                                       cert.eta_v))})
        return seconds, cert

    def online_command(self, archive, loaded, mu):
        text = ",".join(repr(float(v)) for v in mu)
        code, seconds, result = self.cli([
            "online", "--model", str(archive), "--mu", text, "--json"])
        checks = {"online_exit_0": code == 0}
        if code == 0:
            cert = certify.certificate(loaded.model, loaded.data, mu)
            checks["online_skips_basis"] = (
                "basis" not in result["accessed_payloads"])
            checks["online_matches_library"] = (
                result["s_rb"] == cert.s_rb and result["eta_s"] == cert.eta_s)
            checks["online_finite"] = all(
                math.isfinite(result[k])
                for k in ("s_rb", "eta_en", "eta_s", "eta_v"))
        self.ledger.record("online", checks)
        return seconds

    def queries(self, archive, loaded, points, certs_per_command, deadline):
        """Rounds of one online command, then in-process certificates.

        The first certificate of a round refills the caches the command
        evicted and is not timed. Rounds run until at least ``online_min``
        commands ran and the deadline passed; the first WARMUP_ROUNDS are
        not timed. Interleaving spreads both kinds of samples over the whole
        stage, so that some block of ROUND_BLOCK rounds falls in a quiet
        spell of the machine (see ``quietest``).
        """
        commands, certs = [], []
        i = -WARMUP_ROUNDS
        while i < self.scale.online_min or time.perf_counter() < deadline:
            seconds = self.online_command(archive, loaded,
                                          points[i % len(points)])
            if i >= 0:
                commands.append(seconds)
            for k in range(certs_per_command + 1):
                mu = points[(i * certs_per_command + k) % len(points)]
                seconds, _ = self.certificate(loaded, mu)
                if i >= 0 and k > 0:
                    certs.append(seconds)
            i += 1
        commands, certs = np.array(commands), np.array(certs)
        e2e = self.end_to_end
        e2e["online_cmd_p50_ms"] = 1e3 * quietest(commands, 50, ROUND_BLOCK)
        e2e["online_cmd_p90_ms"] = 1e3 * quietest(commands, 90, ROUND_BLOCK)
        cert_block = ROUND_BLOCK * certs_per_command
        e2e["cert_p50_us"] = 1e6 * quietest(certs, 50, cert_block)
        e2e["cert_p90_us"] = 1e6 * quietest(certs, 90, cert_block)
        self.online_samples = commands.size
        for what, values, unit, factor in (("online commands", commands, "ms",
                                           1e3),
                                          ("certificates", certs, "us", 1e6)):
            self.notes.append(
                f"{what}: {values.size} samples; over all samples p50 "
                f"{factor * np.median(values):.4g} {unit}, p99 "
                f"{factor * np.percentile(values, 99):.4g} {unit} "
                "(reported, not bounded)")

    def pod_grid_probe(self):
        """Known defect: --strategy grid --snapshots 49 is a 3^4 grid."""
        out = self.work / "pod_grid"
        _, summary = self.offline("pod grid probe", [
            "--mesh-n", "8", "--method", "pod", "--strategy", "grid",
            "--snapshots", "49"], out)
        if summary is not None:
            manifest = json.loads((out / "manifest.json").read_text())
            count = manifest["provenance"]["snapshot_count"]
            self.notes.append(f"known defect: pod --strategy grid "
                              f"--snapshots 49 solved {count} snapshots")

    # -- the run ----------------------------------------------------------

    def run(self, tracer=None):
        scale = self.scale
        reference, reference_offline_s = self.set_up(tracer)
        if reference is None:
            return
        start = time.perf_counter()
        deadline = start + self.seconds
        flags = offline_args(self.workload, scale, self.romkit_seed)
        if flags is None:
            self.end_to_end["offline_s"] = reference_offline_s
            self.end_to_end["rb_N"] = self.reference_N
            self.reload(reference)
        else:
            archive = self.work / self.workload
            seconds, summary = self.offline(f"{self.workload} build", flags,
                                            archive)
            if summary is None:
                return
            self.end_to_end["offline_s"] = seconds
            self.end_to_end["rb_N"] = summary["N"]
            if summary["method"] == "pod":
                manifest = json.loads((archive / "manifest.json").read_text())
                self.notes.append(
                    "pod snapshot_count from provenance: "
                    f"{manifest['provenance']['snapshot_count']}")
            self.reload(archive)
        loaded = persistence.load_model(reference, online_only=True)
        online_heavy = self.workload == "online_n32"
        self.audit(reference, scale.audit_big
                   if self.workload == "validate_n32" else scale.audit)
        self.sweep(reference, loaded,
                   scale.sweep_big if online_heavy else scale.sweep)
        points = self.query_points(reference, 2000)
        self.queries(reference, loaded, points,
                     scale.certs_big if online_heavy else scale.certs,
                     deadline)
        self.end_to_end["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        self.pod_grid_probe()


def quietest(times, percentile, block):
    """A percentile of the quietest block of ``block`` consecutive samples.

    The machine's speed drifts by up to 2x over seconds when other tenants
    load it, so a percentile over all samples of a run mostly measures how
    busy they were. The lowest per-block percentile is what the code itself
    costs. Blocks of 100 or more leave ten samples beyond their p90.
    """
    blocks = np.array_split(times, max(1, times.size // block))
    return float(min(np.percentile(b, percentile) for b in blocks))


def ceilings_hold(row):
    """certify.effectivities' effectivity ceilings, from a validate row."""
    slack = CEILING_SLACK

    def value(key):
        text = row[key]
        return None if text == "indeterminate" else float(text)

    ratio = value("gamma_delta") / value("alpha_lb")
    eff_s_rel, eta_s_rel = value("eff_s_rel"), value("eta_s_rel")
    return (value("eff_en") <= math.sqrt(ratio) * slack
            and value("eff_s") <= ratio * slack
            and (eff_s_rel is None
                 or eff_s_rel <= (1.0 + eta_s_rel) * ratio * slack)
            and value("eff_v") <= ratio * slack
            and (not csv_flag(row["eta_v_rel_valid"])
                 or value("eff_v_rel") <= 3.0 * ratio * slack))


def csv_flag(text):
    """A boolean cell of romkit's CSV: 1/0, or True/False for numpy bools."""
    if text in ("1", "True"):
        return True
    if text in ("0", "False"):
        return False
    raise ValueError(f"not a boolean cell: {text!r}")


def environment():
    """What the numbers depend on besides the code."""
    def blas_version(module):
        try:
            config = module.show_config(mode="dicts")
            return config["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "romkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "openblas": blas_version(np), "scipy_openblas": blas_version(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "romkit_threads": os.environ["ROMKIT_THREADS"],
        "commit": git_commit(), "src_sha256": digest.hexdigest()[:16],
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "romkit" / "__init__.py").is_file():
        print(f"perfbench: no romkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global romkit, cli, certify, persistence, scipy
    import scipy
    import romkit
    import romkit.certify as certify
    import romkit.cli as cli
    import romkit.errors
    import romkit.persistence as persistence
    import tracing

    if not Path(romkit.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: romkit imported from {romkit.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = declared_metrics()

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    scale = SMOKE if args.scale == "smoke" else FULL
    bench = Bench(args.workload, args.seed, args.seconds, scale, work, ledger)
    tracer = tracing.Tracer() if args.trace else None
    try:
        bench.run(tracer)
    except Exception:  # report the run as failed, never as a result
        traceback.print_exc()
        ledger.record("run", {"run_completed": False})
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print("perfbench: environment " + json.dumps(environment()))
    print(f"perfbench: workload {args.workload} seed {args.seed} "
          f"romkit_seed {bench.romkit_seed} scale {args.scale}")
    for note in bench.notes + [f"untimed configuration: {u}"
                               for u in UNTIMED]:
        print(f"perfbench: {note}")
    for gate, (passed, failed) in sorted(ledger.gates.items()):
        print(f"perfbench: gate {gate}: {passed} passed, {failed} failed")

    if tracer is None:
        values, units = bench.end_to_end, end_to_end_units
    else:
        values = tracer.metrics()
        values["trace.overhead_s"] = bench.trace_overhead
        values["gates.failed_ratio"] = ledger.failed / max(ledger.attempted, 1)
        values["certify.ceiling_violations"] = bench.ceiling_violations
        values["online.cmd_samples"] = bench.online_samples
        units = per_layer_units
    missing = sorted(set(units) - set(values))
    if missing:
        ledger.record("metrics", {"all_metrics_measured": False})
        print(f"perfbench: not measured: {', '.join(missing)}",
              file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, metric in metrics.items():
        print(f"perfbench: {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
