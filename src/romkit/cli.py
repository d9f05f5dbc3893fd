"""Command-line workbench: offline build, online queries, validation, reports.

Progress goes to stderr; each command prints a machine-readable JSON summary
to stdout. Exit codes: 0 success, 2 configuration error, 3 numerical failure.
All randomness flows from explicit --seed flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .certify import (certificate, effectivities, riesz_offline,
                      stability_bounds)
from .errors import ConfigurationError, NumericalError, RomkitError
from .greedy import greedy_build
from .persistence import load_model, save_model, write_payload
from .pod import collect_snapshots, pod_basis
from .problem import load_external, make_thermal_block, sample_parameters
from .reduced import project, rb_solve
from .truth import solve_fom, stability_constants


def _progress(message):
    print(message, file=sys.stderr, flush=True)


def _worker_count():
    env = os.environ.get("ROMKIT_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _parallel_map(fn, items):
    """Map preserving input order, honoring ROMKIT_THREADS."""
    workers = _worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _build_problem(args):
    if args.problem == "thermal":
        return make_thermal_block(args.mesh_n, args.blocks,
                                  args.mu_lo, args.mu_hi)
    if args.problem == "external":
        if not args.manifest:
            raise ConfigurationError("--problem external requires --manifest")
        return load_external(args.manifest)
    raise ConfigurationError(f"unknown problem {args.problem!r}")


def _problem_from_manifest(manifest):
    desc = manifest["provenance"].get("problem", {})
    if desc.get("type") == "thermal":
        return make_thermal_block(desc["n"], desc["B"],
                                  desc["mu_lo"], desc["mu_hi"])
    if desc.get("type") == "external":
        return load_external(desc["manifest_path"])
    raise ConfigurationError(
        "archive does not carry a reconstructible problem descriptor"
    )


def _parse_mu(text, p):
    parts = text.split(",")
    if len(parts) != p:
        raise ConfigurationError(
            f"--mu has {len(parts)} components, the model expects {p}"
        )
    try:
        return np.array([float(v) for v in parts])
    except ValueError as exc:
        raise ConfigurationError(f"malformed --mu {text!r}") from exc


def cmd_offline(args):
    t0 = time.perf_counter()
    problem = _build_problem(args)
    _progress(f"offline: problem with p={problem.p}, Q_a={problem.Q_a}, "
              f"n_free={problem.n_free}")
    truth_seconds = 0.0

    if args.method == "greedy":
        training = sample_parameters(problem.domain, args.train, "random",
                                     seed=args.seed)
        _progress(f"offline: greedy over {len(training)} training points, "
                  f"tol={args.tol}, n_max={args.n_max}")
        basis, history, model, data = greedy_build(
            problem, training, tol=args.tol, n_max=args.n_max)
        truth_seconds = history.truth_seconds
        model.provenance = {
            "method": "greedy",
            "problem": dict(problem.descriptor),
            "selected": [list(map(float, mu))
                         for mu in history.selected_parameters],
            "max_estimator": [float(v)
                              for v in history.max_estimator_per_iteration],
            "stopping_reason": history.stopping_reason,
            "training_set_size": history.training_set_size,
        }
    elif args.method == "pod":
        points = sample_parameters(problem.domain, args.snapshots,
                                   args.strategy, seed=args.seed)
        _progress(f"offline: POD over {len(points)} snapshots")
        t1 = time.perf_counter()
        snapshots = collect_snapshots(problem, points)
        truth_seconds = time.perf_counter() - t1
        if args.n is not None:
            basis = pod_basis(snapshots, n_modes=args.n)
        else:
            basis = pod_basis(snapshots, energy_tol=args.energy)
        model = project(problem, basis)
        data = riesz_offline(problem, basis)
        model.provenance = {
            "method": "pod",
            "problem": dict(problem.descriptor),
            "eigenvalues": [float(v) for v in basis.provenance.eigenvalues],
            "retained": basis.N,
            "snapshot_count": len(points),
        }
    else:
        raise ConfigurationError(f"unknown method {args.method!r}")

    save_model(args.out, model, data, basis)
    summary = {
        "command": "offline",
        "method": args.method,
        "N": model.N,
        "n_free": problem.n_free,
        "out": str(args.out),
        "truth_solve_seconds": truth_seconds,
        "total_seconds": time.perf_counter() - t0,
    }
    if args.method == "greedy":
        summary["stopping_reason"] = model.provenance["stopping_reason"]
        summary["max_estimator"] = model.provenance["max_estimator"]
    print(json.dumps(summary))
    return 0


def cmd_online(args):
    archive = load_model(args.model, online_only=True)
    mu = _parse_mu(args.mu, archive.model.p)
    t0 = time.perf_counter()
    cert = certificate(archive.model, archive.data, mu)
    online_seconds = time.perf_counter() - t0
    flags = {
        "out_of_domain": cert.out_of_domain,
        "extrapolation": cert.out_of_domain,
        "heuristic": not cert.rigorous,
        "cancellation": cert.cancellation,
        "s_rb_nonpositive": cert.s_rb_nonpositive,
        "eta_v_rel_valid": cert.eta_v_rel_valid,
    }
    result = {
        "command": "online",
        "mu": mu.tolist(),
        "s_rb": cert.s_rb,
        "eta_en": cert.eta_en,
        "eta_s": cert.eta_s,
        "eta_s_rel": None if math.isnan(cert.eta_s_rel) else cert.eta_s_rel,
        "eta_v": cert.eta_v,
        "eta_v_rel": cert.eta_v_rel,
        "alpha_lb": cert.alpha_lb,
        "flags": flags,
        "online_seconds": online_seconds,
        "accessed_payloads": archive.accessed_payloads,
    }
    if args.json:
        print(json.dumps(result))
    else:
        print(json.dumps(result, indent=2))
    return 0


VALIDATION_COLUMNS_FIXED = [
    "s_delta", "s_rb", "err_mu", "err_v",
    "eta_en", "eta_s", "eta_s_rel", "eta_v", "eta_v_rel",
    "eff_en", "eff_s", "eff_s_rel", "eff_v", "eff_v_rel",
    "alpha_lb", "alpha_delta", "gamma_delta",
    "eta_v_rel_valid", "rigorous", "cancellation",
    "out_of_domain", "indeterminate",
]


def validation_header(p):
    return [f"mu_{i}" for i in range(p)] + VALIDATION_COLUMNS_FIXED


def _fmt(value):
    if value is None:
        return "indeterminate"
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, float) and math.isnan(value):
        return "indeterminate"
    return repr(float(value)) if isinstance(value, float) else str(value)


def cmd_validate(args):
    if args.samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {args.samples}")
    archive = load_model(args.model, online_only=False)
    problem = _problem_from_manifest(archive.manifest)
    basis = archive.reduced_basis(problem)
    samples = sample_parameters(problem.domain, args.samples, "random",
                                seed=args.seed)
    _progress(f"validate: {len(samples)} samples on n_free={problem.n_free}")

    def one(mu):
        return effectivities(problem, archive.model, archive.data, basis, mu)

    reports = _parallel_map(one, samples)

    rows = []
    rigor_ok = True
    ceilings_ok = True
    audited = 0
    effs = []
    for rep in reports:
        cert = rep.certificate
        rigor_ok &= rep.s_delta >= cert.s_rb - 1e-12
        if not rep.indeterminate:
            # below the cancellation floor the estimator magnitude is
            # unreliable and the comparison against truth is meaningless
            audited += 1
            slack = 1e-10
            rigor_ok &= rep.err_mu <= cert.eta_en + slack
            rigor_ok &= rep.err_v <= cert.eta_v + slack
            ceilings_ok &= rep.ceilings_ok
        if rep.eff_en is not None:
            effs.append(rep.eff_en)
        row = [repr(float(v)) for v in rep.mu]
        row += [_fmt(v) for v in (
            rep.s_delta, cert.s_rb, rep.err_mu, rep.err_v,
            cert.eta_en, cert.eta_s, cert.eta_s_rel, cert.eta_v,
            cert.eta_v_rel,
            rep.eff_en, rep.eff_s, rep.eff_s_rel, rep.eff_v, rep.eff_v_rel,
            cert.alpha_lb, rep.alpha_delta, rep.gamma_delta,
            cert.eta_v_rel_valid, cert.rigorous, cert.cancellation,
            cert.out_of_domain, rep.indeterminate,
        )]
        rows.append(row)

    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(validation_header(problem.p))
        writer.writerows(rows)

    summary = {
        "command": "validate",
        "samples": len(samples),
        "audited": audited,
        "rigor_ok": bool(rigor_ok),
        "ceilings_ok": bool(ceilings_ok),
        "out": str(args.out),
    }
    if effs:
        summary["eff_en"] = {"min": float(np.min(effs)),
                             "median": float(np.median(effs)),
                             "max": float(np.max(effs))}
    print(json.dumps(summary))
    return 0


def cmd_sweep(args):
    archive = load_model(args.model, online_only=True)
    model, data = archive.model, archive.data
    points = sample_parameters(model.domain, args.count, "grid")
    _progress(f"sweep: {len(points)} grid points")

    def one(mu):
        cert = certificate(model, data, mu)
        return cert

    certs = _parallel_map(one, points)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"mu_{i}" for i in range(model.p)]
                        + ["s_rb", "eta_s"])
        for mu, cert in zip(points, certs):
            writer.writerow([repr(float(v)) for v in mu]
                            + [_fmt(cert.s_rb), _fmt(cert.eta_s)])
    print(json.dumps({"command": "sweep", "points": len(points),
                      "out": str(args.out)}))
    return 0


def _svg_document(body, width=640, height=420):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f"{body}\n</svg>\n")


def _polyline_svg(xs, ys, x_label, y_label):
    width, height, margin = 640, 420, 60
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    body = (
        f'<polyline points="{points}" fill="none" stroke="steelblue" '
        f'stroke-width="2"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<text x="{width / 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>\n'
        f'<text x="18" y="{height / 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2})">{y_label}</text>\n'
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11">'
        f"{x_lo:g}</text>\n"
        f'<text x="{width - margin}" y="{height - margin + 18}" '
        f'text-anchor="end" font-size="11">{x_hi:g}</text>\n'
        f'<text x="{margin - 6}" y="{height - margin}" text-anchor="end" '
        f'font-size="11">{y_lo:.3g}</text>\n'
        f'<text x="{margin - 6}" y="{margin + 6}" text-anchor="end" '
        f'font-size="11">{y_hi:.3g}</text>'
    )
    return _svg_document(body)


def _histogram_svg(values, x_label):
    width, height, margin = 640, 420, 60
    counts, edges = np.histogram(values, bins=min(20, max(5, len(values) // 5)))
    top = counts.max() or 1
    bars = []
    plot_w = width - 2 * margin
    for i, count in enumerate(counts):
        x0 = margin + plot_w * (edges[i] - edges[0]) / (edges[-1] - edges[0])
        x1 = margin + plot_w * (edges[i + 1] - edges[0]) / (edges[-1] - edges[0])
        bar_h = (height - 2 * margin) * count / top
        bars.append(
            f'<rect x="{x0:.2f}" y="{height - margin - bar_h:.2f}" '
            f'width="{max(x1 - x0 - 1, 1):.2f}" height="{bar_h:.2f}" '
            f'fill="indianred"/>'
        )
    body = "\n".join(bars) + (
        f'\n<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<text x="{width / 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>\n'
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11">'
        f"{edges[0]:.3g}</text>\n"
        f'<text x="{width - margin}" y="{height - margin + 18}" '
        f'text-anchor="end" font-size="11">{edges[-1]:.3g}</text>'
    )
    return _svg_document(body)


def cmd_report(args):
    outputs = []
    if args.model:
        archive = load_model(args.model, online_only=True)
        provenance = archive.manifest.get("provenance", {})
        estimators = provenance.get("max_estimator")
        if not estimators:
            raise ConfigurationError(
                "archive has no greedy history to plot; validate CSV input "
                "is required for POD models"
            )
        xs = list(range(1, len(estimators) + 1))
        ys = [math.log10(max(v, 1e-300)) for v in estimators]
        svg = _polyline_svg(xs, ys, "N", "log10(max estimator)")
        out = Path(args.out) / "estimator_decay.svg" if args.csv else Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(svg)
        outputs.append(str(out))
    if args.csv:
        with open(args.csv, newline="") as handle:
            reader = csv.DictReader(handle)
            values = []
            for row in reader:
                value = row.get("eff_en", "")
                if value and value != "indeterminate":
                    values.append(float(value))
        if not values:
            raise ConfigurationError(
                f"no usable eff_en values in {args.csv}"
            )
        svg = _histogram_svg(values, "eff_en")
        out = (Path(args.out) / "effectivity_histogram.svg" if args.model
               else Path(args.out))
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(svg)
        outputs.append(str(out))
    if not outputs:
        raise ConfigurationError("report needs --model and/or --csv")
    print(json.dumps({"command": "report", "outputs": outputs}))
    return 0


def cmd_fom(args):
    problem = _build_problem(args)
    mu = _parse_mu(args.mu, problem.p)
    solution = solve_fom(problem, mu)
    checksum = write_payload(args.out, solution.u.reshape(-1, 1))
    print(json.dumps({
        "command": "fom",
        "mu": mu.tolist(),
        "s_delta": solution.s,
        "solve_residual": solution.solve_residual,
        "n_free": problem.n_free,
        "out": str(args.out),
        "blake2b": checksum,
    }))
    return 0


def _add_problem_flags(parser):
    parser.add_argument("--problem", default="thermal",
                        choices=["thermal", "external"])
    parser.add_argument("--blocks", type=int, default=2,
                        help="B for the BxB thermal block")
    parser.add_argument("--mesh-n", type=int, default=32,
                        help="cells per side of the unit square")
    parser.add_argument("--mu-lo", type=float, default=0.1)
    parser.add_argument("--mu-hi", type=float, default=10.0)
    parser.add_argument("--manifest", help="external problem manifest (JSON)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="romkit",
        description="Certified reduced-basis workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_off = sub.add_parser("offline", help="build and persist a reduced model")
    _add_problem_flags(p_off)
    p_off.add_argument("--method", default="greedy", choices=["greedy", "pod"])
    p_off.add_argument("--tol", type=float, default=1e-6)
    p_off.add_argument("--n-max", type=int, default=40)
    p_off.add_argument("--train", type=int, default=500,
                       help="greedy training-set size (log-uniform random)")
    p_off.add_argument("--snapshots", type=int, default=49,
                       help="POD snapshot count")
    p_off.add_argument("--strategy", default="grid",
                       choices=["grid", "random"],
                       help="POD snapshot sampling strategy")
    p_off.add_argument("--energy", type=float, default=1e-8,
                       help="POD neglected-energy tolerance")
    p_off.add_argument("--n", type=int, default=None,
                       help="fixed POD basis size (overrides --energy)")
    p_off.add_argument("--seed", type=int, default=0)
    p_off.add_argument("--out", required=True)
    p_off.set_defaults(func=cmd_offline)

    p_on = sub.add_parser("online", help="certified online query")
    p_on.add_argument("--model", required=True)
    p_on.add_argument("--mu", required=True,
                      help="comma-separated parameter values")
    p_on.add_argument("--json", action="store_true",
                      help="compact JSON output")
    p_on.set_defaults(func=cmd_online)

    p_val = sub.add_parser("validate",
                           help="truth-vs-estimator validation table")
    p_val.add_argument("--model", required=True)
    p_val.add_argument("--samples", type=int, required=True)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="grid sweep of s_rb and eta_s")
    p_sweep.add_argument("--model", required=True)
    p_sweep.add_argument("--count", type=int, default=25)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("report", help="SVG figures from history/CSV")
    p_rep.add_argument("--model")
    p_rep.add_argument("--csv")
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)

    p_fom = sub.add_parser("fom", help="debug truth solve (RBM1 payload)")
    _add_problem_flags(p_fom)
    p_fom.add_argument("--mu", required=True)
    p_fom.add_argument("--out", required=True)
    p_fom.set_defaults(func=cmd_fom)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, FileNotFoundError) as exc:
        _progress(f"error: {exc}")
        return 2
    except NumericalError as exc:
        _progress(f"numerical failure: {exc}")
        return 3
    except RomkitError as exc:
        _progress(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
