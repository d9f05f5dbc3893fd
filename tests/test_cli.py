import csv
import json
import time

import pytest

import romkit.cli
from romkit.cli import main
from romkit.persistence import read_payload


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def greedy_archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "greedy_model"
    code = main([
        "offline", "--problem", "thermal", "--blocks", "2", "--mesh-n", "8",
        "--mu-lo", "0.5", "--mu-hi", "2.0", "--method", "greedy",
        "--tol", "1e-4", "--train", "60", "--n-max", "20",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    return out


def test_offline_greedy_summary(greedy_archive, capsys, monkeypatch):
    build_seconds = []
    greedy_build = romkit.cli.greedy_build

    def timed_greedy_build(*args, **kwargs):
        t0 = time.perf_counter()
        result = greedy_build(*args, **kwargs)
        build_seconds.append(time.perf_counter() - t0)
        return result

    monkeypatch.setattr(romkit.cli, "greedy_build", timed_greedy_build)
    code, out, _ = run_cli(
        capsys, "offline", "--problem", "thermal", "--blocks", "2",
        "--mesh-n", "8", "--mu-lo", "0.5", "--mu-hi", "2.0",
        "--method", "greedy", "--tol", "1e-3", "--train", "40",
        "--n-max", "15", "--seed", "1",
        "--out", str(greedy_archive.parent / "again"))
    assert code == 0
    summary = json.loads(out)
    assert summary["command"] == "offline"
    assert summary["stopping_reason"] == "tolerance"
    assert summary["N"] >= 1
    # only the truth solves count, not the scan, projection or Riesz work
    assert 0 < summary["truth_solve_seconds"] < summary["total_seconds"]
    assert summary["truth_solve_seconds"] < build_seconds[0]


def test_offline_pod_summary(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "offline", "--problem", "thermal", "--blocks", "2",
        "--mesh-n", "8", "--method", "pod", "--snapshots", "16",
        "--energy", "1e-8", "--out", str(tmp_path / "pod_model"))
    assert code == 0
    summary = json.loads(out)
    assert summary["method"] == "pod"
    assert (tmp_path / "pod_model" / "manifest.json").exists()


def test_online_query(greedy_archive, capsys):
    code, out, _ = run_cli(capsys, "online", "--model", str(greedy_archive),
                           "--mu", "0.7,1.1,1.9,0.6", "--json")
    assert code == 0
    result = json.loads(out)
    assert result["s_rb"] > 0
    assert result["eta_en"] >= 0
    assert result["alpha_lb"] == pytest.approx(0.6)
    assert not result["flags"]["out_of_domain"]
    # structural online guarantee: the basis payload is never read
    assert "basis" not in result["accessed_payloads"]
    assert "G_aa" in result["accessed_payloads"]


def test_online_flags_extrapolation(greedy_archive, capsys):
    code, out, _ = run_cli(capsys, "online", "--model", str(greedy_archive),
                           "--mu", "5.0,1.0,1.0,1.0", "--json")
    assert code == 0
    flags = json.loads(out)["flags"]
    assert flags["out_of_domain"] and flags["extrapolation"]


def test_online_rejects_wrong_arity(greedy_archive, capsys):
    code, _, err = run_cli(capsys, "online", "--model", str(greedy_archive),
                           "--mu", "1.0,2.0")
    assert code == 2
    assert "components" in err


def test_validate_table(greedy_archive, tmp_path, capsys):
    out_csv = tmp_path / "validation.csv"
    code, out, _ = run_cli(capsys, "validate", "--model", str(greedy_archive),
                           "--samples", "10", "--seed", "5",
                           "--out", str(out_csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["rigor_ok"] and summary["ceilings_ok"]
    assert summary["samples"] == 10
    with open(out_csv, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 10
    assert {"mu_0", "s_delta", "s_rb", "eff_en", "indeterminate"} <= rows[0].keys()
    flags = ["eta_v_rel_valid", "rigorous", "cancellation", "out_of_domain",
             "indeterminate"]
    for row in rows:
        assert float(row["s_delta"]) >= float(row["s_rb"]) - 1e-12
        assert all(row[flag] in ("0", "1") for flag in flags)


def test_sweep_csv(greedy_archive, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--model", str(greedy_archive),
                           "--count", "16", "--out", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 16
    assert all(float(row["s_rb"]) > 0 for row in rows)


def test_report_svg(greedy_archive, tmp_path, capsys):
    out_svg = tmp_path / "decay.svg"
    code, out, _ = run_cli(capsys, "report", "--model", str(greedy_archive),
                           "--out", str(out_svg))
    assert code == 0
    text = out_svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_report_histogram_from_csv(greedy_archive, tmp_path, capsys):
    table = tmp_path / "validation.csv"
    run_cli(capsys, "validate", "--model", str(greedy_archive),
            "--samples", "12", "--out", str(table))
    out_svg = tmp_path / "hist.svg"
    code, _, _ = run_cli(capsys, "report", "--csv", str(table),
                         "--out", str(out_svg))
    assert code == 0
    assert "rect" in out_svg.read_text()


def test_fom_payload(tmp_path, capsys):
    out = tmp_path / "u.rbm"
    code, stdout, _ = run_cli(
        capsys, "fom", "--problem", "thermal", "--blocks", "1",
        "--mesh-n", "8", "--mu", "2.0", "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["s_delta"] == pytest.approx(0.5, abs=1e-12)
    u = read_payload(out)
    assert u.shape == (summary["n_free"], 1)


def test_config_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "offline", "--problem", "thermal", "--blocks", "3",
        "--mesh-n", "8", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "divide" in err

    code, _, _ = run_cli(capsys, "online", "--model", str(tmp_path / "nope"),
                         "--mu", "1.0")
    assert code == 2


def test_single_thread_env_matches(greedy_archive, tmp_path, capsys,
                                   monkeypatch):
    monkeypatch.setenv("ROMKIT_THREADS", "1")
    one = tmp_path / "one.csv"
    run_cli(capsys, "validate", "--model", str(greedy_archive),
            "--samples", "6", "--out", str(one))
    monkeypatch.setenv("ROMKIT_THREADS", "4")
    four = tmp_path / "four.csv"
    run_cli(capsys, "validate", "--model", str(greedy_archive),
            "--samples", "6", "--out", str(four))
    assert one.read_text() == four.read_text()
