import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from kolsys.cli import atomic_write, run
from kolsys.config import ConfigError, parse_config

FAST_CFG = """\
[problem]
d = 1
m = 2
family = polynomial
gamma = 0.0
beta = 1.0
b0 = 1.0
coupling_kind = exchange2

[grid]
L = 6.0
n_per_axis = 161
boundary = neumann

[time]
dt = 2e-3
t_final = 2.0
theta = 0.5

[verify]
R_obs = 3.0

[run]
seed = 0
"""


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return path


def test_parse_config_types(fast_cfg):
    cfg = parse_config(fast_cfg)
    assert cfg.get_int("problem", "m") == 2
    assert cfg.get_float("time", "dt") == pytest.approx(2e-3)
    assert cfg.get_str("grid", "boundary") == "neumann"


def test_unknown_key_rejected_with_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\nL = 6.0\nn_per_axis = 81\nbandary = neumann\n")
    with pytest.raises(ConfigError, match="line 4"):
        parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[gird]\nL = 6.0\n")
    with pytest.raises(ConfigError, match=r"unknown section \[gird\]"):
        parse_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\nL = 6.0\nL = 4.0\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(path)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\nthis is not a key value pair\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_missing_grid_section_exits_2(tmp_path):
    path = tmp_path / "nogrid.cfg"
    path.write_text("[problem]\nd = 1\nm = 2\n")
    code = run(["simulate", "--config", str(path),
                "--out", str(tmp_path / "t.csv")])
    assert code == 2


def test_missing_config_file_exits_2(tmp_path):
    code = run(["check", "--config", str(tmp_path / "absent.cfg"),
                "--out", str(tmp_path / "r.txt")])
    assert code == 2


def test_invalid_subcommand_exits_2(tmp_path):
    assert run(["frobnicate"]) == 2


def test_check_writes_seven_records(fast_cfg, tmp_path):
    out = tmp_path / "report.txt"
    code = run(["check", "--config", str(fast_cfg), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    names = [line.split("=")[1].strip() for line in text.splitlines()
             if line.startswith("check =")]
    assert names == ["ellipticity", "dissipativity", "offdiagonal_nonnegative",
                     "irreducibility", "common_kernel", "lyapunov", "growth"]
    assert text.count("status = pass") == 7


def test_check_kp_flag_adds_records(fast_cfg, tmp_path):
    out = tmp_path / "report.txt"
    run(["check", "--config", str(fast_cfg), "--out", str(out), "--kp"])
    text = out.read_text()
    assert text.count("check = kp_sup_cp_") == 3


def test_check_fails_on_decoupled_system(tmp_path):
    path = tmp_path / "diag.cfg"
    path.write_text(FAST_CFG.replace("coupling_kind = exchange2",
                                     "coupling_kind = constant_matrix\n"
                                     "c0 = -1, 0, 0, -1"))
    out = tmp_path / "report.txt"
    code = run(["check", "--config", str(path), "--out", str(out)])
    assert code == 1
    assert "check = irreducibility\nstatus = fail" in out.read_text()


def test_simulate_csv_columns(fast_cfg, tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--config", str(fast_cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,node_index,x1,u_1,u_2"
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "0"
    assert float(first[2]) == -6.0


def test_simulate_2d_csv_columns(tmp_path):
    path = tmp_path / "d2.cfg"
    path.write_text("[problem]\nd = 2\nm = 2\n\n[grid]\nL = 2.0\nn_per_axis = 21\n"
                    "\n[time]\ndt = 1e-2\nt_final = 0.05\n\n[data]\nf = gauss, zero\n")
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--config", str(path), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,node_index,x1,x2,u_1,u_2"
    first = lines[1].split(",")
    assert float(first[2]) == -2.0 and float(first[3]) == -2.0


def test_simulate_deterministic_bytes(fast_cfg, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["simulate", "--config", str(fast_cfg), "--out", str(out1)])
    run(["simulate", "--config", str(fast_cfg), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_nested(tmp_path):
    path = tmp_path / "nested.cfg"
    path.write_text(FAST_CFG.replace("[verify]", "[nest]\n"
                                     "ladder = 4:161, 6:241\n"
                                     "nest_tol = 1e-4\nR_obs = 3.0\n\n[verify]")
                    .replace("t_final = 2.0", "t_final = 0.2"))
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--config", str(path), "--out", str(out), "--nested"])
    assert code == 0
    assert out.exists()


def test_measure_oracle_columns(fast_cfg, tmp_path):
    out = tmp_path / "density.csv"
    code = run(["measure", "--config", str(fast_cfg), "--out", str(out), "--oracle"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node_index,x1,rho,rho_oracle,diff"
    rho = np.array([float(line.split(",")[2]) for line in lines[1:]])
    diff = np.array([float(line.split(",")[4]) for line in lines[1:]])
    assert np.all(rho >= 0)
    assert np.max(np.abs(diff)) <= 1e-3


def test_verify_core_suite_passes(fast_cfg, tmp_path):
    out = tmp_path / "report.txt"
    code = run(["verify", "--config", str(fast_cfg), "--suite", "core",
                "--out", str(out)])
    text = out.read_text()
    assert code == 0, text
    lines = text.splitlines()
    assert lines[0].startswith("property, status")
    names = [line.split(",")[0] for line in lines[1:]]
    assert "spectral_structure" in names
    assert "fixed_points" in names
    assert "positivity" in names
    assert "domination_contraction" in names
    assert "system_invariance" in names
    assert "scalar_invariance" in names
    assert "lp_bound_p2.0" in names
    assert all(", pass," in line for line in lines[1:])


def test_verify_counterexample_suite(fast_cfg, tmp_path):
    out = tmp_path / "report.txt"
    code = run(["verify", "--config", str(fast_cfg), "--suite", "counterexample",
                "--out", str(out)])
    assert code == 0, out.read_text()
    text = out.read_text()
    assert "counterexample_growth, pass" in text
    assert "counterexample_decay, pass" in text
    assert "jordan_asymptotics, pass" in text


def test_verify_rates_suite(tmp_path):
    path = tmp_path / "rates.cfg"
    path.write_text("[problem]\nd = 1\nm = 2\n\n[grid]\nL = 4.0\nn_per_axis = 321\n"
                    "\n[time]\ndt = 2.5e-4\nt_final = 0.1\n\n[verify]\nR_obs = 3.0\n")
    out = tmp_path / "report.txt"
    code = run(["verify", "--config", str(path), "--suite", "rates",
                "--out", str(out)])
    text = out.read_text()
    assert code == 0, text
    assert text.count("gradient_rate_") == 4
    assert ", fail," not in text


def test_verify_asymptotic_suite(tmp_path):
    path = tmp_path / "asy.cfg"
    path.write_text("[problem]\nd = 1\nm = 2\n\n[grid]\nL = 6.0\nn_per_axis = 121\n"
                    "\n[time]\ndt = 4e-3\nt_final = 10.0\n\n"
                    "[nest]\nladder = 4:81, 6:121\nnest_tol = 1e-1\nR_obs = 3.0\n\n"
                    "[verify]\nR_obs = 3.0\n")
    out = tmp_path / "report.txt"
    code = run(["verify", "--config", str(path), "--suite", "asymptotic",
                "--out", str(out)])
    text = out.read_text()
    assert code == 0, text
    for name in ("longtime_convergence", "l2_gradient_decay", "cesaro_identity",
                 "nested_convergence"):
        assert f"{name}, pass" in text


def test_sweep_rows_and_determinism(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(FAST_CFG.replace("n_per_axis = 161", "n_per_axis = 121")
                    + "\n[sweep]\nbeta = 1, 2\np = 2, 4\ncap = 8\nworkers = 2\n")
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    code = run(["sweep", "--config", str(path), "--out", str(out1)])
    assert code == 0
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("gamma,beta,b0,p,")
    assert len(lines) == 5                      # header + 4 rows
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[4] == "pass"               # beta > (gamma-1)^+: Lyapunov holds
    run(["sweep", "--config", str(path), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_cap_exceeded(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(FAST_CFG + "\n[sweep]\nbeta = 1, 2\np = 2, 4\ncap = 3\n")
    assert run(["sweep", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 2


def test_output_section_default_path(tmp_path, monkeypatch):
    path = tmp_path / "cfg.cfg"
    path.write_text(FAST_CFG + f"\n[output]\nout = {tmp_path / 'from_cfg.txt'}\n")
    monkeypatch.chdir(tmp_path)
    code = run(["check", "--config", str(path)])
    assert code == 0
    assert (tmp_path / "from_cfg.txt").exists()


def test_no_temp_files_left(fast_cfg, tmp_path):
    out = tmp_path / "report.txt"
    run(["check", "--config", str(fast_cfg), "--out", str(out)])
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".kolsys-")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_mode_follows_umask(tmp_path, umask):
    target = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        atomic_write(str(target), "a\n")
        atomic_write(str(target), "b\n")       # replaces the first file
    finally:
        os.umask(old)
    assert target.read_text() == "b\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    assert list(tmp_path.iterdir()) == [target]


def test_cli_import_leaves_scipy_integrate_and_optimize_unloaded():
    # each costs every command its import time and memory; the package uses neither
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import kolsys.cli, sys; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
