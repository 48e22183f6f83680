import argparse
import json
import multiprocessing
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import kolsys.cli as cli
from kolsys.cli import _concurrently, atomic_write, build_parser, run
from kolsys.config import SCHEMA, ConfigError, parse_config, time_from_config
from kolsys.semigroup import SolveError, ThetaStepper

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    assert cfg.get("problem", "m") == 2 and isinstance(cfg.get("problem", "m"), int)
    assert cfg.get("time", "dt") == pytest.approx(2e-3)
    assert cfg.get("grid", "boundary") == "neumann"
    assert cfg.get("verify", "dom_tol") == SCHEMA["verify"]["dom_tol"][1]   # omitted
    assert cfg.line("grid", "L") == 11 and cfg.line("verify", "dom_tol") is None


def test_list_and_ladder_kinds(tmp_path):
    path = tmp_path / "lists.cfg"
    path.write_text("[nest]\nladder = 4:161, 6:241\n\n[data]\nf = tanh , gauss\n"
                    "\n[sweep]\nbeta = 1, 2.5\n")
    cfg = parse_config(path)
    assert cfg.get("nest", "ladder") == [(4.0, 161), (6.0, 241)]
    assert cfg.get("data", "f") == ["tanh", "gauss"]
    assert cfg.get("sweep", "beta") == [1.0, 2.5]


@pytest.mark.parametrize("section,line", [
    ("[grid]\nL = 6.0\nn_per_axis = 8.5\n", 3),
    ("[grid]\nL = six\n", 2),
    ("[grid]\nboundary = periodic\n", 2),
    ("[problem]\nfamily = cubic\n", 2),
    ("[nest]\nladder = 4:161, 6-241\n", 2),
    ("[sweep]\nbeta = 1, two\n", 2),
])
def test_bad_value_rejected_with_line(tmp_path, section, line):
    path = tmp_path / "bad.cfg"
    path.write_text(section)
    with pytest.raises(ConfigError, match=f"line {line}: "):
        parse_config(path)


def test_verify_nest_tol_rejected_with_line(fast_cfg, tmp_path, capsys):
    # [nest] nest_tol sets the nested tolerance; [verify] never read one
    path = tmp_path / "nest_tol.cfg"
    path.write_text(fast_cfg.read_text().replace("[verify]\n", "[verify]\nnest_tol = 1e-4\n"))
    code = run(["check", "--config", str(path), "--out", str(tmp_path / "r.txt")])
    assert code == 2
    assert "line 21: unknown key 'nest_tol' in section [verify]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_store_every_below_one_rejected_with_line(fast_cfg, tmp_path, value):
    path = tmp_path / "store.cfg"
    path.write_text(fast_cfg.read_text().replace("theta = 0.5\n",
                                                  f"theta = 0.5\nstore_every = {value}\n"))
    with pytest.raises(ConfigError, match="line 19: time.store_every must be at least 1"):
        time_from_config(parse_config(path))


@pytest.mark.parametrize("t_final", ["2.0005", "0.0004"])
def test_t_final_not_a_multiple_of_dt_rejected_with_line(fast_cfg, tmp_path, capsys, t_final):
    # simulate used to run round(t_final / dt) steps, at least one, and end
    # its CSV at another time than asked
    path = tmp_path / "t_final.cfg"
    path.write_text(fast_cfg.read_text().replace("t_final = 2.0\n", f"t_final = {t_final}\n"))
    with pytest.raises(ConfigError, match=f"line 17: time.t_final {t_final} is not a "
                                          f"multiple of dt = 0.002$"):
        time_from_config(parse_config(path))
    out = tmp_path / "traj.csv"
    assert run(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "line 17: time.t_final" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("edits,line", [
    ({"dt = 2e-3": "dt = 0"}, 16), ({"t_final = 2.0": "t_final = -2.0"}, 17),
    ({"theta = 0.5": "theta = 1.5"}, 18), ({"theta = 0.5": "theta = -0.5"}, 18),
    ({"dt = 2e-3": "dt = -1e-3", "theta = 0.5": "theta = 2"}, 16),
    # a NaN dt was blamed on t_final's line, and t_final = inf raised an
    # OverflowError, which the CLI turned into exit 1 with a traceback
    ({"dt = 2e-3": "dt = nan"}, 16), ({"t_final = 2.0": "t_final = inf"}, 17)])
def test_bad_time_parameter_rejected_with_the_line_of_the_first(fast_cfg, tmp_path, edits,
                                                                line):
    text = fast_cfg.read_text()
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / "time.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^line {line}: invalid \\[time\\] parameters"):
        time_from_config(parse_config(path))


@pytest.mark.parametrize("suite,dt,t_final,t", [
    ("core", "3e-3", "3.0", "0.1"), ("asymptotic", "3e-3", "3.0", "1.0"),
    ("counterexample", "3e-3", "6.0", "5.0"), ("core", "1e-3", "1.001", "0.5005")])
def test_dt_that_does_not_divide_a_suite_time_rejected_with_line(tmp_path, capsys, suite, dt,
                                                                 t_final, t):
    # t_final is a whole number of steps, but a time of the suite's own is not
    path = tmp_path / "dt.cfg"
    path.write_text(FAST_CFG.replace("n_per_axis = 161", "n_per_axis = 81")
                    .replace("dt = 2e-3\nt_final = 2.0\n", f"dt = {dt}\nt_final = {t_final}\n"))
    out = tmp_path / "report.txt"
    assert run(["verify", "--config", str(path), "--suite", suite, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: line 16: time.dt = {float(dt)} does not "
                                       f"divide {t}, a time the {suite} suite runs to\n")
    assert not out.exists()


def test_readme_config_reference_lists_the_schema():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Config reference", 1)[1].split("```")[1]
    listed = {}
    for line in block.splitlines():
        head = re.match(r"\[(\w+)\]", line)
        entry = re.match(r"\s+(\w+) = (\S.*?)(?:\s{2,}|$)", line)
        if head:
            section = listed.setdefault(head.group(1), {})
        elif entry:
            section[entry.group(1)] = entry.group(2)
    assert {name: set(keys) for name, keys in listed.items()} == \
        {name: set(keys) for name, keys in SCHEMA.items()}
    for name, keys in listed.items():
        for key, text in keys.items():
            (_, convert), default = SCHEMA[name][key]
            # a parenthesized default is worked out by the command that reads the key
            shown = None if text.startswith("(") else convert(text)
            assert shown == (list(default) if isinstance(default, tuple) else default), key


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


def test_simulate_nested_exit_code_follows_the_nested_convergence_check(tmp_path, capsys):
    # b = -0.2 x: the last rung is within nest_tol (7.0e-3 <= 1e-2), but the
    # Dirichlet-Neumann gap 3.8e-2 exceeds max(2 x 7.0e-3, 1e-2)
    path = tmp_path / "nested.cfg"
    path.write_text(FAST_CFG.replace("beta = 1.0\nb0 = 1.0", "beta = 0.0\nb0 = 0.2")
                    .replace("dt = 2e-3", "dt = 1e-2")
                    .replace("[verify]", "[nest]\nladder = 3:61, 4:81, 5:101\n"
                             "nest_tol = 1e-2\nR_obs = 2.0\n\n[verify]"))
    code = run(["simulate", "--config", str(path), "--out", str(tmp_path / "traj.csv"),
                "--nested"])
    printed = capsys.readouterr().out
    assert "rung 2 discrepancy = 0.00701775" in printed
    assert "dirichlet_neumann_gap = 0.0383653" in printed
    assert "converged = False" in printed
    assert code == 1


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


def test_sweep_applies_verify_tolerances(tmp_path):
    # [verify] inv_tol and lp_tol reach the sweep's invariance and L^p
    # verdicts: a 1e-15 drift tolerance and a bound lowered by 1 fail both
    base = FAST_CFG.replace("n_per_axis = 161", "n_per_axis = 121") + "\n[sweep]\np = 2\n"
    strict = base.replace("R_obs = 3.0", "R_obs = 3.0\ninv_tol = 1e-15\nlp_tol = -1.0")
    cells = []
    for name, text in (("base", base), ("strict", strict)):
        path, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
        path.write_text(text)
        cells.append((run(["sweep", "--config", str(path), "--out", str(out)]),
                      out.read_text().splitlines()[1].split(",")))
    (code, row), (strict_code, strict_row) = cells
    assert (code, row[6:8]) == (0, ["pass", "pass"])
    assert (strict_code, strict_row[6:8]) == (1, ["fail", "fail"])
    assert row[8:] == strict_row[8:]


def test_sweep_ou_family_equals_written_out_drift(tmp_path):
    # family = ou means gamma = beta = 0; the sweep's family is the
    # [problem] field, so both configs run the same single family
    sweep = "\n[sweep]\np = 2, 4\n"
    base = FAST_CFG.replace("n_per_axis = 161", "n_per_axis = 241")
    ou = tmp_path / "ou.cfg"
    ou.write_text(base.replace("family = polynomial", "family = ou") + sweep)
    written = tmp_path / "written.cfg"
    written.write_text(base.replace("gamma = 0.0\nbeta = 1.0", "gamma = 0.0\nbeta = 0.0")
                       + sweep)
    out_ou, out_written = tmp_path / "ou.csv", tmp_path / "written.csv"
    assert run(["sweep", "--config", str(ou), "--out", str(out_ou)]) == 0
    assert run(["sweep", "--config", str(written), "--out", str(out_written)]) == 0
    assert out_ou.read_bytes() == out_written.read_bytes()
    assert out_ou.read_text().splitlines()[1].startswith("0.0,0.0,1.0,2.0,")


def test_sweep_negative_beta_exits_2(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(FAST_CFG + "\n[sweep]\nbeta = -1, 1\n")
    out = tmp_path / "s.csv"
    assert run(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("entry", ["p =", "beta = ,", "gamma = , ,", "b0 ="])
def test_empty_sweep_list_rejected_with_line(tmp_path, capsys, entry):
    # an empty list used to make no rows: the CSV held only its header, exit 0
    text = FAST_CFG + f"\n[sweep]\ncap = 8\n{entry}\n"
    path, out = tmp_path / "sweep.cfg", tmp_path / "s.csv"
    path.write_text(text)
    assert run(["sweep", "--config", str(path), "--out", str(out)]) == 2
    line, key = text.splitlines().index(entry) + 1, entry.split("=")[0].strip()
    assert f"line {line}: sweep.{key} needs at least one value" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cap_exceeded(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(FAST_CFG + "\n[sweep]\nbeta = 1, 2\np = 2, 4\ncap = 3\n")
    assert run(["sweep", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 2


# every command on a small grid with its default output name; verify runs
# its cheapest suite
COMMANDS = [("check", [], "report.txt"), ("simulate", [], "traj.csv"),
            ("measure", [], "density.csv"),
            ("verify", ["--suite", "counterexample"], "report.txt"),
            ("sweep", [], "summary.csv")]
each_command = pytest.mark.parametrize("command,extra,default", COMMANDS,
                                       ids=[command for command, *_ in COMMANDS])
SMALL_CFG = (FAST_CFG.replace("n_per_axis = 161", "n_per_axis = 81")
             .replace("t_final = 2.0", "t_final = 0.2") + "\n[sweep]\np = 2\n")


@pytest.fixture
def small_cfg(tmp_path, monkeypatch):
    """Write the small config in an empty working directory; `out` adds an
    [output] section naming a file there."""
    monkeypatch.chdir(tmp_path)

    def write(out=None, text=SMALL_CFG):
        path = tmp_path / "small.cfg"
        path.write_text(text + (f"\n[output]\nout = {tmp_path / out}\n" if out else ""))
        return str(path)
    return write


@each_command
def test_command_writes_its_default_file(small_cfg, tmp_path, command, extra, default):
    assert run([command, "--config", small_cfg()] + extra) in (0, 1)
    assert sorted(os.listdir(tmp_path)) == sorted([default, "small.cfg"])


@each_command
def test_output_section_wins_over_the_default_name(small_cfg, tmp_path, command, extra,
                                                   default):
    assert run([command, "--config", small_cfg(out="from_cfg.out")] + extra) in (0, 1)
    assert sorted(os.listdir(tmp_path)) == ["from_cfg.out", "small.cfg"]


@each_command
def test_out_flag_wins_over_the_output_section(small_cfg, tmp_path, command, extra, default):
    code = run([command, "--config", small_cfg(out="from_cfg.out"),
                "--out", str(tmp_path / "from_flag.out")] + extra)
    assert code in (0, 1)
    assert sorted(os.listdir(tmp_path)) == ["from_flag.out", "small.cfg"]


@each_command
def test_command_that_exits_2_writes_nothing(small_cfg, tmp_path, capsys, command, extra,
                                             default):
    # every command builds the [problem] field, which rejects b0 <= 0
    path = small_cfg(out="from_cfg.out", text=SMALL_CFG.replace("b0 = 1.0", "b0 = -1.0"))
    assert run([command, "--config", path] + extra) == 2
    assert "b0 must be positive" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["small.cfg"]


def test_measure_oracle_at_d2_exits_2_before_the_density_solve(tmp_path, monkeypatch,
                                                                 capsys):
    def solve(*_):
        raise AssertionError("the density was solved before --oracle was refused")
    monkeypatch.setattr("kolsys.cli.solve_scalar_invariant_density", solve)
    path = tmp_path / "d2.cfg"
    path.write_text("[problem]\nd = 2\nm = 2\n\n[grid]\nL = 2.0\nn_per_axis = 21\n")
    out = tmp_path / "density.csv"
    assert run(["measure", "--config", str(path), "--out", str(out), "--oracle"]) == 2
    assert capsys.readouterr().err == "config error: --oracle requires d = 1\n"
    assert not out.exists()


def test_readme_command_line_lists_every_subcommand_and_flag():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    listed = {line.split()[1]: set(re.findall(r"--[\w-]+", line))
              for line in block.splitlines() if line.startswith("kolsys ")}
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {name: {opt for action in parser._actions for opt in action.option_strings
                    if opt.startswith("--") and opt != "--help"}
             for name, parser in subparsers.choices.items()}
    assert listed == flags


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
    # each costs every command its import time and memory; the package uses
    # none of them (irreducibility is read from boolean matrix products)
    src = os.path.join(ROOT, "src")
    code = ("import kolsys.cli, sys; print(sorted(m for m in ('scipy.integrate', "
            "'scipy.optimize', 'scipy.sparse.csgraph') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_console_entry_point_writes_the_bytes_of_run(tmp_path):
    # `python -m kolsys.cli` goes through main(), which the installed script runs
    path = tmp_path / "small.cfg"
    path.write_text(FAST_CFG.replace("n_per_axis = 161", "n_per_axis = 81"))
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-m", "kolsys.cli", "measure", "--config", str(path),
                           "--out", str(tmp_path / "main.csv")], env=env, capture_output=True,
                          check=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert run(["measure", "--config", str(path), "--out", str(tmp_path / "run.csv")]) == 0
    assert (tmp_path / "main.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()
    bare = subprocess.run([sys.executable, "-m", "kolsys.cli"], env=env, capture_output=True,
                          check=False)
    assert bare.returncode == 2


def test_cpu_total_reports_one_json_line_and_the_command_exit_code(fast_cfg, tmp_path):
    out = tmp_path / "report.txt"
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "cpu_total.py"),
                           "verify", "--suite", "counterexample", "--config", str(fast_cfg),
                           "--out", str(out)], capture_output=True, text=True, check=False)
    [line] = proc.stdout.splitlines()
    rec = json.loads(line)
    assert proc.returncode == rec["rc"] == 0 and out.read_text().startswith("property,")
    assert rec["total_cpu_s"] == rec["self_cpu_s"] + rec["children_cpu_s"]
    assert min(rec["wall_s"], rec["self_cpu_s"], rec["vm_hwm_mb"]) > 0
    assert rec["children_cpu_s"] >= 0
    # the suite forks one worker when two cores are usable
    assert rec["children_hwm_mb"] > 0 if len(os.sched_getaffinity(0)) > 1 else \
        rec["children_hwm_mb"] >= 0


# -- _concurrently: independent tasks, the first here and the others in forked workers

@pytest.fixture
def cores(monkeypatch):
    """Pretend this process may run on `n` cores; a test that waits on its
    workers for a minute fails instead of hanging."""
    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def expire(signum, frame):
        raise TimeoutError("still waiting on a worker after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield set_cores
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _square(k):
    return lambda: (k * k, np.arange(k, dtype=float) / 3.0, os.getpid())


@pytest.mark.parametrize("n_cores", [2, 3])
def test_concurrently_returns_the_serial_results_in_task_order(cores, n_cores):
    cores(n_cores)
    tasks = [_square(k) for k in range(5)]
    got = _concurrently(tasks)
    want = [task() for task in tasks]
    assert [g[0] for g in got] == [w[0] for w in want] == [0, 1, 4, 9, 16]
    assert all(np.array_equal(g[1], w[1]) for g, w in zip(got, want))
    # the first task ran here, every other one in a worker of its own
    pids = [g[2] for g in got]
    assert pids[0] == os.getpid() and len(set(pids[1:]) - {os.getpid()}) == 4
    assert _no_child_left()
    # and it leaves no thread behind, which would make the next call serial
    assert threading.active_count() == 1


def _fail(exc, delay=0.0):
    def task():
        time.sleep(delay)
        raise exc
    return task


def test_concurrently_reraises_a_worker_exception_with_its_type_and_message(cores):
    cores(2)
    with pytest.raises(ConfigError, match=r"^line 7: bad ladder$") as info:
        _concurrently([_square(2), _fail(ConfigError("bad ladder", 7))])
    assert type(info.value) is ConfigError and info.value.line == 7
    assert _no_child_left()


@pytest.mark.parametrize("n_cores", [2, 3])
def test_concurrently_raises_the_earliest_failure(cores, n_cores):
    # with three cores tasks 1 and 2 run at once, and task 2 fails first
    cores(n_cores)
    with pytest.raises(ValueError, match="task 1"):
        _concurrently([_square(2), _fail(ValueError("task 1"), delay=0.3),
                       _fail(KeyError("task 2")), _square(3)])
    assert _no_child_left()
    # a failure here, in the first task, wins over every worker's
    with pytest.raises(RuntimeError, match="task 0"):
        _concurrently([_fail(RuntimeError("task 0"), delay=0.3), _fail(ValueError("task 1"))])
    assert _no_child_left()


def test_concurrently_kills_a_running_worker_when_an_earlier_task_fails(cores):
    cores(2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="task 0"):
        _concurrently([_fail(RuntimeError("task 0")), lambda: time.sleep(30)])
    assert time.monotonic() - start < 5
    assert _no_child_left()


def test_concurrently_runs_serially_on_one_core_and_inside_a_worker(cores, monkeypatch):
    pids = [lambda: os.getpid()] * 3
    cores(1)
    assert _concurrently(pids) == [os.getpid()] * 3
    cores(2)
    nested = _concurrently([lambda: None, lambda: (os.getpid(), _concurrently(pids))])[1]
    assert nested[1] == [nested[0]] * 3 and nested[0] != os.getpid()
    # and it forks nothing while another Python thread runs
    monkeypatch.setattr(cli.threading, "active_count", lambda: 2)
    assert _concurrently(pids) == [os.getpid()] * 3
    assert _no_child_left()


def test_concurrently_names_a_worker_that_died_without_a_result(cores):
    cores(2)

    def dies():
        os._exit(3)

    def killed():
        os.kill(os.getpid(), signal.SIGKILL)

    def exits():
        os._exit(0)

    # a worker killed by a signal reads as minus the signal's number, and a
    # clean exit before the result is no result either
    for task, status in ((dies, "3"), (killed, "-9"), (exits, "0")):
        with pytest.raises(RuntimeError, match=rf"task 1 \(.*{task.__name__}\) ended without "
                                               rf"a result, exit status {status}$"):
            _concurrently([_square(2), task])
        assert _no_child_left()


def test_verify_error_in_a_worker_matches_the_serial_run(tmp_path, cores, capsys):
    # the ladder's rungs do not share h: the ladder task, a worker's, raises
    path = tmp_path / "asy.cfg"
    path.write_text(FAST_CFG.replace("[verify]", "[nest]\nladder = 4:161, 6:201\n"
                                     "nest_tol = 1e-1\nR_obs = 3.0\n\n[verify]"))
    seen = []
    for n_cores in (2, 1):
        cores(n_cores)
        code = run(["verify", "--config", str(path), "--suite", "asymptotic",
                    "--out", str(tmp_path / "report.txt")])
        seen.append((code, capsys.readouterr().err))
        assert _no_child_left()
    assert seen[0] == seen[1] == (2, "error: ladder rungs must share the grid spacing h\n")
    assert not (tmp_path / "report.txt").exists()


def test_simulate_nested_error_in_a_worker_matches_the_serial_run(tmp_path, cores, capsys,
                                                                  monkeypatch):
    # a step of the stack that holds the Dirichlet twin fails; on two cores
    # that stack, {4:161, 6:241 Dirichlet}, is the worker's
    path = tmp_path / "nested.cfg"
    path.write_text(FAST_CFG.replace("[verify]", "[nest]\nladder = 4:161, 6:241\n"
                                     "nest_tol = 1e-4\nR_obs = 3.0\n\n[verify]")
                    .replace("t_final = 2.0", "t_final = 0.2"))
    failed_in = multiprocessing.Value("q", 0)
    real_step = ThetaStepper.step

    def step(self):
        if any(op.boundary_kind == "dirichlet" for op in self.ops):
            failed_in.value = os.getpid()
            raise SolveError("step failed at the twin")
        return real_step(self)

    monkeypatch.setattr(ThetaStepper, "step", step)
    seen = []
    for n_cores in (2, 1):
        cores(n_cores)
        code = run(["simulate", "--config", str(path), "--nested",
                    "--out", str(tmp_path / "traj.csv")])
        seen.append((code, capsys.readouterr(), failed_in.value == os.getpid()))
        assert _no_child_left()
    assert [(code, out, err, here) for code, (out, err), here in seen] == \
        [(2, "", "error: step failed at the twin\n", False),
         (2, "", "error: step failed at the twin\n", True)]
    assert os.listdir(tmp_path) == ["nested.cfg"]


UNSTABLE_CFG = FAST_CFG.replace("dt = 2e-3", "dt = 0.1").replace(
    "t_final = 2.0", "t_final = 20.0").replace("theta = 0.5", "theta = 0.0")


def test_simulate_error_in_the_stepping_worker_matches_the_serial_run(tmp_path, cores, capsys,
                                                                      monkeypatch):
    # explicit Euler at dt = 0.1 blows up; on two cores the run steps in a
    # worker that streams its states, on one it steps here
    path = tmp_path / "unstable.cfg"
    path.write_text(UNSTABLE_CFG)
    stepped_in = multiprocessing.Value("q", 0)
    real_step = ThetaStepper.step

    def step(self):
        stepped_in.value = os.getpid()
        return real_step(self)

    monkeypatch.setattr(ThetaStepper, "step", step)
    seen = []
    for n_cores in (2, 1):
        cores(n_cores)
        code = run(["simulate", "--config", str(path), "--out", str(tmp_path / "traj.csv")])
        seen.append((code, capsys.readouterr(), stepped_in.value == os.getpid()))
        assert _no_child_left()
    assert [(code, out, err, here) for code, (out, err), here in seen] == \
        [(2, "", "error: non-finite state at t = 13.3; time step unstable for this operator\n",
          False),
         (2, "", "error: non-finite state at t = 13.3; time step unstable for this operator\n",
          True)]
    assert os.listdir(tmp_path) == ["unstable.cfg"]


# FAST_CFG with a two-rung ladder, run to t = 0.2: 100 steps, each stored
STREAM_CFG = FAST_CFG.replace("[verify]", "[nest]\nladder = 4:161, 6:241\n"
                              "nest_tol = 1e-4\nR_obs = 3.0\n\n[verify]") \
    .replace("t_final = 2.0", "t_final = 0.2")


@pytest.mark.parametrize("nested", [False, True])
def test_a_stepping_worker_killed_mid_run_is_named(tmp_path, cores, capsys, monkeypatch, nested):
    # the worker that streams the run written dies after its 20th step, with
    # stored states already sent: of SIGKILL, or by a clean exit, which ends
    # the states as early
    path = tmp_path / "fast.cfg"
    path.write_text(STREAM_CFG)
    here, steps = os.getpid(), []
    real_step = ThetaStepper.step

    def step(self):
        if os.getpid() != here and any(op.grid.L == 6.0 and op.boundary_kind == "neumann"
                                       for op in self.ops):
            steps.append(None)
            if len(steps) == 20:
                end()
        return real_step(self)

    monkeypatch.setattr(ThetaStepper, "step", step)
    cores(2)
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "traj.csv")]
    for end, status in ((lambda: os.kill(os.getpid(), signal.SIGKILL), "-9"),
                        (lambda: os._exit(0), "0")):
        assert run(argv + ["--nested"] * nested) == 2
        assert capsys.readouterr().err == \
            f"error: task 0 (_stepping) ended without a result, exit status {status}\n"
        assert _no_child_left()
        assert os.listdir(tmp_path) == ["fast.cfg"]


@pytest.mark.parametrize("nested", [False, True])
def test_a_failure_here_kills_the_streaming_worker(tmp_path, cores, capsys, monkeypatch, nested):
    # formatting the 3rd stored time fails here while a worker steps on; each
    # worker then sleeps 30 s at its 20th step, so a fast return shows that
    # it was killed, not waited for
    path = tmp_path / "fast.cfg"
    path.write_text(STREAM_CFG)
    here, steps = os.getpid(), []
    real_step, real_csv = ThetaStepper.step, cli._trajectory_csv

    def step(self):
        if os.getpid() != here:
            steps.append(None)
            if len(steps) == 20:
                time.sleep(30)
        return real_step(self)

    def trajectory_csv(traj, i, nodes, chunks):
        if i == 2:
            raise OSError("no space left for the 3rd stored time")
        real_csv(traj, i, nodes, chunks)

    monkeypatch.setattr(ThetaStepper, "step", step)
    monkeypatch.setattr(cli, "_trajectory_csv", trajectory_csv)
    cores(2)
    start = time.monotonic()
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "traj.csv")]
               + ["--nested"] * nested) == 2
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err == "error: no space left for the 3rd stored time\n"
    assert _no_child_left()
    assert os.listdir(tmp_path) == ["fast.cfg"]


@pytest.mark.parametrize("nested", [False, True])
def test_the_command_frees_its_stepper_once_a_worker_steps(tmp_path, cores, monkeypatch,
                                                            nested):
    # the stepper of the streamed stack is made here, before the fork; once a
    # worker steps, the command's copy must be gone by the first state it gets
    path = tmp_path / "fast.cfg"
    path.write_text(STREAM_CFG)
    here, made, seen = os.getpid(), [], []
    real_init, real_csv = ThetaStepper.__init__, cli._trajectory_csv

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if os.getpid() == here:
            made.append(weakref.ref(self))

    def trajectory_csv(traj, i, nodes, chunks):
        if i == 1:
            seen.append([ref() is None for ref in made])
        real_csv(traj, i, nodes, chunks)

    monkeypatch.setattr(ThetaStepper, "__init__", init)
    monkeypatch.setattr(cli, "_trajectory_csv", trajectory_csv)
    cores(2)
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path / "traj.csv")]
               + ["--nested"] * nested) == 0
    assert seen == [[True]]
    assert _no_child_left()
