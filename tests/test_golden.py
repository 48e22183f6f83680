"""Golden bytes: SHA-256 of the check report, the measure CSV and the simulate
CSV for a small anisotropic d = 2 config, and of the core, asymptotic and
rates reports, the sweep summary, the simulate CSV and the simulate --nested
CSV and stdout for small d = 1 configs.

The d = 2 hashes were captured on the code before the coefficient fields
were batched, the d = 1 hashes on the code before time stepping was batched,
each with no source file edited.  The d = 2 simulate hash was re-pinned
when the d = 2 time-step matrices moved to the MMD_AT_PLUS_A ordering,
which moved that CSV by at most 2.6e-15.  The core hash was re-pinned when
the witness of a passing `spectral_structure` line became the point of the
largest real part instead of the first sample point; no value moved.  A
performance change must leave every output byte-identical; a change that
moves a value on purpose updates the hash and says in CHANGES.md which
operation moved it and by how much.
"""

import hashlib
import multiprocessing
import os
import threading

import pytest

import kolsys.cli as cli
from kolsys.cli import run
from kolsys.semigroup import ThetaStepper

GOLDEN_CFG = """\
[problem]
d = 2
m = 2
gamma = 1.0
beta = 1.0
b0 = 1.0
q0 = 2.0, 0.5, 0.5, 1.0
coupling_kind = exchange2

[grid]
L = 6.0
n_per_axis = 31
boundary = neumann

[time]
dt = 1e-3
t_final = 0.005
theta = 0.5
store_every = 2
"""

# The invariant-density solve fails on a 31 x 31 grid for every q12 != 0
# field tried, so `measure` runs with Q0 = I.
MEASURE_CFG = GOLDEN_CFG.replace("q0 = 2.0, 0.5, 0.5, 1.0", "q0 = 1.0, 0.0, 0.0, 1.0")

D1_CFG = """\
[problem]
d = 1
m = 2
gamma = 0.0
beta = 1.0
b0 = 1.0
coupling_kind = exchange2

[grid]
L = 6.0
n_per_axis = 121
boundary = neumann

[time]
dt = 4e-3
t_final = 3.0
theta = 0.5

[data]
f = tanh, gauss

[verify]
R_obs = 3.0

[run]
seed = 0
"""

# the 6:121 rung is the suite's grid, and t_final = 3 is the Cesaro n: that
# rung is the run the Cesaro check needs
ASYMPTOTIC_CFG = D1_CFG + """
[nest]
ladder = 4:81, 6:121
nest_tol = 1e-1
R_obs = 3.0
"""

RATES_CFG = """\
[problem]
d = 1
m = 2
coupling_kind = exchange2

[grid]
L = 4.0
n_per_axis = 321
boundary = neumann

[time]
dt = 2.5e-4
t_final = 0.1
theta = 0.5

[verify]
R_obs = 3.0
"""

# two families (gamma = 2 fails the Lyapunov check) times two values of p
SWEEP_CFG = D1_CFG.replace("t_final = 3.0", "t_final = 2.0") + """
[sweep]
gamma = 0, 2
beta = 1
p = 2, 4
cap = 8
workers = 2
"""

# the counterexample suite swaps in constant couplings C0 = +I and -I; the
# zeta3 check reads its coupling derivative.  Both were pinned before the
# builtin coefficient family was rewritten, with no source file edited.
COUNTEREXAMPLE_CFG = D1_CFG.replace("t_final = 3.0", "t_final = 2.0")

# the asymptotic suite where f's block run is not a ladder rung: t_final is
# not an integer, so the Cesaro check runs f apart, or the suite grid is on no
# rung; and where it is the middle one of three rungs, so that its place in
# the ladder shows in the discrepancies.  All three pinned before the
# ladder's runs were judged where they were made, with no source file edited.
ASYMPTOTIC_T_CFG = ASYMPTOTIC_CFG.replace("t_final = 3.0", "t_final = 2.5")
ASYMPTOTIC_OFF_CFG = ASYMPTOTIC_CFG.replace("L = 6.0\nn_per_axis = 121", "L = 5.0\nn_per_axis = 101")
ASYMPTOTIC_MID_CFG = ASYMPTOTIC_CFG.replace("ladder = 4:81, 6:121", "ladder = 4:81, 6:121, 8:161")

# a three-rung ladder and the Dirichlet twin of its last rung, pinned before
# simulate --nested split its runs across cores, with no source file edited
NESTED_CFG = D1_CFG.replace("t_final = 3.0", "t_final = 1.0") + """
[nest]
ladder = 4:81, 6:121, 8:161
nest_tol = 1e-1
R_obs = 3.0
"""

ZETA3_CFG = """\
[problem]
d = 2
m = 3
gamma = 0.5
beta = 0.5
b0 = 1.0
q0 = 2.0, 0.5, 0.5, 1.0
coupling_kind = zeta3

[grid]
L = 4.0
n_per_axis = 21
boundary = neumann
"""

# id -> (argv, config, exit code, SHA-256 of the output)
GOLDEN = {
    # re-pinned when the builtin family's derivatives moved onto np.power:
    # five K_p sups moved by at most 4.1e-16 relative, through the derivative
    # evaluators that only estimate_kp reads
    "check": (("check", "--kp"), GOLDEN_CFG, 0, "f9933e9179b964475ed2fdf86514e88bb0514c9baa10a3d4168c270e9300e0a2"),
    "check-zeta3": (("check", "--kp"), ZETA3_CFG, 0, "a58a5a993fcf8c382e4d1da15347ae377c1ba8b48d14513444b8fdf4c44a9a48"),
    "measure": (("measure",), MEASURE_CFG, 0, "1bd66d55a6ec76d231270b13cc8735250ed09538319296a4923226a5a17cbec4"),
    "simulate": (("simulate",), GOLDEN_CFG, 0, "0b77f7d20afb69bc47ebed54b81cf7290b4ac3067f7064eeadfb9292ff10fa89"),
    # pinned before simulate formatted its CSV while the run steps, with no
    # source file edited
    "simulate-d1": (("simulate",), D1_CFG, 0, "b2a243aa2207830d23c53c3b4b9a6936e4eea9c06a32a205ea4245ab3bdf5bfd"),
    "simulate-nested": (("simulate", "--nested"), NESTED_CFG, 0, "bcaa27c9b37a0419e83ed99be22a44292a597c5a17e77d0b3fc57bc927b7c7b0"),
    "verify-core": (("verify", "--suite", "core"), D1_CFG, 0, "79595f485d89a36bf82ba0c862c57a4a99f8bd2c899eceed15af3eeb3d66dae6"),
    "verify-asymptotic": (("verify", "--suite", "asymptotic"), ASYMPTOTIC_CFG, 1, "20039fc77c5cb455d5a0eadc628784da618dcd7807d0c8d2b1b2ac0d40abde3f"),
    # no [nest] section: the block's three lines alone.  Pinned before a
    # singular density adjoint became an error, with no source file edited
    "verify-asymptotic-no-nest": (("verify", "--suite", "asymptotic"), D1_CFG, 1, "94de20905ff96246f715111a0a6e8b8940eb1148219b92bf1278d5c7da1e9e90"),
    "verify-asymptotic-t2.5": (("verify", "--suite", "asymptotic"), ASYMPTOTIC_T_CFG, 1, "b802c09272316060fa201c92bdc88b35ae2df14bae18547e86573c76a2a63c43"),
    "verify-asymptotic-mid-rung": (("verify", "--suite", "asymptotic"), ASYMPTOTIC_MID_CFG, 1, "c20d5f712688201c1a2b5e47a6c521467497b70bf16cdbbedcaa1d3b873d2ac8"),
    "verify-asymptotic-off-ladder": (("verify", "--suite", "asymptotic"), ASYMPTOTIC_OFF_CFG, 1, "8dadc37e1df3cb96fd11774774c23561fa6370134473b4b38bdbe3697349da1c"),
    "verify-counterexample": (("verify", "--suite", "counterexample"), COUNTEREXAMPLE_CFG, 0, "6b3979d03565fe5d22bcdf496082599a0919cb8b1807a9b1cba7a92458d12a39"),
    "verify-rates": (("verify", "--suite", "rates"), RATES_CFG, 0, "b1f88c5052dc0d149f5c2e7600fcd2b70650b0987a8b344037eb0174b0ffed8c"),
    "sweep": (("sweep",), SWEEP_CFG, 1, "3402c953f3e9b5400dc7b510aee224c5ad7b8241fb102767dc03f65216e93cf0"),
}


# id -> SHA-256 of what the command prints; every other command prints nothing
STDOUT = {
    "simulate-nested": "50b897b2e9a52a93722330219890ec779994520c219ed790393699074b401e0f",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_pinned(tmp_path, capsys, name):
    argv, text, want_code, want_digest = GOLDEN[name]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.txt"
    code = run([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    printed = _sha256(capsys.readouterr().out.encode())
    assert (code, _sha256(out.read_bytes()), printed) == \
        (want_code, want_digest, STDOUT.get(name, _sha256(b"")))


def _one_core(monkeypatch):
    def no_fork():
        raise AssertionError("forked on one core")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.parametrize("name", ["simulate-nested", "verify-asymptotic",
                                  "verify-asymptotic-mid-rung", "verify-asymptotic-off-ladder",
                                  "verify-asymptotic-t2.5",
                                  "verify-core", "verify-counterexample"])
def test_output_bytes_pinned_on_one_core(tmp_path, capsys, monkeypatch, name):
    # these commands run independent groups of runs in forked workers; on one
    # core every group runs in this process, and the bytes are the same
    _one_core(monkeypatch)
    test_output_bytes_pinned(tmp_path, capsys, name)


# (steps, run-steps) of each d = 1 suite on the configs above: each distinct
# run happens once, in the command's process or in one of its workers, data
# that share an operator share their steps, and runs on stacked operators
# share them too.  A run-step is one datum on one operator advanced by one
# step.
STEP_COUNTS = {
    # fixed points 3 x 250 in one block; positivity 500; the theta = 1 system
    # and scalar runs, 750 steps stacked; invariance and the tanh and gauss
    # scalar runs, 750 steps stacked
    "core": (2250, 5000),
    # e1, the bump and f 3 x 750 in one block, whose f run is also the
    # ladder's 6:121 rung; unit run 250; discrete average 500; the 4:81 rung
    # and the Dirichlet run 750 each, stacked in one 750-step loop
    "asymptotic": (2250, 4500),
    # 3 system data in one block, 3 denominators in one block, 400 steps each
    "rates": (800, 2400),
}


def _count_steps(monkeypatch):
    """(steps, run-steps) from here on, in shared memory made before any
    fork: a worker's steps count here too."""
    counts = multiprocessing.Array("q", 2)
    real_step = ThetaStepper.step

    def counting_step(self):
        x = real_step(self)
        with counts.get_lock():
            counts[0] += 1
            counts[1] += x.shape[1] * len(self.blocks)
        return x

    monkeypatch.setattr(ThetaStepper, "step", counting_step)
    return counts


@pytest.mark.parametrize("suite", sorted(STEP_COUNTS))
def test_each_distinct_run_steps_once(tmp_path, monkeypatch, suite):
    counts = _count_steps(monkeypatch)
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN[f"verify-{suite}"][1])
    run(["verify", "--config", str(cfg), "--out", str(tmp_path / "out.txt"), "--suite", suite])
    assert tuple(counts[:]) == STEP_COUNTS[suite]


def _pretend(monkeypatch, mode):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if mode == "one-core":
        _one_core(monkeypatch)
    elif mode == "in-worker":
        monkeypatch.setattr(cli.multiprocessing, "parent_process", lambda: os.getppid())
    elif mode == "thread-running":
        monkeypatch.setattr(cli.threading, "active_count", lambda: 2)


@pytest.mark.parametrize("mode", ["one-core", "two-cores"])
def test_asymptotic_suite_without_a_ladder(tmp_path, capsys, monkeypatch, mode):
    # with no [nest] section the suite has no ladder task to run beside its
    # block: no worker on any number of cores, and the same bytes
    _pretend(monkeypatch, mode)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a worker"))
    test_output_bytes_pinned(tmp_path, capsys, "verify-asymptotic-no-nest")
    rows = [line.split(", ") for line in (tmp_path / "out.txt").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["longtime_convergence", "l2_gradient_decay",
                                        "cesaro_identity"]
    # the exit code is 1 exactly when a line fails
    assert GOLDEN["verify-asymptotic-no-nest"][2] == int(any(row[1] != "pass" for row in rows))


# (steps, run-steps) of simulate --nested on NESTED_CFG, by how many cores it
# may use: its four runs (the three rungs and the twin, 250 steps each) step
# as two stacks of two blocks on two cores, {8:161, 4:81} here and {6:121,
# 8:161 Dirichlet} in a worker, and as one stack of four otherwise
NESTED_STEP_COUNTS = {"two-cores": (500, 1000), "one-core": (250, 1000),
                      "in-worker": (250, 1000), "thread-running": (250, 1000)}


@pytest.mark.parametrize("mode", sorted(NESTED_STEP_COUNTS))
def test_simulate_nested_stacks_per_usable_core(tmp_path, monkeypatch, mode):
    counts = _count_steps(monkeypatch)
    _pretend(monkeypatch, mode)
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(NESTED_CFG)
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
                "--nested"]) == 0
    assert tuple(counts[:]) == NESTED_STEP_COUNTS[mode]


# steps of plain simulate: its one run, 5 steps on GOLDEN_CFG and 750 on D1_CFG
SIMULATE_STEPS = {"simulate": 5, "simulate-d1": 750}


@pytest.mark.parametrize("mode", sorted(NESTED_STEP_COUNTS))
@pytest.mark.parametrize("name", sorted(SIMULATE_STEPS))
def test_simulate_bytes_and_steps_in_every_mode(tmp_path, capsys, monkeypatch, mode, name):
    # on two cores a worker steps the run and streams its stored states to
    # this process, which formats them; otherwise this process steps and
    # formats in turn.  The bytes are the same, the run steps once, and no
    # thread is left behind, which would make the next command serial.
    counts = _count_steps(monkeypatch)
    _pretend(monkeypatch, mode)
    test_output_bytes_pinned(tmp_path, capsys, name)
    assert tuple(counts[:]) == (SIMULATE_STEPS[name],) * 2
    monkeypatch.undo()      # "thread-running" pretends a second thread
    assert threading.active_count() == 1
