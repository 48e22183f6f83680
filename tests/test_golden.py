"""Golden bytes: SHA-256 of the check report, the measure CSV and the simulate
CSV for a small anisotropic d = 2 config.

The hashes were captured on the code before the coefficient fields were
batched, with no source file edited.  A performance change must leave every
output byte-identical; a change that moves a value on purpose updates the
hash and says in CHANGES.md which operation moved it and by how much.
"""

import hashlib

import pytest

from kolsys.cli import run

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

GOLDEN = {
    ("check", "--kp"): (GOLDEN_CFG, 0, "5869218174247867fb86f5379654516dcf5a855a98403856aaef6c963042a262"),
    ("measure",): (MEASURE_CFG, 0, "1bd66d55a6ec76d231270b13cc8735250ed09538319296a4923226a5a17cbec4"),
    ("simulate",): (GOLDEN_CFG, 0, "283ee16cdaae3cd5a8a29fc3cfc1d1bd9f1640d7232a003625766d6c6173c343"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=lambda a: a[0])
def test_output_bytes_pinned(tmp_path, argv):
    text, want_code, want_digest = GOLDEN[argv]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.txt"
    code = run([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert (code, digest) == (want_code, want_digest)
