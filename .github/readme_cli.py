"""Run the installed `nonlocper` console script on every command of the
README's CLI block, each with a u.csv of its --N samples in the working
directory, and fail on a nonzero exit.  Then check ten inputs that must
exit 0, 0, 0, 2, 2, 2, 2, 3, 3 and 3 without a traceback: a principal value
of the fractional Laplacian at s = 0.95, whose kernel z^(-2.9) the
quadrature must follow down to z = 0 (with a u.csv of 64 samples of
exp(cos x)), the principal value on the grid at N = 1024 (with a u1024.csv
of exp(cos x)), whose applied.csv must then match that of --mode spectral
to 1e-10, the principal value at a half period of 0.005, below the first
eps of the rule at L = pi (with a small.csv of exp(cos(pi x/L))), whose
applied.csv must match that of --mode spectral to 1e-10 of its largest
value, an unread flag, a CSV path that is a directory, a constraint level that a
homogeneous constraint cannot reach, a SineTail symbol at a half period of
1e-4, whose rule would need 2e7 nodes, above the cap on its node count, an
iteration budget that the descent cannot meet, a principal value at a half
period of 1e99, whose quadrature moments overflow (with a u.csv sampled on
that grid), and a SineTail kernel class at a half period of 1e-300, whose
report would hold a NaN, which JSON cannot carry.

Usage: python3 readme_cli.py path/to/README.md  (from a scratch directory)
"""

import os
import re
import shlex
import subprocess
import sys

import numpy as np

text = open(sys.argv[1], encoding="utf-8").read()
section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S)[1]
commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]
assert len(commands) == 11 and all(c[0] == "nonlocper" for c in commands), commands
for argv in commands:
    n = int(argv[argv.index("--N") + 1]) if "--N" in argv else 64
    x = np.linspace(-np.pi, np.pi, n + 1)[:-1]
    np.savetxt("u.csv", np.column_stack([x, np.exp(np.cos(x))]), delimiter=",",
               header="x,u", comments="")
    print("+", shlex.join(argv), flush=True)
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)

os.makedirs("blocked/symbol.csv", exist_ok=True)
x = np.linspace(-1e99, 1e99, 65)[:-1]
np.savetxt("big.csv", np.column_stack([x, np.exp(np.cos(np.pi * x / 1e99))]), delimiter=",",
           header="x,u", comments="")
x = np.linspace(-np.pi, np.pi, 65)[:-1]
np.savetxt("u.csv", np.column_stack([x, np.exp(np.cos(x))]), delimiter=",",
           header="x,u", comments="")
x = np.linspace(-0.005, 0.005, 65)[:-1]
np.savetxt("small.csv", np.column_stack([x, np.exp(np.cos(np.pi * x / 0.005))]), delimiter=",",
           header="x,u", comments="")
x = np.linspace(-np.pi, np.pi, 1025)[:-1]
np.savetxt("u1024.csv", np.column_stack([x, np.exp(np.cos(x))]), delimiter=",",
           header="x,u", comments="")
fraclap = ["--kernel", "fraclap", "--s", "0.5"]
grid1024 = [*fraclap, "--L", "3.14159", "--N", "1024", "--function", "u1024.csv"]
small = [*fraclap, "--L", "0.005", "--N", "64", "--function", "small.csv"]
for want, argv in (
        (0, ["apply", "--mode", "pv", "--kernel", "fraclap", "--s", "0.95", "--L", "3.14159",
             "--N", "64", "--function", "u.csv", "--out", "out"]),
        (0, ["apply", "--mode", "pv", *grid1024, "--out", "out-pv"]),
        (0, ["apply", "--mode", "pv", *small, "--out", "small-pv"]),
        (2, ["dtn-check", "--L", "2.0"]),
        (2, ["symbol", *fraclap, "--L", "3.14159", "--N", "64", "--out", "blocked"]),
        (2, ["minimize", *fraclap, "--L", "12.566", "--N", "64", "--constraint", "-1",
             "--seed", "1", "--out", "out"]),
        (2, ["symbol", "--kernel", "sinetail", "--s", "0.5", "--L", "0.0001", "--N", "16",
             "--out", "out"]),
        (3, ["minimize", *fraclap, "--L", "12.566", "--N", "256", "--constraint", "5",
             "--seed", "1", "--max-iters", "1", "--out", "out"]),
        (3, ["apply", "--mode", "pv", *fraclap, "--L", "1e99", "--N", "64",
             "--function", "big.csv", "--out", "out"]),
        (3, ["kernel-class", "--kernel", "sinetail", "--s", "0.5", "--L", "1e-300",
             "--out", "out"])):
    argv = ["nonlocper", *argv]
    print("+", shlex.join(argv), f"# expects exit {want}", flush=True)
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stderr)
    assert proc.returncode == want and "Traceback" not in proc.stderr, proc.returncode

for prefix, grid in (("out", grid1024), ("small", small)):
    argv = ["nonlocper", "apply", "--mode", "spectral", *grid, "--out", f"{prefix}-spectral"]
    print("+", shlex.join(argv), flush=True)
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    pv, spectral = (np.loadtxt(f"{prefix}-{mode}/applied.csv", delimiter=",", skiprows=1)[:, 1]
                    for mode in ("pv", "spectral"))
    # the values at L = 0.005 are of the size pi/L, hence the relative bound there
    scale = 1.0 if prefix == "out" else np.max(np.abs(spectral))
    assert np.max(np.abs(pv - spectral)) <= 1e-10 * scale, np.max(np.abs(pv - spectral))
