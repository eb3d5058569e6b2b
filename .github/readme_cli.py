"""Run the installed `nonlocper` console script on every command of the
README's CLI block, each with a u.csv of its --N samples in the working
directory, and fail on a nonzero exit.  Then check three inputs that must
exit 2, 2 and 3 without a traceback: an unread flag, a CSV path that is a
directory, and an iteration budget that the descent cannot meet.

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
fraclap = ["--kernel", "fraclap", "--s", "0.5"]
for want, argv in (
        (2, ["dtn-check", "--L", "2.0"]),
        (2, ["symbol", *fraclap, "--L", "3.14159", "--N", "64", "--out", "blocked"]),
        (3, ["minimize", *fraclap, "--L", "12.566", "--N", "256", "--constraint", "5",
             "--seed", "1", "--max-iters", "1", "--out", "out"])):
    argv = ["nonlocper", *argv]
    print("+", shlex.join(argv), f"# expects exit {want}", flush=True)
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stderr)
    assert proc.returncode == want and "Traceback" not in proc.stderr, proc.returncode
