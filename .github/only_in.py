"""Fail when a tracked file under src/ names WORD outside one function.

    python3 .github/only_in.py WORD [FILE FUNCTION]

FILE is a path under src/ and FUNCTION a top-level function of it; WORD
may appear on that function's lines and nowhere else under src/, not even
in a comment.  With FILE and FUNCTION omitted, WORD may appear nowhere
under src/.  WORD is matched as plain text.  Run from the root of the
repository: the files are those that `git ls-files src` lists.  Exits 0,
or 1 with the offending lines.
"""
import ast
import subprocess
import sys
from pathlib import Path


def main(word: str, file: str | None = None, function: str | None = None) -> int:
    bad = []
    for path in subprocess.run(["git", "ls-files", "src"], capture_output=True,
                               text=True, check=True).stdout.split():
        text = open(path, encoding="utf-8").read()
        allowed = set()
        if file is not None and Path(path) == Path(file):
            fn = next(node for node in ast.parse(text).body
                      if isinstance(node, ast.FunctionDef) and node.name == function)
            allowed = set(range(fn.lineno, fn.end_lineno + 1))
        bad += [f"{path}:{i}: {line.strip()}"
                for i, line in enumerate(text.splitlines(), 1)
                if word in line and i not in allowed]
    if bad:
        where = f" outside {Path(file).stem}.{function}" if file else ""
        print("\n".join([f"src/ names {word}{where}:", *bad]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
