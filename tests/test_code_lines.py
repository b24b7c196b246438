import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "code_lines.py")

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """Function docstring."""
    s = """not a docstring:
    both lines count"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 2
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "mod.py").write_text(FIXTURE)
    (pkg / "sub" / "empty.py").write_text("# only a comment\n\n")
    r = subprocess.run([sys.executable, TOOL, str(pkg)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = [line.split() for line in r.stdout.splitlines()]
    # import, def, two lines of s, two of the return, class, y = 2
    assert lines == [["8", "mod.py"], ["0", os.path.join("sub", "empty.py")],
                     ["8", "total"]]
