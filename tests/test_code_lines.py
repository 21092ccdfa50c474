"""Smoke test of tools/code_lines.py on a small temporary module."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "code_lines.py")

MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line


# a comment-only line
class Box:
    """One line."""

    size = (1,
            2)

    def area(self):
        """Two
        lines."""
        return math.prod(self.size)


async def nothing():
    """"""
    s = """a string that is no docstring
    spans two lines"""
    return s
'''


def test_counts_code_lines_only(tmp_path):
    # code lines: import, class, size (two lines), def area, return,
    # async def, s (two lines), return: 10
    path = tmp_path / "box.py"
    path.write_text(MODULE)
    proc = subprocess.run(
        [sys.executable, TOOL, str(path), str(tmp_path)],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    counts = [int(line.split()[0]) for line in proc.stdout.splitlines()]
    # the file named, the same file found in its directory, the total
    assert counts == [10, 10, 20]
    assert proc.stdout.splitlines()[-1].split()[1] == "total"
