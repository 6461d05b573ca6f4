import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
_spec = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)


def test_counts_code_lines_only(tmp_path):
    source = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return (
            1
        )


TEXT = """a string
that is not a docstring"""
'''
    path = tmp_path / "m.py"
    path.write_text(source)
    # import, class, def, the three lines of the return and the two of TEXT
    assert codelines.code_lines(str(path)) == 8
