"""Count the source lines of a package directory, without comments, blanks or docstrings.

Usage: python3 tools/src_lines.py DIR
       python3 tools/src_lines.py OLD_DIR NEW_DIR

A line counts when it holds a token other than a comment, a blank line or a
docstring (a string literal that is a statement on its own at the start of
a module or block).  A token spanning several lines counts each of them.
Prints one ``name count`` line per ``*.py`` file of DIR, sorted by name,
then ``total count``.  Given two directories, it prints ``name old new
difference`` for each file of either (a file missing from one counts 0),
then the same for the totals, the difference signed as in "-25".
Standard library only.
"""

from __future__ import annotations

import io
import sys
import tokenize as T
from pathlib import Path

SKIP = {T.COMMENT, T.NL, T.NEWLINE, T.INDENT, T.DEDENT, T.ENDMARKER}


def count_lines(source: str) -> int:
    toks = [k for k in T.generate_tokens(io.StringIO(source).readline)
            if k.type not in (T.COMMENT, T.NL)]
    lines = set()
    for i, k in enumerate(toks):
        docstring = (k.type == T.STRING
                     and (i == 0 or toks[i - 1].type in (T.NEWLINE, T.INDENT, T.DEDENT))
                     and toks[i + 1].type in (T.NEWLINE, T.ENDMARKER))
        if k.type not in SKIP and not docstring:
            lines.update(range(k.start[0], k.end[0] + 1))
    return len(lines)


def counts(directory: Path) -> dict[str, int]:
    """The counted lines of each ``*.py`` file of ``directory``, by file name."""
    return {path.name: count_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def main(argv: list[str]) -> int:
    dirs = [Path(arg) for arg in argv[1:]]
    if len(dirs) not in (1, 2) or not all(d.is_dir() for d in dirs):
        print("usage: python3 tools/src_lines.py DIR | OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    trees = [counts(d) for d in dirs]
    rows = [(name, [tree.get(name, 0) for tree in trees])
            for name in sorted(set().union(*trees))]
    rows.append(("total", [sum(tree.values()) for tree in trees]))
    for name, values in rows:
        diff = [f"{values[1] - values[0]:+d}"] if len(values) == 2 else []
        print(name, *values, *diff)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
