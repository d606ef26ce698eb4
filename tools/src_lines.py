"""Count the source lines of a package directory, without comments, blanks or docstrings.

Usage: python3 tools/src_lines.py DIR

A line counts when it holds a token other than a comment, a blank line or a
docstring (a string literal that is a statement on its own at the start of
a module or block).  A token spanning several lines counts each of them.
Prints one ``name count`` line per ``*.py`` file of DIR, sorted by name,
then ``total count``.  Standard library only.
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


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not Path(argv[1]).is_dir():
        print("usage: python3 tools/src_lines.py DIR", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[1]).glob("*.py")):
        count = count_lines(path.read_text(encoding="utf-8"))
        total += count
        print(path.name, count)
    print("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
