"""Count the code lines of a package: lines that hold a token other than a
comment or a docstring (a string that is a statement of its own).

Blank lines, comment lines and the lines of docstrings are not counted; a
line that holds code and a comment is. Prints the count per module and in
total:

    python scripts/loc.py [src/g4vlines]
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

# tokens that are layout, not code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the logical line so far
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            # a statement that is one string is a docstring
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default="src/g4vlines",
                        type=Path, help="directory of .py files (default: %(default)s)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
