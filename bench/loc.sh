#!/usr/bin/env bash
# OCaml line counts of two checkouts, per path, with the delta.
#
#   bash bench/loc.sh OLD_DIR NEW_DIR PATH...
#
# OLD_DIR and NEW_DIR are two checkouts of the repository, as for
# bench/cli_identity.sh. Each PATH is relative to a checkout's root: a file,
# or a directory whose .ml and .mli files are counted recursively (_build
# and .git skipped). A path missing from one checkout counts as empty there.
# Each line of a file is one of:
#   blank    only white space;
#   comment  no code outside comments, so every line of a comment (nested
#            comments included, and strings within them) is one;
#   code     anything else, a string literal spanning lines included.
# Prints, per path and then for all paths together, the old and new count
# and the delta of code, comment and blank lines.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,/^set /p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
  exit 2
fi

exec python3 - "$@" <<'EOF'
import os
import sys

old, new, paths = sys.argv[1], sys.argv[2], sys.argv[3:]


def files(root, path):
    full = os.path.join(root, path)
    if os.path.isfile(full):
        return [full]
    found = []
    for d, subdirs, names in os.walk(full):
        subdirs[:] = sorted(s for s in subdirs if s not in ("_build", ".git"))
        found += [os.path.join(d, n) for n in sorted(names) if n.endswith((".ml", ".mli"))]
    return found


def char_literal(s, i):
    """Length of the character literal at s[i] (a quote), or 0."""
    if s.startswith("\\", i + 1):
        j = s.find("'", i + 2)
        return j - i + 1 if 0 < j - i <= 5 else 0
    return 3 if i + 2 < len(s) and s[i + 2] == "'" else 0


def count(path):
    code = comment = blank = 0
    depth = 0
    in_string = False
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            if not line.strip():
                blank += 1
                continue
            has_code = False
            i, n = 0, len(line)
            while i < n:
                c = line[i]
                if in_string:
                    has_code |= depth == 0
                    if c == "\\":
                        i += 2
                        continue
                    if c == '"':
                        in_string = False
                    i += 1
                elif line.startswith("(*", i):
                    depth += 1
                    i += 2
                elif depth > 0 and line.startswith("*)", i):
                    depth -= 1
                    i += 2
                elif c == '"':
                    in_string = True
                    has_code |= depth == 0
                    i += 1
                elif c == "'" and char_literal(line, i):
                    has_code |= depth == 0
                    i += char_literal(line, i)
                else:
                    has_code |= depth == 0 and not c.isspace()
                    i += 1
            if has_code:
                code += 1
            else:
                comment += 1
    return code, comment, blank


def totals(root, path):
    sums = [0, 0, 0]
    for f in files(root, path):
        sums = [a + b for a, b in zip(sums, count(f))]
    return sums


width = max(len(p) for p in paths + ["total"])


def row(label, a, b):
    cells = "".join(f"  {x:>11} {y:>11} {y - x:>+6}" for x, y in zip(a, b))
    print(f"{label:<{width}}{cells}")


head = "".join(f"  {k + ' old':>11} {k + ' new':>11} {'delta':>6}" for k in ("code", "comment", "blank"))
print(f"{'path':<{width}}{head}")
all_old, all_new = [0, 0, 0], [0, 0, 0]
for p in paths:
    a, b = totals(old, p), totals(new, p)
    row(p, a, b)
    all_old = [x + y for x, y in zip(all_old, a)]
    all_new = [x + y for x, y in zip(all_new, b)]
if len(paths) > 1:
    row("total", all_old, all_new)
EOF
