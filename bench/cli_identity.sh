#!/usr/bin/env bash
# CLI output identity between two checkouts.
#
#   bash bench/cli_identity.sh OLD_DIR NEW_DIR              # every CI command
#   bash bench/cli_identity.sh OLD_DIR NEW_DIR chaos --plan-seed 2   # one command
#
# OLD_DIR and NEW_DIR are two checkouts of the repository (each builds its
# own `_build`), as for bench/ab.py. Without further arguments it runs every
# `tashkent_cli.exe` command of NEW_DIR's .github/workflows/ci.yml (the
# chaos, soak, explore, run, consistency, trace and recovery steps,
# including the no-GC soak control that exits 1); with arguments it runs
# just that one command. Each command runs once per checkout, one at a
# time, from its own output directory (`trace` writes trace.json to the
# cwd). It compares stdout and exit code and exits 1 on any difference.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,/^set /p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
  exit 2
fi
old=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
shift 2

commands=()
if [ $# -gt 0 ]; then
  commands=("$*")
else
  while IFS= read -r line; do
    commands+=("$line")
  done < <(grep -o 'tashkent_cli\.exe -- [^;]*' "$new/.github/workflows/ci.yml" \
    | sed 's/^tashkent_cli\.exe -- //; s/ *$//')
fi

for dir in "$old" "$new"; do
  (cd "$dir" && dune build bin/tashkent_cli.exe)
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
differ=0
i=0
for cmd in "${commands[@]}"; do
  i=$((i + 1))
  for side in old new; do
    dir=$old
    [ "$side" = new ] && dir=$new
    mkdir -p "$out/$side/$i"
    status=0
    # $cmd is one CI command line: its words are the CLI's arguments
    # shellcheck disable=SC2086
    (cd "$out/$side/$i" && "$dir/_build/default/bin/tashkent_cli.exe" $cmd \
      >stdout 2>stderr) || status=$?
    echo "$status" >"$out/$side/$i/status"
  done
  if cmp -s "$out/old/$i/stdout" "$out/new/$i/stdout" \
    && cmp -s "$out/old/$i/status" "$out/new/$i/status"; then
    echo "same (exit $(cat "$out/new/$i/status")): $cmd"
  else
    differ=1
    echo "DIFFERENT (exit $(cat "$out/old/$i/status") -> $(cat "$out/new/$i/status")): $cmd"
    diff "$out/old/$i/stdout" "$out/new/$i/stdout" | head -20 || true
  fi
done
if [ "$differ" -ne 0 ]; then
  echo "cli_identity: stdout or exit code differs" >&2
  exit 1
fi
echo "cli_identity: ${#commands[@]} commands identical"
