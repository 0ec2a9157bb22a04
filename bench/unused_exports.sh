#!/usr/bin/env bash
# List exported values that nothing outside their own module names.
#
#   bash bench/unused_exports.sh
#
# Word-matches every `val` of lib/*/*.mli against every .ml file in lib,
# bin, bench, benchmark, test and examples other than the module's own
# implementation. A hit anywhere counts as a use, so a common name (say
# `create`) can hide a dead export; a miss is a name no other file
# spells, which is either dead or should be module-private. Exits 1 if
# any unused name is not on the allowlist.
set -euo pipefail
cd "$(dirname "$0")/.."

# Module.name -> reason. Only a pretty-printer that CLI or repro output
# prints may be kept exported without another user.
declare -A ALLOWED=()

mapfile -t sources < <(find lib bin bench benchmark test examples -name '*.ml' | sort)

status=0
for mli in lib/*/*.mli; do
  own="${mli%i}"
  others=()
  for f in "${sources[@]}"; do [ "$f" != "$own" ] && others+=("$f"); done
  module=$(basename "$mli" .mli)
  module="${module^}"
  for name in $(sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" "$mli" | sort -u); do
    grep -qw -- "$name" "${others[@]}" && continue
    reason="${ALLOWED[$module.$name]:-}"
    if [ -n "$reason" ]; then
      echo "kept   $module.$name ($reason)"
    else
      echo "unused $module.$name ($mli)"
      status=1
    fi
  done
done
exit "$status"
