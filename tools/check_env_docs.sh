#!/usr/bin/env bash
# Fails when an SPSTREAM_* environment variable read by the code is missing
# from the reference table in docs/DURABILITY.md, section "Environment
# variables (complete reference)", so a knob cannot come back undocumented.
#
# A name counts as read when it appears as a quoted "SPSTREAM_..." literal in
# a C++ file under src/, tools/, tests/ or bench/: that covers getenv calls
# and the helpers that wrap them (the overload controller's EnvFlag/EnvInt).
#
# Usage: tools/check_env_docs.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
doc="$root/docs/DURABILITY.md"

read_names=$(grep -rhoE --include='*.cc' --include='*.h' \
               '"SPSTREAM_[A-Z0-9_]+"' \
               "$root/src" "$root/tools" "$root/tests" "$root/bench" |
             tr -d '"' | sort -u)

documented=$(awk '/^## Environment variables \(complete reference\)/ {on = 1; next}
                  /^## / {on = 0}
                  on' "$doc" |
             grep -oE '^\| `SPSTREAM_[A-Z0-9_]+`' | tr -d '|` ' | sort -u || true)

missing=$(comm -23 <(printf '%s\n' "$read_names") \
                   <(printf '%s\n' "$documented"))
if [[ -n "$missing" ]]; then
  echo "SPSTREAM_* variables read by the code but missing from" \
       "docs/DURABILITY.md's reference table:" >&2
  printf '  %s\n' $missing >&2
  exit 1
fi
echo "check_env_docs: all $(printf '%s\n' "$read_names" | wc -l) SPSTREAM_*" \
     "variables are documented"
