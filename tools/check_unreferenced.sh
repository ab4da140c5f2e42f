#!/usr/bin/env bash
# Fails when a function defined in src/ is called from nowhere, so code that
# no build, caller or setting reaches cannot come back unnoticed.
#
# Candidates come from two places:
#  * out of line: the T/W spstream:: symbols of libspstream.a that no object
#    of the build lists as undefined (U), i.e. that no other translation
#    unit links against;
#  * inline: the member functions defined in the class bodies of
#    src/**/*.h (an indented "<type> name(...) ... {" line).
# A candidate is reported when its name occurs in src/, tests/, bench/,
# tools/, examples/ and perfbench/ only as a declaration or a definition
# ("<type> name(" or "<type> Class::name("), never as a call or an address
# (&Class::name). Comment lines do not count as uses. Operators,
# constructors, destructors and virtual functions (the name appears on a
# `virtual` or `override` line) are exempt. A function kept on purpose is
# listed in tools/unreferenced_allowlist.txt as "name: reason".
#
# The check is by name, so a function that shares its name with a called one
# passes; it catches the common case, not every dead overload.
#
# Usage: tools/check_unreferenced.sh <build-dir>   (after a full build)
set -euo pipefail
shopt -s globstar nullglob

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$1"
lib="$build/src/libspstream.a"
if [[ ! -f "$lib" ]]; then
  echo "check_unreferenced: $lib not found (build first)" >&2
  exit 2
fi
allowlist="$root/tools/unreferenced_allowlist.txt"
dirs=("$root/src" "$root/tests" "$root/bench" "$root/tools"
      "$root/examples" "$root/perfbench")
ident='[A-Za-z_][A-Za-z0-9_]*'

# ---- candidates -----------------------------------------------------------

declare -A undefined=()
objects=("$build"/**/*.o)
while IFS= read -r sym; do
  undefined["$sym"]=1
done < <(nm -C -u "${objects[@]}" 2>/dev/null |
         grep -oE ' U spstream::.*$' | grep -oE 'spstream::.*$')

declare -A label=()  # candidate name -> how it is reported
while IFS= read -r sym; do
  [[ -n "${undefined[$sym]:-}" ]] && continue
  qualified="${sym%%(*}"
  name="${qualified##*::}"
  [[ "$name" =~ ^${ident}$ ]] || continue
  scope="${qualified%::*}"
  [[ "$name" == "${scope##*::}" ]] && continue  # constructor
  label["$name"]="${qualified#spstream::}"
done < <(nm -C --defined-only "$lib" 2>/dev/null |
         grep -E '^[0-9a-f]+ [TW] spstream::' |
         grep -oE 'spstream::.*$')

while IFS= read -r hit; do
  file="${hit%%:*}"
  rest="${hit#*:}"
  [[ "$rest" =~ (${ident})\ *\( ]] || continue
  name="${BASH_REMATCH[1]}"
  [[ "$name" =~ ^(constexpr|if|for|while|switch|catch)$ ]] && continue
  file="${file#"$root"/}"
  case "${label[$name]:-}" in
    "") label["$name"]="${file}: ${name}" ;;
    *"${file}"*|*::*) ;;  # same header again, or defined out of line too
    *) label["$name"]="${file}, ${label[$name]}" ;;
  esac
done < <(grep -rHoE --include='*.h' \
           "^ +(${ident}[A-Za-z0-9_:<>,]*[*&]* +)+${ident} *\([^;]*\)[^;]*\{" \
           "$root/src")

# ---- uses -----------------------------------------------------------------

# Every source line that is not a comment, once.
code() {
  grep -rhv --include='*.h' --include='*.cc' --include='*.cpp' \
       -E '^\s*(//|\*|/\*)' "${dirs[@]}"
}

declare -A occurrences=() defining=() exempt=() types=()
while IFS= read -r tok; do
  tok="${tok%%(*}"
  tok="${tok%% *}"
  tok="${tok##*::}"
  occurrences["$tok"]=$(( ${occurrences[$tok]:-0} + 1 ))
done < <(code | grep -oE "&(${ident}::)+${ident}|\b${ident} *\(")

# "<type> name(" and "<type> Class::name(": declarations and definitions.
# A keyword in the type position (return f(), new T(), ...) is a use.
keyword='^(return|new|delete|else|throw|case|co_return|co_await|sizeof|typeid)[ *&]'
while IFS= read -r tok; do
  [[ "$tok" =~ $keyword ]] && continue
  tok="${tok%(*}"
  tok="${tok%"${tok##*[! ]}"}"
  tok="${tok##*[ :*&>]}"
  defining["$tok"]=$(( ${defining[$tok]:-0} + 1 ))
done < <(code | grep -oE "(${ident}|>)[*&]* +(${ident}::)*${ident} *\(")

while IFS= read -r tok; do
  [[ "$tok" =~ (${ident})\ *\($ ]] && exempt["${BASH_REMATCH[1]}"]=1
done < <(code | grep -E '\b(virtual|override)\b' | grep -oE "\b${ident} *\(")

while IFS= read -r tok; do
  types["${tok##* }"]=1
done < <(code | grep -oE "\b(class|struct|union) ${ident}")

declare -A allowed=()
if [[ -f "$allowlist" ]]; then
  while IFS= read -r line; do
    [[ -z "$line" || "$line" == \#* ]] && continue
    if [[ ! "$line" =~ ^(${ident}):\ *[^\ ] ]]; then
      echo "check_unreferenced: allowlist entry without a reason: $line" >&2
      exit 2
    fi
    allowed["${BASH_REMATCH[1]}"]=1
  done < "$allowlist"
fi

# ---- verdict --------------------------------------------------------------

unreferenced=()
for name in "${!label[@]}"; do
  [[ "$name" == operator* || "$name" == ~* ]] && continue
  [[ -n "${exempt[$name]:-}" || -n "${types[$name]:-}" ]] && continue
  [[ -n "${allowed[$name]:-}" ]] && continue
  uses=$(( ${occurrences[$name]:-0} - ${defining[$name]:-0} ))
  (( uses > 0 )) && continue
  unreferenced+=("${label[$name]}")
done

if (( ${#unreferenced[@]} > 0 )); then
  echo "check_unreferenced: ${#unreferenced[@]} function(s) defined in src/" \
       "but never called (delete them, or list them with a reason in" \
       "tools/unreferenced_allowlist.txt):" >&2
  # Insertion sort, so the report reads the same on every run.
  for (( i = 1; i < ${#unreferenced[@]}; ++i )); do
    for (( j = i; j > 0; --j )); do
      [[ "${unreferenced[j-1]}" > "${unreferenced[j]}" ]] || break
      tmp="${unreferenced[j]}"
      unreferenced[j]="${unreferenced[j-1]}"
      unreferenced[j-1]="$tmp"
    done
  done
  printf '  %s\n' "${unreferenced[@]}" >&2
  exit 1
fi
echo "check_unreferenced: ${#label[@]} candidate(s), every one is used"
