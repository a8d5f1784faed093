#!/usr/bin/env bash
# Mutation survey of lib/ir. Each test/mutants/*.patch plants one known
# fault in an IR pass. For each patch this applies it to a copy of the
# checkout, builds the test runner, and runs the ir-passes and
# translator-golden groups under a timeout. It prints "caught by" the
# groups where some test fails (or the run times out), or "missed" when
# every test passes, and exits 1 if any mutant is missed or does not
# apply or build.
#
#   bash test/mutants/survey.sh [WORK_DIR]
#
# The copy lives in WORK_DIR (default: a new temporary directory; keep it
# outside the checkout, where dune would see a second copy of every
# library) and is reused from one mutant to the next, so each build is
# incremental.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
work=${1:-$(mktemp -d)}
copy="$work/vat"
rm -rf "$copy"
mkdir -p "$copy"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
  tar -cf - --null -T -) | tar -xf - -C "$copy"
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled

status=0
printf '%-46s %s\n' mutant result
for patch in "$root"/test/mutants/*.patch; do
  name=$(basename "$patch" .patch)
  if ! patch --dry-run -s -p1 -d "$copy" <"$patch" >/dev/null 2>&1; then
    printf '%-46s %s\n' "$name" "does not apply"
    status=1
    continue
  fi
  patch -s -p1 -d "$copy" <"$patch"
  if ! dune build --root "$copy" --display quiet ./test/main.exe \
    >"$work/$name.build.log" 2>&1; then
    result="does not build"
    status=1
  else
    by=""
    for group in ir-passes translator-golden; do
      code=0
      (cd "$copy/_build/default/test" &&
        timeout 600 ./main.exe test "$group" >"$work/$name.$group.log" 2>&1) ||
        code=$?
      case "$code" in
        0) ;;
        124) by="$by $group(timeout)" ;;
        *) by="$by $group" ;;
      esac
    done
    if [ -z "$by" ]; then
      result=missed
      status=1
    else
      result="caught by$by"
    fi
  fi
  patch -s -R -p1 -d "$copy" <"$patch"
  printf '%-46s %s\n' "$name" "$result"
done
exit "$status"
