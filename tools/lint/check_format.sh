#!/usr/bin/env sh
# Check-only clang-format gate (never rewrites files).
#
# Files listed in tools/lint/format_baseline.txt are seed files that
# predate .clang-format; they are exempt until deliberately reformatted
# (then remove them from the baseline — the ratchet only shrinks).
# New files must match .clang-format exactly.
#
# Every baseline line must name an existing file: a deleted file's line
# would otherwise linger silently. That check needs no clang-format and
# runs first, on every host. The format check itself exits 0 with a
# notice when no clang-format binary is available, so the script is
# callable from toolchains without LLVM; the static-analysis CI job is
# where it gates.
set -eu

repo="$(cd "$(dirname "$0")/../.." && pwd)"
baseline="$repo/tools/lint/format_baseline.txt"

stale=0
while IFS= read -r file || [ -n "$file" ]; do
  if [ -n "$file" ] && [ ! -f "$repo/$file" ]; then
    echo "FAIL $file: listed in format_baseline.txt but does not exist" \
         "(remove its line)" >&2
    stale=1
  fi
done < "$baseline"
if [ "$stale" -ne 0 ]; then
  exit 1
fi

clang_format=""
for candidate in clang-format clang-format-18 clang-format-17 \
                 clang-format-16 clang-format-15 clang-format-14; do
  if command -v "$candidate" > /dev/null 2>&1; then
    clang_format="$candidate"
    break
  fi
done
if [ -z "$clang_format" ]; then
  echo "check_format: no clang-format binary on PATH — skipping" \
       "(the static-analysis CI job provides one)"
  exit 0
fi

fail=0
checked=0
skipped=0
for file in $(cd "$repo" && find src tests bench examples tools \
              -name '*.hpp' -o -name '*.cpp' | sort); do
  if grep -qxF "$file" "$baseline" 2> /dev/null; then
    skipped=$((skipped + 1))
    continue
  fi
  checked=$((checked + 1))
  if ! "$clang_format" --dry-run --Werror "$repo/$file" 2> /dev/null; then
    echo "FAIL $file: does not match .clang-format (run: $clang_format -i $file)" >&2
    fail=1
  fi
done

echo "check_format: $checked file(s) checked, $skipped baseline-exempt"
exit "$fail"
