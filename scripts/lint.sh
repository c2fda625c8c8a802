#!/usr/bin/env bash
# Static-correctness gate, two layers (DESIGN.md Sec. 10). Any finding in
# either layer fails the gate; a deliberate exception is waived in place
# (NOLINT for clang-tidy, `// bicord-lint: allow(<rule>)` for bicord_lint).
#
#   layer 1 — clang-tidy over the CMake compilation database, curated check
#             set in .clang-tidy.
#   layer 2 — tools/bicord_lint.cpp, the project-rule linter (determinism,
#             callback lifetime, layering, hygiene).
#
# clang-tidy/clang-format version floor: 14 (LLVM 14 is the oldest toolchain
# the curated check set was validated against). When the tools are absent the
# corresponding layer is SKIPPED with a notice — bicord_lint always runs, so
# the determinism/lifetime rules gate every environment. Set
# BICORD_REQUIRE_CLANG_TIDY=1 (CI) to turn a missing clang-tidy into an error.
#
# Usage: scripts/lint.sh [all|tidy|bicord|format-check]
#   all              (default) tidy + bicord
#   tidy             clang-tidy layer only
#   bicord           bicord_lint layer only
#   format-check     clang-format --dry-run on CHANGED files only (vs HEAD,
#                    plus staged + untracked; never a mass reformat)
#
# Exit codes: 0 clean/skipped, 1 environment or usage error, 2 findings.

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"
JOBS="$(nproc 2>/dev/null || echo 2)"
LAYERING=scripts/layering.txt
MIN_LLVM_MAJOR=14
# Directories scanned by both layers. bicord_lint scopes its determinism and
# lifetime rules to src/ internally; hygiene rules apply everywhere.
LINT_PATHS=(src tools bench tests)

find_tool() {  # find_tool <base-name> -> echoes the newest acceptable binary
  local base="$1" cand ver major
  for cand in "$base" "$base"-20 "$base"-19 "$base"-18 "$base"-17 "$base"-16 \
              "$base"-15 "$base"-14; do
    if command -v "$cand" > /dev/null 2>&1; then
      ver="$("$cand" --version 2>/dev/null | grep -oE '[0-9]+\.[0-9]+(\.[0-9]+)?' | head -1)"
      major="${ver%%.*}"
      if [ -n "$major" ] && [ "$major" -ge "$MIN_LLVM_MAJOR" ]; then
        echo "$cand"
        return 0
      fi
    fi
  done
  return 1
}

ensure_compile_db() {
  if [ ! -f build/compile_commands.json ]; then
    echo "-- configuring build/ for compile_commands.json"
    cmake -B build -S . > /dev/null
  fi
  # Mirror to the repo root so clang-tidy -p . and editors both work.
  if [ ! -e compile_commands.json ]; then
    ln -sf build/compile_commands.json compile_commands.json
  fi
}

run_tidy() {
  # Export + mirror the compilation database even when clang-tidy is absent:
  # editors/clangd consume the root-level compile_commands.json too.
  ensure_compile_db
  local tidy
  if ! tidy="$(find_tool clang-tidy)"; then
    echo "-- clang-tidy >= ${MIN_LLVM_MAJOR} not found: SKIPPING layer 1" \
         "(bicord_lint still gates; set BICORD_REQUIRE_CLANG_TIDY=1 to fail here)"
    if [ "${BICORD_REQUIRE_CLANG_TIDY:-0}" = "1" ]; then
      return 1
    fi
    return 0
  fi
  echo "== layer 1: ${tidy} (curated checks) =="
  local workdir
  workdir="$(mktemp -d "${TMPDIR:-/tmp}/bicord_tidy.XXXXXX")"
  git ls-files 'src/*.cpp' 'tools/*.cpp' 'bench/*.cpp' 'tests/*.cpp' \
    > "$workdir/files"
  # One clang-tidy process per TU, each with a private stdout/stderr pair:
  # parallel processes can't interleave mid-line (which would corrupt finding
  # lines past the match below), and a TU where the tool itself fails
  # (bad flags, missing compile_commands entry, frontend error) is recorded
  # instead of silently contributing an empty findings file.
  # --warnings-as-errors=-* overrides the config's WarningsAsErrors so the
  # exit status means "tool/compile failure", never "has findings" — the
  # warning lines themselves are what gates findings.
  export TIDY_BIN="$tidy" TIDY_WORK="$workdir"
  xargs -r -P "$JOBS" -n 1 bash -c '
    out="$TIDY_WORK/$(printf "%s" "$1" | tr "/" "_")"
    "$TIDY_BIN" -p build --quiet --warnings-as-errors="-*" "$1" \
      > "$out.out" 2> "$out.err" || echo "$1" >> "$TIDY_WORK/failed"
  ' bash < "$workdir/files"
  if [ -s "$workdir/failed" ]; then
    echo "clang-tidy FAILED on $(wc -l < "$workdir/failed") file(s);" \
         "layer 1 cannot be trusted until this is fixed:"
    while IFS= read -r f; do
      echo "  $f"
      head -15 "$workdir/$(printf "%s" "$f" | tr "/" "_").err" | sed 's/^/    /'
    done < "$workdir/failed"
    rm -rf "$workdir"
    return 1
  fi
  local rc=0
  find "$workdir" -name '*.out' -exec cat {} + > "$workdir/raw"
  if grep -E '^[^ ]+:[0-9]+:[0-9]+: (warning|error): .* \[[^]]+\]$' \
       "$workdir/raw" > "$workdir/findings"; then
    echo "clang-tidy findings:"
    sed 's/^/  /' "$workdir/findings"
    rc=2
  else
    echo "clang-tidy clean"
  fi
  rm -rf "$workdir"
  return "$rc"
}

run_bicord() {
  if [ ! -x build/tools/bicord_lint ] \
     || [ tools/bicord_lint.cpp -nt build/tools/bicord_lint ]; then
    cmake -B build -S . > /dev/null
    cmake --build build -j "$JOBS" --target bicord_lint > /dev/null
  fi
  echo "== layer 2: bicord_lint (determinism / lifetime / layering / hygiene) =="
  ./build/tools/bicord_lint --layering "$LAYERING" --src-root src "${LINT_PATHS[@]}"
}

run_format_check() {
  local fmt
  if ! fmt="$(find_tool clang-format)"; then
    echo "-- clang-format >= ${MIN_LLVM_MAJOR} not found: SKIPPING format-check"
    return 0
  fi
  # Changed files only: working tree + index vs HEAD, plus untracked. An
  # explicit base (e.g. BICORD_FORMAT_BASE=origin/main) widens the range for CI.
  local files
  files="$( (git diff --name-only HEAD --
             git diff --name-only --cached
             git ls-files --others --exclude-standard
             if [ -n "${BICORD_FORMAT_BASE:-}" ]; then
               git diff --name-only "${BICORD_FORMAT_BASE}...HEAD"
             fi) \
            | sort -u | grep -E '\.(cpp|hpp|h)$' || true)"
  if [ -z "$files" ]; then
    echo "format-check: no changed C++ files"
    return 0
  fi
  echo "== format-check (${fmt}, changed files only) =="
  echo "$files" | xargs "$fmt" --dry-run -Werror
  echo "format-check: clean"
}

case "$MODE" in
  all)
    run_tidy
    run_bicord
    ;;
  tidy) run_tidy ;;
  bicord) run_bicord ;;
  format-check) run_format_check ;;
  *)
    echo "usage: scripts/lint.sh [all|tidy|bicord|format-check]" >&2
    exit 1
    ;;
esac
