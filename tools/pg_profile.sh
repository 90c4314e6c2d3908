#!/usr/bin/env bash
# Run-only gprof profile of one perfbench workload (docs/perf.md, "Where the
# time goes: a run-only -pg profile").
#
# Copies perfbench/ into a temporary directory next to a link to src/,
# switches gprof sampling off at the top of main() and on around the timed
# Workload::run() call only, builds the copy statically with -pg (so libc's
# memmove and malloc show up by name), runs the workload at seed 0,
# untraced, and prints the flat profile (`gprof -b -p`).  The checked-in
# perfbench/ is never modified.
#
# Usage, from anywhere in the repository:
#
#   tools/pg_profile.sh <paper_replay|fleet_week|lock_paxos|kv_rs_paxos> [seconds]
#
# `seconds` (default 5) is perfbench's --seconds.  Build output goes to
# standard error; the profile goes to standard output.  Set PG_PROFILE_KEEP=1
# to keep the temporary directory (binary and gmon.out) and print its path.
set -euo pipefail

usage="usage: tools/pg_profile.sh <workload> [seconds]"
workload=${1:?$usage}
seconds=${2:-5}
case "$workload" in
  paper_replay|fleet_week|lock_paxos|kv_rs_paxos) ;;
  *) echo "$usage" >&2; exit 2 ;;
esac
for tool in cmake gprof; do
  command -v "$tool" >/dev/null || { echo "pg_profile: $tool not found" >&2; exit 2; }
done

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pg_profile.XXXXXX")
if [[ "${PG_PROFILE_KEEP:-0}" == 1 ]]; then
  echo "pg_profile: keeping $tmp" >&2
else
  trap 'rm -rf "$tmp"' EXIT
fi

# perfbench's CMakeLists.txt builds the library from ../src.
cp -r "$root/perfbench" "$tmp/perfbench"
ln -s "$root/src" "$tmp/src"

# Inserts `text` after the single line of `file` equal to `anchor`; fails
# unless the anchor occurs exactly once, so a perfbench edit that moves it
# stops the script instead of profiling the wrong scope.
insert_once() {
  local file=$1 anchor=$2 before=$3 after=$4
  local count
  count=$(grep -cxF -- "$anchor" "$file" || true)
  if [[ "$count" != 1 ]]; then
    echo "pg_profile: expected one line '$anchor' in $file, found $count" >&2
    exit 1
  fi
  awk -v anchor="$anchor" -v before="$before" -v after="$after" '
    $0 == anchor { if (before != "") print before; print; if (after != "") print after; next }
    { print }' "$file" >"$file.tmp"
  mv "$file.tmp" "$file"
}

decl='extern "C" void moncontrol(int);  // glibc exports it; no header declares it'
main_cpp="$tmp/perfbench/main.cpp"
harness_cpp="$tmp/perfbench/harness.cpp"
insert_once "$main_cpp" 'int main(int argc, char** argv) {' "$decl" '  moncontrol(0);'
insert_once "$harness_cpp" '    w.run(traced);' '    moncontrol(1);' '    moncontrol(0);'
insert_once "$harness_cpp" 'namespace perfbench {' "$decl" ''

generator=()
command -v ninja >/dev/null && generator=(-G Ninja)
cmake -S "$tmp/perfbench" -B "$tmp/build" "${generator[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-pg \
  "-DCMAKE_EXE_LINKER_FLAGS=-pg -static" >&2
cmake --build "$tmp/build" --target perfbench -j "$(nproc)" >&2

# gmon.out lands in the working directory.
(cd "$tmp" && ./build/perfbench --workload "$workload" --seed 0 \
  --seconds "$seconds" --trace 0 --git-sha x --source-digest x >&2)
gprof -b -p "$tmp/build/perfbench" "$tmp/gmon.out"
