#!/usr/bin/env bash
# Seeded-mutation smoke for nowlb-lint's tag-flow rules.
#
# Copies src/lb into a scratch tree, injects one tag defect at a time (an
# orphaned tag, a send-only tag, a receive-only tag, a tag sent inside the
# master/slave pair but received only outside it) and asserts the expected
# P or F rule fires. This proves the tag-site scan is not vacuously green:
# if it ever stops classifying the real protocol's send and receive sites,
# these mutants survive and the script fails.
#
# Usage: scripts/lint_mutation_check.sh <path-to-nowlb-lint>
set -u

LINT="${1:-build/src/analyze/nowlb-lint}"
REPO="$(cd "$(dirname "$0")/.." && pwd)"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

if [ ! -x "$LINT" ]; then
  echo "lint_mutation_check: nowlb-lint not found at $LINT" >&2
  exit 2
fi
LINT="$(cd "$(dirname "$LINT")" && pwd)/$(basename "$LINT")"

fresh_tree() {
  rm -rf "$SCRATCH/src"
  mkdir -p "$SCRATCH/src"
  cp -r "$REPO/src/lb" "$SCRATCH/src/"
}

# mutate <name> <expected-rule-regex> <python-edit-script>
# The python script runs inside $SCRATCH with the fresh tree in place.
failures=0
total=0
mutate() {
  local name="$1" want="$2" edit="$3"
  total=$((total + 1))
  fresh_tree
  (cd "$SCRATCH" && python3 -c "$edit")
  local out
  out="$(cd "$SCRATCH" && "$LINT" --root=src --label=mut 2>&1)"
  local status=$?
  if [ "$status" -eq 0 ]; then
    echo "FAIL [$name]: mutant survived (lint exited 0)"
    failures=$((failures + 1))
    return
  fi
  if ! grep -qE "$want" <<<"$out"; then
    echo "FAIL [$name]: expected /$want/ in output:"
    sed 's/^/    /' <<<"$out"
    failures=$((failures + 1))
    return
  fi
  echo "ok   [$name] -> $(grep -oE "$want" <<<"$out" | head -1)"
}

# Baseline sanity: the unmutated copy must lint clean, else every mutant
# "fires" trivially and the test proves nothing.
fresh_tree
if ! (cd "$SCRATCH" && "$LINT" --root=src --label=mut); then
  echo "FAIL [clean-copy]: unmutated src/lb does not lint clean" >&2
  exit 1
fi
echo "ok   [clean-copy] unmutated src/lb lints clean"

P='src/lb/protocol.hpp'

mutate "P001-orphan-tag" '\[P001 ' "
s = open('$P').read()
s = s.replace('inline constexpr sim::Tag kTagAck = 9004;',
              'inline constexpr sim::Tag kTagAck = 9004;\n'
              'inline constexpr sim::Tag kTagOrphan = 9005;')
open('$P', 'w').write(s)
"

mutate "P002-send-only-tag" '\[P002 ' "
s = open('$P').read()
s = s.replace('inline constexpr sim::Tag kTagAck = 9004;',
              'inline constexpr sim::Tag kTagAck = 9004;\n'
              'inline constexpr sim::Tag kTagBlast = 9005;')
open('$P', 'w').write(s)
m = open('src/lb/master.cpp').read()
m = m.replace('namespace nowlb::lb {',
              'namespace nowlb::lb {\n'
              'inline void blast(Ctl& c) { c.send(0, kTagBlast, {}); }', 1)
open('src/lb/master.cpp', 'w').write(m)
"

mutate "F001-recv-only-tag" '\[F001 ' "
s = open('$P').read()
s = s.replace('inline constexpr sim::Tag kTagAck = 9004;',
              'inline constexpr sim::Tag kTagAck = 9004;\n'
              'inline constexpr sim::Tag kTagGhostly = 9005;')
open('$P', 'w').write(s)
m = open('src/lb/master.cpp').read()
m = m.replace('namespace nowlb::lb {',
              'namespace nowlb::lb {\n'
              'inline bool ghostly(sim::Tag t) { return t == kTagGhostly; }',
              1)
open('src/lb/master.cpp', 'w').write(m)
"

mutate "F002-pair-asymmetry" '\[F002 ' "
s = open('$P').read()
s = s.replace('inline constexpr sim::Tag kTagAck = 9004;',
              'inline constexpr sim::Tag kTagAck = 9004;\n'
              'inline constexpr sim::Tag kTagSide = 9005;')
open('$P', 'w').write(s)
m = open('src/lb/master.cpp').read()
m = m.replace('namespace nowlb::lb {',
              'namespace nowlb::lb {\n'
              'inline void side_send(Ctl& c) { c.send(0, kTagSide, {}); }', 1)
open('src/lb/master.cpp', 'w').write(m)
t = open('src/lb/transport.cpp').read()
t = t.replace('namespace nowlb::lb {',
              'namespace nowlb::lb {\n'
              'inline bool is_side(sim::Tag t) { return t == kTagSide; }', 1)
open('src/lb/transport.cpp', 'w').write(t)
"

echo
if [ "$failures" -ne 0 ]; then
  echo "lint_mutation_check: $failures/$total mutants survived" >&2
  exit 1
fi
echo "lint_mutation_check: all $total mutants killed"
