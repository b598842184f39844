#!/usr/bin/env bash
# Run `cargo test` on tests named in full, and fail unless every named
# test ran and passed. libtest passes a name filter that matches nothing
# (0 tests run), so without this a renamed test would drop out of a CI
# step in silence.
#
# usage: ci/test-exact.sh [cargo test args] -- NAME... [libtest flags]
#
# NAMEs are full test paths (`module::tests::name`), matched with
# `--exact`. Arguments after `--` that start with `-` are libtest flags;
# give a flag's value as `--flag=value`.
set -euo pipefail
cargo_args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  cargo_args+=("$1")
  shift
done
if [ $# -eq 0 ]; then
  echo "test-exact: expected \`-- NAME...\`" >&2
  exit 2
fi
shift
names=0
for a in "$@"; do
  [[ $a == -* ]] || names=$((names + 1))
done
out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
cargo test "${cargo_args[@]}" -- --exact "$@" | tee "$out" || status=$?
passed=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$out")
if [ "$status" -ne 0 ] || [ "$passed" -ne "$names" ]; then
  echo "test-exact: $passed of $names named tests passed" >&2
  exit 1
fi
