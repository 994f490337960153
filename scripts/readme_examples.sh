#!/usr/bin/env bash
# Run every `qfsplit` line in README.md's "Command line" block, with the
# given command in place of `qfsplit`, and fail on the first nonzero exit.
# The lines run in a fresh temporary directory, removed afterwards, because
# the scan example writes out/.
#
#   PYTHONPATH="$PWD/src" scripts/readme_examples.sh python -m qfsplit.cli
#   scripts/readme_examples.sh qfsplit        # the installed entry point
set -euo pipefail
if [ $# -eq 0 ]; then
  echo "usage: $0 COMMAND [ARG...]   (run in place of 'qfsplit')" >&2
  exit 2
fi
readme="$(cd "$(dirname "$0")/.." && pwd)/README.md"
examples=$(sed -n '/^## Command line/,/^```$/p' "$readme" | grep '^qfsplit ')
test -n "$examples"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
while IFS= read -r line; do
  echo "+ $line"
  eval "$* ${line#qfsplit }" > /dev/null || { echo "failed: $line"; exit 1; }
done <<< "$examples"
