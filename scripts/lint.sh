#!/usr/bin/env bash
# lint.sh — run the slacksimlint analyzer suite over the module, audit
# its //lint:allow waivers, and run govulncheck, failing on any finding.
#
# Usage: scripts/lint.sh
#
# In CI the script also appends a markdown findings table to
# $GITHUB_STEP_SUMMARY so a red lint job is readable without opening
# the logs.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=bin/slacksimlint
mkdir -p bin
go build -o "$BIN" ./cmd/slacksimlint

summary() {
  # Append to the GitHub job summary when running in Actions.
  if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    printf '%s\n' "$@" >> "$GITHUB_STEP_SUMMARY"
  fi
}

fail=0

# 1. One run of the whole suite over the whole module (offline: loads and
#    type-checks every package from source once, fixtures excluded). The
#    interprocedural analyzers see whole-module summaries. The job
#    summary's per-analyzer counts are taken from this run's findings,
#    which read "<file>:<line>:<col>: <analyzer>: <message>".
echo "==> slacksimlint ./..."
if out=$("./$BIN" . 2>&1); then
  echo "clean"
else
  fail=1
  echo "$out"
  summary "## slacksimlint findings" '' '```' "$out" '```'
fi
counts=""
for a in $("./$BIN" -list | awk '{print $1}') lintdirective; do
  n=$(printf '%s\n' "$out" | grep -c ": $a: " || true)
  counts="$counts| $a | $n |"$'\n'
done
summary "## slacksimlint findings per analyzer" '' \
        '| analyzer | findings |' '| --- | --- |' "$counts"

# 2. Waiver inventory: every //lint:allow must carry a reason and must
#    still suppress something. Stale or unjustified waivers fail.
echo "==> slacksimlint -allows (waiver inventory)"
if ! out=$("./$BIN" -allows . 2>&1); then
  fail=1
  echo "$out"
  summary "## stale or unjustified //lint:allow directives" '' '```' "$out" '```'
else
  echo "clean ($(printf '%s\n' "$out" | grep -c . || true) waivers, all used and justified)"
fi

# 3. govulncheck, when installed (the container image may not ship it;
#    network installs are not assumed).
if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck ./..."
  if ! out=$(govulncheck ./... 2>&1); then
    fail=1
    echo "$out"
    summary "## govulncheck findings" '' '```' "$out" '```'
  else
    echo "clean"
  fi
else
  echo "==> govulncheck not installed; skipping"
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED"
  exit 1
fi
summary "## Lint" '' 'slacksimlint, its waiver inventory and govulncheck: clean ✅'
echo "lint: OK"
