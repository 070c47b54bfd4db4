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

# 1. One run of the whole suite over the whole module, with the waiver
#    audit (offline: loads and type-checks every package from source
#    once, fixtures excluded). The interprocedural analyzers see
#    whole-module summaries. Findings read
#    "<file>:<line>:<col>: <analyzer>: <message>"; the waiver inventory
#    that follows reads "<file>:<line>: <analyzers> -- <reason>", every
#    //lint:allow must carry a reason and still suppress something, and
#    a stale or unjustified one is tagged [UNUSED] or [NO REASON]. The
#    job summary's per-analyzer counts are taken from the findings.
echo "==> slacksimlint -allows ./..."
status=0
out=$("./$BIN" -allows . 2>&1) || status=$?
findings=$(printf '%s\n' "$out" | grep -E '^[^ ]+:[0-9]+:[0-9]+: ' || true)
waivers=$(printf '%s\n' "$out" | grep -E '^[^ ]+:[0-9]+: [A-Za-z0-9_,]+ -- ' || true)
bad=$(printf '%s\n' "$waivers" | grep -E '\[(UNUSED|NO REASON)' || true)
if [ -n "$findings" ]; then
  fail=1
  echo "$findings"
  summary "## slacksimlint findings" '' '```' "$findings" '```'
elif [ "$status" -ne 0 ] && [ -z "$bad" ]; then
  # Neither a finding nor a bad waiver: an operational error.
  fail=1
  echo "$out"
  summary "## slacksimlint failed" '' '```' "$out" '```'
else
  echo "findings: clean"
fi
counts=""
for a in $("./$BIN" -list | awk '{print $1}') lintdirective; do
  n=$(printf '%s\n' "$findings" | grep -c ": $a: " || true)
  counts="$counts| $a | $n |"$'\n'
done
summary "## slacksimlint findings per analyzer" '' \
        '| analyzer | findings |' '| --- | --- |' "$counts"
if [ -n "$bad" ]; then
  fail=1
  echo "$bad"
  summary "## stale or unjustified //lint:allow directives" '' '```' "$bad" '```'
else
  echo "waivers: clean ($(printf '%s\n' "$waivers" | grep -c . || true) waivers, all used and justified)"
fi

# 2. govulncheck, when installed (the container image may not ship it;
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
