#!/usr/bin/env bash
# Check that every test a CI step pins by name still exists.
#
# Several CI steps re-run tests by name (`go test ... -run 'TestA|TestB'
# ./pkg ...`, `-fuzz FuzzX`) so that a rename or an accidental deletion
# cannot silently drop a gate: `go test -run` matches nothing and passes.
# This script closes that hole. For every `run:` command in the workflow it
# takes each Test.../Fuzz... name of the `-run '...'` alternation and the
# `-fuzz` target, lists the tests of that command's packages with
# `go test -list`, and fails naming every pinned name the list lacks.
#
# Usage: scripts/check_ci_pins.sh [workflow.yml]   (default: the CI workflow)
set -euo pipefail
cd "$(dirname "$0")/.."

WORKFLOW="${1:-.github/workflows/ci.yml}"

# Print each `run:` command of the workflow on one line, joining the lines
# of a block scalar (`run: >` or `run: |`).
commands() {
    awk '
        function flush() { if (cmd != "") print cmd; cmd = ""; block = 0 }
        /^ *run: *[>|] *$/ { flush(); block = 1; indent = -1; next }
        /^ *run: / { flush(); sub(/^ *run: */, ""); print; next }
        block {
            if ($0 ~ /^ *$/) next
            match($0, /^ */)
            if (indent < 0) indent = RLENGTH
            if (RLENGTH < indent) { flush(); next }
            sub(/^ */, "")
            cmd = cmd " " $0
        }
        END { flush() }
    ' "$WORKFLOW"
}

declare -A listed # package list -> names `go test -list` prints for it
missing=0
checked=0
while IFS= read -r cmd; do
    case "$cmd" in *"go test"*) ;; *) continue ;; esac
    names=()
    if [[ $cmd =~ -run\ \'([^\']*)\' ]]; then
        IFS='|' read -r -a alts <<<"${BASH_REMATCH[1]}"
        for n in "${alts[@]}"; do
            [[ $n =~ ^(Test|Fuzz)[A-Za-z0-9_]+$ ]] && names+=("$n")
        done
    fi
    if [[ $cmd =~ -fuzz\ ([A-Za-z0-9_]+) ]]; then
        names+=("${BASH_REMATCH[1]}")
    fi
    [ ${#names[@]} -eq 0 ] && continue
    pkgs=()
    for w in $cmd; do
        [[ $w == ./* ]] && pkgs+=("$w")
    done
    key="${pkgs[*]}"
    if [ -z "${listed[$key]+set}" ]; then
        if ! out="$(go test -list '.*' "${pkgs[@]}" 2>&1)"; then
            echo "go test -list ${key} failed:" >&2
            echo "$out" >&2
            exit 1
        fi
        listed[$key]="$out"
    fi
    for n in "${names[@]}"; do
        checked=$((checked + 1))
        if ! grep -qx -- "$n" <<<"${listed[$key]}"; then
            echo "pinned test $n is not listed by go test -list in: $key" >&2
            missing=$((missing + 1))
        fi
    done
done < <(commands)

if [ "$missing" -gt 0 ]; then
    echo "$missing of $checked pinned test names are missing" >&2
    exit 1
fi
echo "all $checked pinned test names exist"
