#!/bin/sh
# Non-test Go line count outside benchmark/ — the number ROADMAP item 6
# tracks ("net non-test line count going down is a success metric").
# Lines in _test.go files and under benchmark/ do not count.
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 |
    xargs -0 cat | wc -l | tr -d ' '
