#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through to hrbench:
#
#   bash perfbench/run.sh --workload race-portfolio --seed 1 --seconds 50 --trace 0
#   bash perfbench/run.sh --self-test
#
# Run it from the root of the repository.  The build goes to _build/ and
# bypasses dune's shared cache, so nothing is written outside the
# checkout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "run.sh: run from the repository root (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi

DUNE=$(command -v dune || true)
if [ -z "$DUNE" ]; then
  for candidate in "${OPAM_SWITCH_PREFIX:-}/bin/dune" "$HOME"/.opam/*/bin/dune; do
    if [ -x "$candidate" ]; then DUNE=$candidate; break; fi
  done
fi
if [ -z "$DUNE" ]; then
  echo "run.sh: dune not found on PATH or under ~/.opam" >&2
  exit 2
fi

"$DUNE" build --root . --cache=disabled ./perfbench/hrbench.exe >&2
# An 8 MB minor heap per domain (1 M words); hrbench refuses to measure
# with any other.  README.md, "Steadiness findings", says why.
OCAMLRUNPARAM=s=1M exec ./_build/default/perfbench/hrbench.exe "$@"
