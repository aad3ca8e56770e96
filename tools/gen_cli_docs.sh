#!/usr/bin/env bash
# Regenerates docs/cli.md from the live --help output of the four CLI
# tools, so the reference page can never drift from the binaries: CI runs
# this script against a fresh build and fails on `git diff docs/cli.md`.
#
# Usage: tools/gen_cli_docs.sh [build-dir]     (default: <repo>/build)
# The build dir must already contain reconcile_cli, reconcile_serve,
# graphgen_cli and graphstats_cli (cmake --build <dir> --target ...).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"

for tool in reconcile_cli reconcile_serve graphgen_cli graphstats_cli; do
  if [[ ! -x "$BUILD/$tool" ]]; then
    echo "error: $BUILD/$tool not found — build the tools first" >&2
    echo "  cmake -B $BUILD -S $ROOT && cmake --build $BUILD -j" >&2
    exit 1
  fi
done

OUT="$ROOT/docs/cli.md"
mkdir -p "$ROOT/docs"

{
cat <<'EOF'
# CLI reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: tools/gen_cli_docs.sh [build-dir]
     The `--help` blocks below are captured verbatim from the binaries;
     CI re-runs the generator and diffs this file, so a flag added to a
     tool without regenerating the doc fails the build. -->

Four thin front-ends over the library (see [README.md](../README.md) for
the build and [DESIGN.md](../DESIGN.md) for the architecture they sit on):

- [`reconcile_cli`](#reconcile_cli) — run any registered reconciliation
  algorithm on any model × process × seeding scenario.
- [`reconcile_serve`](#reconcile_serve) — long-lived continuous
  reconciliation over a stream of edge deltas (DESIGN.md §2.6).
- [`graphgen_cli`](#graphgen_cli) — generate any supported graph model as
  a text/binary edge list.
- [`graphstats_cli`](#graphstats_cli) — structural statistics of a stored
  edge list.

All tools speak `--flag=value` (or `--flag value`; bare `--flag` means
true) and warn about unused flags, so typos are loud.

## reconcile_cli

One experiment end to end: build a hidden network, sample two partial
copies, draw seeds, run an algorithm, score against ground truth.

```text
EOF
"$BUILD/reconcile_cli" --help
cat <<'EOF'
```

### Runnable examples

One per knob family — each line works as written from the repo root after
a build (prefix `./build/`).

```sh
# Paper-style defaults: preferential attachment, independent sampling.
reconcile_cli

# --model / --process: RMAT pair with asymmetric edge survival.
reconcile_cli --model=rmat --rmat-scale=13 --s1=0.7 --s2=0.6

# --algorithm: registry key with inline params (same as --param spelling).
reconcile_cli --algorithm=percolation:threshold=3 --model=er --nodes=5000

# --param: merged into the algorithm spec (equivalent to shorthands).
reconcile_cli --param min-bucket-exponent=2,stop-when-stable=false --threads=4

# --threshold / --iterations: the paper's T and k knobs.
reconcile_cli --threshold=3 --iterations=1

# --no-bucketing: the paper's ablation, one scoring round per iteration.
reconcile_cli --no-bucketing --threshold=4

# --seed-bias / --attack: top-degree seeds under a sybil attack.
reconcile_cli --seed-bias=top --top-count=200 --attack=0.01

# --phase-table / --degree-table: per-round and per-degree telemetry.
reconcile_cli --phase-table --degree-table
```

## reconcile_serve

Continuous reconciliation as a service: hold a live matching over two
evolving graphs, re-run the batch matcher after every delta batch that
changes an edge, stay bit-identical to a from-scratch batch run at every
step.

```text
EOF
"$BUILD/reconcile_serve" --help
cat <<'EOF'
```

### Runnable examples

```sh
# Inputs for a serve session: a graph pair and a delta stream.
graphgen_cli --model=chunglu --nodes=2000 --exponent=2.3 --out=g.txt
printf 'add 1 7 9\ndel 2 3 4\ncommit\nadd 2 11 12\n' > deltas.log

# Serve with identity seeds, checkpointing every batch, keep the newest 3.
reconcile_serve --g1=g.txt --g2=g.txt --identity-seeds=200 \
    --deltas=deltas.log --checkpoint-dir=ckpt --checkpoint-keep=3 \
    --save-matching=served.txt

# Resume a killed session: restores the newest snapshot, fast-forwards the
# stream past the consumed records, continues bit-identically.
reconcile_serve --g1=g.txt --g2=g.txt --identity-seeds=200 \
    --deltas=deltas.log --checkpoint-dir=ckpt --resume

# Streaming from stdin with per-batch phase tables.
graph_mutator | reconcile_serve --g1=g.txt --g2=g.txt \
    --identity-seeds=200 --deltas=- --batch-deltas=128 --phase-table
```

## graphgen_cli

```text
EOF
"$BUILD/graphgen_cli" --help
cat <<'EOF'
```

### Runnable examples

```sh
# Chung-Lu power law with summary statistics.
graphgen_cli --model=chunglu --nodes=20000 --exponent=2.3 --out=cl.txt --stats

# RMAT in the compact binary format.
graphgen_cli --model=rmat --rmat-scale=14 --out=rmat14.bin --binary

# Three-block SBM.
graphgen_cli --model=sbm --blocks=1000,1000,500 --p-in=0.02 --p-out=0.0005 --out=sbm.txt
```

## graphstats_cli

```text
EOF
"$BUILD/graphstats_cli" --help
cat <<'EOF'
```

### Runnable examples

```sh
# Generate, then inspect (file argument comes first).
graphgen_cli --model=pa --nodes=10000 --m=10 --out=pa.txt
graphstats_cli pa.txt
graphstats_cli pa.txt --ccdf --cores
```
EOF
} > "$OUT"

echo "wrote $OUT"
