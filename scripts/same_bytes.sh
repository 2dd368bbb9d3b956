#!/bin/sh
# Byte-identity oracle for a refactor. Builds `repro` at <rev> (a tree
# exported with `git archive` into target/same_bytes/<rev>, so nothing is
# registered in .git; a second run reuses it) and in this working tree,
# runs every `repro` row at CI's seeds on both with `--json --threads 2`,
# and compares each pair of runs: the JSON artifact, stdout and the exit
# code. Prints one `same` or `DIFFERS` line per row; exits 1 and names the
# rows that differ. About 15 minutes on 2 vCPUs.
#
# Usage, from the repo root: scripts/same_bytes.sh <rev>
set -eu
rev=$(git rev-parse --short "${1:?usage: scripts/same_bytes.sh <rev>}")
base=target/same_bytes/$rev
if [ ! -f "$base/.exported" ]; then
    rm -rf "$base"
    mkdir -p "$base"
    git archive "$rev" | tar -x -C "$base"
    touch "$base/.exported"
fi
cargo build --release --quiet --manifest-path "$base/Cargo.toml" -p bench --bin repro
cargo build --release --quiet -p bench --bin repro

# CI's rows (the smoke matrix's runs and frauds, the test job's fig7) plus
# fig6, which CI leaves to `repro all`.
rows='table1
fig6
fig7
fig8
fig9
ablations
batch
rebalance --seed 1
readscale --seed 1
recovery --seed 1
clockfault --seed 1
chaos --seed 0 --faults 100
chaos --seed 5 --faults 12 --inject overload
chaos --seed 3 --faults 0 --shards 1 --inject validation-skip
recovery --inject durability-skip
clockfault --inject uncertainty-skip'

out=target/same_bytes/out
rm -rf "$out"
mkdir -p "$out/base" "$out/head"
echo "$rows" | while read -r row; do
    name=$(echo "$row" | tr ' ' '_')
    for side in base head; do
        if [ "$side" = base ]; then bin=$base/target/release/repro; else bin=target/release/repro; fi
        # shellcheck disable=SC2086 # a row is its words
        if "$bin" $row --threads 2 --json "$out/$side/$name.json" \
            >"$out/$side/$name.out" 2>/dev/null; then
            echo 0 >"$out/$side/$name.code"
        else
            echo $? >"$out/$side/$name.code"
        fi
    done
    same=same
    for ext in json out code; do
        cmp -s "$out/base/$name.$ext" "$out/head/$name.$ext" || same=DIFFERS
    done
    printf '%-8s %s\n' "$same" "$row"
    [ "$same" = same ] || echo "$row" >>"$out/differs"
done
if [ -s "$out/differs" ]; then
    echo "rows that differ from $rev:" >&2
    cat "$out/differs" >&2
    exit 1
fi
