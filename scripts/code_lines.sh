#!/bin/sh
# Code lines per crate by the rule every PR since PR 13 reports: non-blank
# lines that are not `//` comments, up to a file's first `#[cfg(test)]`,
# over `crates/*/src`. A `#[cfg(test)]` on an out-of-line `mod x;` skips
# only that item: a `lib.rs` may declare `mod tests;` above its code
# (milana's does), and the code below it still counts. The second
# column also counts the out-of-line
# `src/tests.rs` test modules, which the rule's literal reading includes
# (that is the total ISSUE 18 quotes: 21 136 at its parent, 19 668 without).
# Run from the repo root; pass another root to count a second checkout.
cd "${1:-.}" || exit 1
count() {
    find "$@" -print0 | sort -z | xargs -0 awk '
        FNR == 1 { test = 0; attr = 0 }
        attr && NF {
            attr = 0
            if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/) next
            test = 1
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { attr = 1; next }
        !test && NF && $1 !~ /^\/\// { n++ }
        END { print n + 0 }'
}
printf '%-12s %6s %14s\n' crate code 'with tests.rs'
total=0
total_all=0
for crate in crates/*/; do
    code=$(count "$crate/src" -name '*.rs' ! -name tests.rs)
    all=$(count "$crate/src" -name '*.rs')
    printf '%-12s %6d %14d\n' "$(basename "$crate")" "$code" "$all"
    total=$((total + code))
    total_all=$((total_all + all))
done
printf '%-12s %6d %14d\n' total "$total" "$total_all"
