#!/usr/bin/env sh
# Non-test Rust lines per crate.
#
# Counts the lines of every `.rs` file under a crate's `src/` that come
# before the file's first `#[cfg(test)]`; `tests/`, `benches/` and
# `fixtures/` are never counted. The workspace crates are `crates/*`
# plus the `f4t` facade at the root; `ftbench/` is its own package and
# is listed after the total.
#
# Usage:  sh scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

# count <dir> : non-test lines in <dir>/src.
count() {
    find "$1/src" -name '*.rs' \
        ! -path '*/tests/*' ! -path '*/benches/*' ! -path '*/fixtures/*' \
        | sort \
        | xargs awk '
            FNR == 1 { skip = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
            !skip { n++ }
            END { print n + 0 }'
}

total=0
for dir in crates/* .; do
    [ -d "$dir/src" ] || continue
    name=$(basename "$dir")
    [ "$dir" = "." ] && name=f4t
    n=$(count "$dir")
    total=$((total + n))
    printf '%-10s %7d\n' "$name" "$n"
done
printf '%-10s %7d\n' total "$total"
[ -d ftbench/src ] && printf '%-10s %7d\n' ftbench "$(count ftbench)"
exit 0
