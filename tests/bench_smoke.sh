#!/bin/sh
# Run every figure and ablation bench at a short trace length and
# check that each exits 0 and that its JSON report matches its table:
# one row per table row, one key per table column. A bench that prints
# one table per group under "--- <group> ---" headings (fig12) writes
# the group as one more key.
#
# Usage: tests/bench_smoke.sh BENCH_DIR
set -eu

dir=$1
work=$(mktemp -d "${TMPDIR:-/tmp}/lrs_bench_smoke.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
export LRS_TRACE_LEN=3000 LRS_JOBS=2

for b in fig04_pipeline_compare fig05_load_classification \
    fig06_window_sweep fig07_ordering_speedup fig08_machine_config \
    fig09_cht_configs fig10_hmp_stats fig11_hmp_speedup \
    fig12_bank_metric ablation_banks ablation_cht ablation_l2hmp \
    ablation_ordering ablation_path_cht ablation_prefetch; do
    LRS_BENCH_JSON="$work/$b.json" "$dir/$b" > "$work/$b.txt" ||
        { echo "bench_smoke: $b exited $?" >&2; exit 1; }
    # A table is the header above a rule of dashes, then rows up to a
    # blank line; its columns are separated by two or more spaces.
    table=$(awk '/^-+$/ { sub(/ +$/, "", prev); cols = split(prev, h, "  +")
                          in_table = 1; next }
                 in_table && /^$/ { in_table = 0 }
                 in_table { rows++ }
                 /^--- .* ---$/ { grouped = 1 }
                 { prev = $0 }
                 END { print rows + 0, cols + grouped }' "$work/$b.txt")
    # The JSON is dumped at indent 2: each row is an object at indent
    # 4 under "rows", its keys at indent 6. A row with another key
    # count than the first prints -1.
    json=$(awk '/^  "rows": \[/ { in_rows = 1; next }
                in_rows && /^    \{/ { rows++; n = 0; next }
                in_rows && /^      "/ { n++ }
                in_rows && /^    \}/ { if (rows > 1 && n != keys) bad = 1
                                       keys = n }
                END { print rows + 0, bad ? -1 : keys + 0 }' "$work/$b.json")
    [ "$table" = "$json" ] || {
        echo "bench_smoke: $b: table rows/columns $table, JSON rows/keys $json" >&2
        exit 1
    }
done
echo "bench_smoke: 15 benches ok"
