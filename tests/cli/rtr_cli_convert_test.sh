#!/usr/bin/env bash
# End-to-end test of `rtr_cli convert` (text <-> binary snapshot,
# auto-detected by magic), including its error paths, of the --query
# node-id parsing shared by `rank` and `topk`, and of numeric flag values.
# Registered with ctest by the root CMakeLists; $1 is the path to the
# rtr_cli binary.
set -u

CLI="${1:?usage: rtr_cli_convert_test.sh <path-to-rtr_cli>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fails=0
check() {  # check <description> <expected-exit> <actual-exit>
  if [ "$2" -ne "$3" ]; then
    echo "FAIL: $1 (expected exit $2, got $3)"
    fails=$((fails + 1))
  else
    echo "ok: $1"
  fi
}

# A small hand-written graph in the text format of graph/io.h:
# 4 nodes (one dangling), 2 types, 4 arcs.
cat > "$TMP/g.txt" <<'EOF'
rtr-graph 1
2
untyped
paper
4
0
1
1
0
4
0 1 2.5
1 2 0.25
2 0 1.0
2 3 3.0
EOF

"$CLI" convert "$TMP/g.txt" "$TMP/g.rtrsnap" > "$TMP/out1.txt"
check "text -> snapshot conversion" 0 $?
grep -q "4 nodes, 4 arcs (text -> snapshot)" "$TMP/out1.txt"
check "conversion reports counts and direction" 0 $?

head -c 8 "$TMP/g.rtrsnap" | grep -q "rtr-snap"
check "snapshot starts with rtr-snap magic" 0 $?

"$CLI" convert "$TMP/g.rtrsnap" "$TMP/g2.txt" > "$TMP/out2.txt"
check "snapshot -> text conversion" 0 $?
grep -q "(snapshot -> text)" "$TMP/out2.txt"
check "reverse direction reported" 0 $?

# The round-tripped text graph must describe the same graph: `info` output
# is a canonical rendering of nodes/arcs/types.
"$CLI" info --graph "$TMP/g.txt" > "$TMP/info1.txt" &&
  "$CLI" info --graph "$TMP/g2.txt" > "$TMP/info2.txt" &&
  diff "$TMP/info1.txt" "$TMP/info2.txt" > /dev/null
check "text -> snapshot -> text round-trip preserves the graph" 0 $?

# `info` must also read the snapshot directly (auto-detect in --graph).
"$CLI" info --graph "$TMP/g.rtrsnap" > "$TMP/info3.txt" &&
  diff "$TMP/info1.txt" "$TMP/info3.txt" > /dev/null
check "info auto-detects the snapshot format" 0 $?

# --- error paths ---------------------------------------------------------

"$CLI" convert > /dev/null 2>&1
check "missing operands exit 2" 2 $?

"$CLI" convert "$TMP/g.txt" > /dev/null 2>&1
check "missing output operand exits 2" 2 $?

"$CLI" convert "$TMP/does-not-exist" "$TMP/x" > /dev/null 2>&1
check "nonexistent input exits 1" 1 $?

printf 'rtr-graph 1\n2\nuntyped\n' > "$TMP/truncated.txt"
"$CLI" convert "$TMP/truncated.txt" "$TMP/x" > /dev/null 2>&1
check "truncated text input exits 1" 1 $?

head -c 40 "$TMP/g.rtrsnap" > "$TMP/truncated.rtrsnap"
"$CLI" convert "$TMP/truncated.rtrsnap" "$TMP/x" > /dev/null 2>&1
check "truncated snapshot input exits 1" 1 $?

cat "$TMP/g.rtrsnap" /dev/null > "$TMP/garbage.rtrsnap"
printf 'junk' >> "$TMP/garbage.rtrsnap"
"$CLI" convert "$TMP/garbage.rtrsnap" "$TMP/x" > /dev/null 2>&1
check "snapshot with trailing garbage exits 1" 1 $?

"$CLI" convert "$TMP/g.txt" "$TMP/no-such-dir/x" > /dev/null 2>&1
check "unwritable output exits 1" 1 $?

# --- --query node ids (rank/topk) ----------------------------------------
# A token must be a whole id below 2^32 - 1: no wrap-around, no silent 0.

"$CLI" topk --graph "$TMP/g.txt" --query 1 --k 2 > /dev/null 2>&1
check "topk with a valid query node" 0 $?

"$CLI" rank --graph "$TMP/g.txt" --query 0,2 --k 2 > /dev/null 2>&1
check "rank with a two-node query" 0 $?

"$CLI" topk --graph "$TMP/g.txt" --query 4294967299 > "$TMP/wrap.txt" 2>&1
check "topk refuses an id that wraps to node 3" 2 $?
grep -q "bad --query" "$TMP/wrap.txt"
check "wrapped id is reported as a bad --query" 0 $?

"$CLI" topk --graph "$TMP/g.txt" --query 4294967295 > /dev/null 2>&1
check "topk refuses the invalid-node id" 2 $?

"$CLI" topk --graph "$TMP/g.txt" --query abc > /dev/null 2>&1
check "topk refuses a non-numeric id" 2 $?

"$CLI" topk --graph "$TMP/g.txt" --query 1x > /dev/null 2>&1
check "topk refuses trailing characters" 2 $?

"$CLI" topk --graph "$TMP/g.txt" --query -1 > /dev/null 2>&1
check "topk refuses a signed id" 2 $?

"$CLI" rank --graph "$TMP/g.txt" --query 0,,2 > /dev/null 2>&1
check "rank refuses an empty token" 2 $?

"$CLI" rank --graph "$TMP/g.txt" --query 0, > /dev/null 2>&1
check "rank refuses a trailing comma" 2 $?

"$CLI" rank --graph "$TMP/g.txt" --query 4294967296 > /dev/null 2>&1
check "rank refuses an id that wraps to node 0" 2 $?

# --- numeric flags ---------------------------------------------------------
# A numeric value must be one whole token; the error names the flag.

"$CLI" topk --graph "$TMP/g.txt" --query 1 --k 2x > "$TMP/k.txt" 2>&1
check "topk refuses --k with trailing characters" 2 $?
grep -q "bad --k '2x'" "$TMP/k.txt"
check "bad --k is reported by name" 0 $?

"$CLI" topk --graph "$TMP/g.txt" --query 1 --eps abc > "$TMP/eps.txt" 2>&1
check "topk refuses a non-numeric --eps" 2 $?
grep -q "bad --eps 'abc'" "$TMP/eps.txt"
check "bad --eps is reported by name" 0 $?

"$CLI" topk --graph "$TMP/g.txt" --query 1 --eps inf > /dev/null 2>&1
check "topk refuses a non-finite --eps" 2 $?

"$CLI" topk --graph "$TMP/g.txt" --query 1 --k 99999999999 > /dev/null 2>&1
check "topk refuses an out-of-range --k" 2 $?

"$CLI" topk --graph "$TMP/g.txt" --query 1 --k 2 --eps 1e-3 > /dev/null 2>&1
check "topk accepts well-formed --k and --eps" 0 $?

"$CLI" serve --graph "$TMP/g.txt" --workers 3q > "$TMP/workers.txt" 2>&1
check "serve refuses --workers with trailing characters" 2 $?
grep -q "bad --workers '3q'" "$TMP/workers.txt"
check "bad --workers is reported by name" 0 $?

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
echo "all convert CLI checks passed"
