#!/bin/sh
# Byte-identity against the past. Each file in docs/golden is the full
# output of one deterministic command, blessed once; `check` re-runs
# every command and compares byte for byte, printing the first differing
# line of each mismatch. The -json of the `all` run, the -open-json of
# the test-size `open` run and the scheduler trace of a `btsim -trace`
# run are too large to keep, so SHA256SUMS holds their hashes instead.
# `check` also re-renders docs/bench.html from BENCH.json and compares
# it with the committed page. `ref` is the ref-size half: `paperbench
# -size ref all` (about 80 s on 2 CPUs) against the whole of
# docs/results-ref.txt.
#
#   sh docs/golden/golden.sh check [BINDIR]   (make golden-check)
#   sh docs/golden/golden.sh bless [BINDIR]   (make golden-bless)
#   sh docs/golden/golden.sh ref [BINDIR]     (make golden-ref)
#
# BINDIR holds built btsim, paperbench, rmatgen, quickstart and
# granularity binaries; without it they are built into a temp dir
# first. Run from the repository root. A bless rewrites every golden
# and docs/bench.html: say why in CHANGES.md.
set -eu

mode=${1:-}
case $mode in
check | bless | ref) ;;
*)
	echo "usage: $0 check|bless|ref [BINDIR]" >&2
	exit 2
	;;
esac
gold=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=${2:-}
if [ -z "$bin" ]; then
	bin=$tmp/bin
	${GO:-go} build -o "$bin/" ./cmd/btsim ./cmd/paperbench ./cmd/rmatgen \
		./examples/quickstart ./examples/granularity
fi
bin=$(cd "$bin" && pwd)
out=$tmp/out
mkdir "$out"

# compare NAME BLESSED NOW prints the first line where NOW departs from
# BLESSED and sets bad; equal files print nothing.
bad=0
compare() {
	cmp -s "$2" "$3" && return 0
	bad=1
	line=$(cmp "$2" "$3" 2>&1 | sed -n 's/.*line \([0-9][0-9]*\).*/\1/p')
	line=${line:-1}
	echo "golden-$mode: $1 differs from the blessed copy at line $line" >&2
	echo "  blessed: $(sed -n "${line}p" "$2")" >&2
	echo "  now:     $(sed -n "${line}p" "$3")" >&2
}

if [ "$mode" = ref ]; then
	"$bin/paperbench" -size ref all >"$out/ref.txt"
	compare docs/results-ref.txt "$gold/../results-ref.txt" "$out/ref.txt"
	if [ "$bad" -ne 0 ]; then
		exit 1
	fi
	echo "golden-ref: ref all identical to docs/results-ref.txt"
	exit 0
fi

"$bin/paperbench" -size test -j 1 -json "$out/all.json" all >"$out/all.txt"
"$bin/paperbench" -apps cilk5-cs,ligra-bfs chaos >"$out/chaos.txt"
"$bin/paperbench" open >"$out/open.txt"
"$bin/paperbench" -size test -open-json "$out/open-test.json" open >"$out/open-test.txt"
"$bin/btsim" -config bT8/HCC-DTS-gwb -app cilk5-cs -oracle >"$out/oracle.txt"
# A run past its deadline exits 1 with the machine-state dump on stderr;
# that dump, taken mid-run, is the golden.
if "$bin/btsim" -config bT8/HCC-DTS-gwb -app cilk5-cs -size test -deadline 10000 \
	>"$out/deadline.txt" 2>&1; then
	echo "golden: the -deadline run finished instead of stopping mid-run" >&2
	exit 1
fi
# A test-size scheduler trace. It runs inside $out, so the file name
# its stdout reports is the bare name, not a temp path.
(cd "$out" && "$bin/btsim" -config bT8/HCC-DTS-gwb -app cilk5-cs -size test -trace trace.log >trace.txt)
(cd "$out" && sha256sum all.json open-test.json trace.log >SHA256SUMS && rm all.json open-test.json trace.log)
# The two library examples and the graph generator's statistics.
"$bin/quickstart" >"$out/quickstart.txt"
"$bin/granularity" >"$out/granularity.txt"
"$bin/rmatgen" -stats >"$out/rmatgen.txt"
# The trajectory page lives in docs/, not with the goldens.
"$bin/paperbench" trajectory -bench-history BENCH.json -o "$tmp/bench.html" >/dev/null

if [ "$mode" = bless ]; then
	cp "$out"/* "$gold/"
	cp "$tmp/bench.html" "$gold/../bench.html"
	echo "golden-bless: rewrote $(ls "$out" | wc -l) goldens in $gold and docs/bench.html"
	exit 0
fi

for f in "$out"/*; do
	name=$(basename "$f")
	if [ ! -f "$gold/$name" ]; then
		echo "golden-check: $name has no blessed copy" >&2
		bad=1
		continue
	fi
	compare "$name" "$gold/$name" "$f"
done
compare docs/bench.html "$gold/../bench.html" "$tmp/bench.html"
if [ "$bad" -ne 0 ]; then
	exit 1
fi
echo "golden-check: $(ls "$out" | wc -l) outputs identical to docs/golden, and docs/bench.html to BENCH.json"
