#!/bin/sh
# Byte-identity against the past. Each file in docs/golden is the full
# output of one deterministic command, blessed once; `check` re-runs
# every command and compares byte for byte, printing the first differing
# line of each mismatch. The -json of the `all` run is too large to
# keep, so SHA256SUMS holds its hash instead.
#
#   sh docs/golden/golden.sh check [BINDIR]   (make golden-check)
#   sh docs/golden/golden.sh bless [BINDIR]   (make golden-bless)
#
# BINDIR holds built btsim and paperbench binaries; without it they are
# built into a temp dir first. Run from the repository root. A bless
# rewrites every golden: say why in CHANGES.md.
set -eu

mode=${1:-}
case $mode in
check | bless) ;;
*)
	echo "usage: $0 check|bless [BINDIR]" >&2
	exit 2
	;;
esac
gold=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=${2:-}
if [ -z "$bin" ]; then
	bin=$tmp/bin
	${GO:-go} build -o "$bin/" ./cmd/btsim ./cmd/paperbench
fi
out=$tmp/out
mkdir "$out"

"$bin/paperbench" -size test -j 1 -json "$out/all.json" all >"$out/all.txt"
"$bin/paperbench" -apps cilk5-cs,ligra-bfs chaos >"$out/chaos.txt"
"$bin/paperbench" open >"$out/open.txt"
"$bin/paperbench" -size test open >"$out/open-test.txt"
"$bin/btsim" -config bT8/HCC-DTS-gwb -app cilk5-cs -oracle >"$out/oracle.txt"
# A run past its deadline exits 1 with the machine-state dump on stderr;
# that dump, taken mid-run, is the golden.
if "$bin/btsim" -config bT8/HCC-DTS-gwb -app cilk5-cs -size test -deadline 10000 \
	>"$out/deadline.txt" 2>&1; then
	echo "golden: the -deadline run finished instead of stopping mid-run" >&2
	exit 1
fi
(cd "$out" && sha256sum all.json >SHA256SUMS && rm all.json)

if [ "$mode" = bless ]; then
	cp "$out"/* "$gold/"
	echo "golden-bless: rewrote $(ls "$out" | wc -l) goldens in $gold"
	exit 0
fi

bad=0
for f in "$out"/*; do
	name=$(basename "$f")
	if [ ! -f "$gold/$name" ]; then
		echo "golden-check: $name has no blessed copy" >&2
		bad=1
		continue
	fi
	cmp -s "$gold/$name" "$f" && continue
	bad=1
	line=$(cmp "$gold/$name" "$f" 2>&1 | sed -n 's/.*line \([0-9][0-9]*\).*/\1/p')
	line=${line:-1}
	echo "golden-check: $name differs from the blessed copy at line $line" >&2
	echo "  blessed: $(sed -n "${line}p" "$gold/$name")" >&2
	echo "  now:     $(sed -n "${line}p" "$f")" >&2
done
if [ "$bad" -ne 0 ]; then
	exit 1
fi
echo "golden-check: $(ls "$out" | wc -l) outputs identical to docs/golden"
