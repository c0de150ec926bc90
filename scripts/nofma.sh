#!/usr/bin/env bash
# nofma.sh — fail if the compiler fused a floating-point multiply with an
# add or subtract inside a determinism-scope package on any port that
# fuses. The Go spec lets an implementation compute x*y + z with one
# rounding instead of two; amd64 never does, arm64, ppc64le, s390x and
# riscv64 do, so an unrounded product would make the same request answer
# differently on those hosts. Writing float64(x*y) + z forces the
# intermediate rounding; this script proves no site was missed.
#
# It cross-compiles ./cmd/mvcloud and ./cmd/mvcloudd for each fusing
# port, disassembles them with `go tool objdump`, and reports every
# fused instruction (FMADD/FMSUB/FNMADD/FNMSUB in either precision;
# MADBR/MSDBR/MAEBR/MSEBR and their memory forms on s390x) inside a
# function of internal/{optimizer,search,compare,lattice,core,shard} or
# of the packages the bill is computed in,
# internal/{money,costmodel,pricing,units,cluster}.
# Integer multiply-add (arm64 MADD/MSUB) is not floating point and is
# not reported.
#
# Scope is read from the enclosing TEXT symbol, so each binary is built
# twice. The default build is what ships, including any fusion that
# only appears once a helper is inlined into a scoped function. The
# -gcflags=all=-l build turns inlining off, so every scoped function
# keeps a body under its own symbol: a scoped helper that the default
# build inlines into an out-of-scope caller (its fused instructions
# listed under that caller, its standalone body dropped) is still
# checked.
#
# Usage (from the repository root, needs no foreign hardware):
#   ./scripts/nofma.sh
set -euo pipefail

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for arch in arm64 ppc64le s390x riscv64; do
	for cmd in mvcloud mvcloudd; do
		for gcflags in "" "all=-l"; do
			bin="$out/$cmd.$arch"
			GOARCH=$arch go build -gcflags="$gcflags" -o "$bin" "./cmd/$cmd"
			if ! go tool objdump "$bin" | awk -v where="$arch $cmd${gcflags:+ -gcflags=$gcflags}" '
				/^TEXT / {
					fn = $2
					scoped = fn ~ /^vmcloud\/internal\/(optimizer|search|compare|lattice|core|shard|money|costmodel|pricing|units|cluster)\./
					next
				}
				scoped && /\t(FN?M(ADD|SUB)[SD]?|M[AS][DE]BR?)[ \t]/ {
					sub(/^[ \t]+/, "")
					print where ": fused multiply-add in " fn " at " $0
					found = 1
				}
				END { exit found }'; then
				status=1
			fi
		done
	done
done
if [ "$status" -ne 0 ]; then
	echo "round each product explicitly, e.g. float64(a*b) + c" >&2
fi
exit "$status"
