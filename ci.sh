#!/bin/sh
# Repository CI gate: formatting, vet, package-doc drift, build (native and
# cross-compiled to arm64), full tests, the kernel packages again on the
# portable -tags purego path, greps over the assembly kernels for fused
# multiply-adds and 256-bit arithmetic (floating-point, compare, logical and
# integer maximum), race-detector runs of
# the packages with concurrency (the parallel GEMM kernels, the
# device-parallel trainer, the campaign worker pool, the distributed
# coordinator/worker protocol, and the repro binary's subcommands driven
# in-process, whose tests hold the CLI's flag, exit-status and report
# contracts and the docs' flag-drift gate), fuzz smokes of the journal
# parser/repairer and of the GEMM kernels, the convolution lowering and the
# element-wise layer kernels against their naive oracles and of the
# collective's retry budget; then, for what needs a process boundary or a
# second build, `repro campaign` runs: a graceful SIGINT kill-and-resume
# smoke, the smoke's reference campaign
# again from a -tags purego build (assembly and portable kernels must agree
# on a whole campaign, byte for byte), a transformer FF campaign and one
# device-fault campaign per recovery strategy from both builds with and
# without -scrub-workspaces (and again under -early-exit, where each must
# report experiments proven golden by construction and a device-fault archive
# must equal the exhaustive one), the forked campaign against a cold-start one
# (-snapshot-stride -1), a SIGKILL crash loop that
# repeatedly murders a device-fault campaign mid-write and requires -resume
# -repair-journal to converge to the byte-identical reference, a
# campaignd smoke that runs a sharded campaign through a real coordinator +
# two worker processes on loopback and cmps the merged journal against the
# single-process one, a one-iteration run of the benchmarks the docs cite,
# and vet + tests of the bench/ module, which is not part of ./... .
#
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "files need gofmt:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== package-comment gate (every internal/* package documents itself) =="
missing=""
for dir in internal/*/; do
	name=$(basename "$dir")
	if ! grep -q "^// Package $name " "$dir"*.go; then
		missing="$missing $name"
	fi
done
if [ -n "$missing" ]; then
	echo "internal packages missing a '// Package <name>' comment:$missing" >&2
	exit 1
fi

echo "== go build =="
go build ./...

echo "== cross-compile gate (the assembly kernels have a pure-Go twin on every other architecture) =="
GOARCH=arm64 go build ./...

echo "== go test =="
go test ./...

echo "== portable kernel path (-tags purego: the Go loops the assembly replaces must not rot) =="
go vet -tags purego ./internal/tensor
go test -tags purego ./internal/tensor ./internal/nn ./internal/train

echo "== no fused multiply-add in the assembly (one rounding instead of two breaks bitwise identity with the Go loops) =="
if grep -nE 'VFN?M(ADD|SUB)' internal/tensor/*.s; then
	echo "fused multiply-add in a kernel" >&2
	exit 1
fi

echo "== no 256-bit arithmetic in the assembly (Y-register moves and shuffles are free; Y-register arithmetic — floating-point, compares, logicals, integer maxima — takes the AVX frequency licence) =="
if grep -nE '^[[:space:]]*V((ADD|SUB|MUL|DIV|SQRT|MAX|MIN|CMP)[PS][SD]|(AND|ANDN|OR|XOR)P[SD]|P(MAX|MIN)[SU][BWDQ]|P(AND|ANDN|OR|XOR))[[:space:]].*Y[0-9]' internal/tensor/*.s; then
	echo "256-bit arithmetic in a kernel" >&2
	exit 1
fi

echo "== go test -race (concurrent packages; assembly is invisible to the detector, its Go callers are not; TestEvaluateIsPure and TestHeldTestPointMatchesInPlace run here) =="
go test -race ./internal/tensor ./internal/nn ./internal/train

echo "== recovery strategies under -race (JIT restore goroutine, elastic resize, parallel-vs-serial guard equivalence) =="
go test -race ./internal/comm ./internal/recovery

echo "== kernel-pool leak guard (tensor TestMain fails the package if ClosePool leaves workers) =="
go test -count 1 -run 'TestPoolCloseNoLeak' ./internal/tensor

echo "== fused-mitigation equivalence under -race (epilogue stats == sweeps, alarm for alarm) =="
go test -race ./internal/detect ./internal/baseline

echo "== campaign equivalence under -race (forked+pooled == cold, resume == uninterrupted, deferred test evaluation == TestDeferredEvalRecordsExact's evaluate-in-place oracle, TestCampaignEvaluationsAtMostOnePerExperiment, golden by construction == TestGoldenByConstructionExact's executed oracle with TestGoldenByConstructionMustExecute's negative table; byte for byte) =="
# `go test -race ./internal/experiment` takes 94–105 s on this 2-CPU shared
# box (99–101 s at the parent of the PR that removed the execution twins,
# same session, alternating), well inside go test's default 10-minute
# per-package timeout.
go test -race ./internal/experiment ./internal/record ./internal/telemetry

echo "== the repro binary under -race (every subcommand in-process: flag sets against the replaced binaries' -h, bad-flag exits, a resume under a changed flag naming the field, the fast-path tally equal to the exhaustive one, the JIT crash campaign's journal fields, and the flag-drift gate over README.md / DESIGN.md) =="
go test -race ./cmd/repro

echo "== distributed campaign under -race (1/2/4 workers over HTTP, killed worker reassigned, merged journal byte-identical) =="
go test -race ./internal/dist

echo "== kill-and-resume smoke (SIGINT mid-campaign, -resume must reproduce the reference byte for byte) =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/repro" ./cmd/repro
"$tmp/repro" campaign -workload resnet -n 40 -iters 12 -seed 5 -json "$tmp/ref.json" >/dev/null
"$tmp/repro" campaign -workload resnet -n 40 -iters 12 -seed 5 \
	-journal "$tmp/run.jsonl" >/dev/null 2>&1 &
pid=$!
sleep 1
kill -INT "$pid" 2>/dev/null || true
wait "$pid" || true # 130 when the interrupt landed mid-run
"$tmp/repro" campaign -workload resnet -n 40 -iters 12 -seed 5 \
	-journal "$tmp/run.jsonl" -resume -json "$tmp/resumed.json" >/dev/null
cmp "$tmp/ref.json" "$tmp/resumed.json"

echo "== assembly vs portable on a whole campaign (the reference campaign above from a -tags purego build, byte for byte) =="
# The kernel tests compare the two paths GEMM by GEMM; this compares them
# after every layer, optimizer step and fault of 40 experiments.
go build -tags purego -o "$tmp/repro.purego" ./cmd/repro
"$tmp/repro.purego" campaign -workload resnet -n 40 -iters 12 -seed 5 -json "$tmp/purego.json" >/dev/null
cmp "$tmp/ref.json" "$tmp/purego.json"

echo "== sequence path: a transformer FF campaign and a device-fault campaign under each recovery strategy, assembly vs portable and plain vs -scrub-workspaces, byte for byte =="
# The sequence layers keep state from Forward to Backward in reused buffers;
# a stale read shows as a scrubbed run that differs from the plain one. The
# deferred test evaluation writes a held boundary into a pooled engine's root
# replica after every experiment, so each strategy's campaign is here too
# (reexec and degraded roll back across TestEvery boundaries).
# Each of these populations holds experiments that are golden by construction
# (never-firing or empty FF programs; stragglers inside the retry budget), so
# under -early-exit both builds must report having proven some and agree on
# the archive, which mixes synthesized and executed records. A device-fault
# record carries no early-exit provenance, so there the -early-exit archive
# must equal the exhaustive one above byte for byte: what was synthesized
# against what was executed.
for flags in "" "-device-faults all -recovery jit" "-device-faults all -recovery reexec" \
	"-device-faults all -recovery elastic" "-device-faults all -recovery degraded"; do
	# $flags is a flag list: split on purpose.
	"$tmp/repro" campaign -workload transformer -n 24 -seed 5 $flags -json "$tmp/seq-ref.json" >/dev/null
	"$tmp/repro" campaign -workload transformer -n 24 -seed 5 $flags -scrub-workspaces -json "$tmp/seq-scrub.json" >/dev/null
	"$tmp/repro.purego" campaign -workload transformer -n 24 -seed 5 $flags -json "$tmp/seq-purego.json" >/dev/null
	"$tmp/repro.purego" campaign -workload transformer -n 24 -seed 5 $flags -scrub-workspaces -json "$tmp/seq-purego-scrub.json" >/dev/null
	cmp "$tmp/seq-ref.json" "$tmp/seq-scrub.json"
	cmp "$tmp/seq-ref.json" "$tmp/seq-purego.json"
	cmp "$tmp/seq-ref.json" "$tmp/seq-purego-scrub.json"
	"$tmp/repro" campaign -workload transformer -n 24 -seed 5 $flags -early-exit -json "$tmp/seq-fast.json" >"$tmp/seq-fast.txt"
	"$tmp/repro.purego" campaign -workload transformer -n 24 -seed 5 $flags -early-exit -json "$tmp/seq-fast-purego.json" >"$tmp/seq-fast-purego.txt"
	cmp "$tmp/seq-fast.json" "$tmp/seq-fast-purego.json"
	grep -Eq ', [1-9][0-9]* golden by construction' "$tmp/seq-fast.txt"
	grep -Eq ', [1-9][0-9]* golden by construction' "$tmp/seq-fast-purego.txt"
	if [ -n "$flags" ]; then
		cmp "$tmp/seq-ref.json" "$tmp/seq-fast.json"
	fi
done

echo "== forked and pooled vs cold start (-snapshot-stride -1: every experiment replays from iteration 0), byte for byte =="
# Nothing but the initial snapshot is carried between cold experiments, so an
# identical archive proves rearm covers what the previous experiment's
# ResolveTest wrote into the engine.
for flags in "-workload resnet" "-workload transformer -device-faults all -recovery jit"; do
	"$tmp/repro" campaign $flags -n 24 -seed 5 -json "$tmp/forked.json" >/dev/null
	"$tmp/repro" campaign $flags -n 24 -seed 5 -snapshot-stride -1 -json "$tmp/cold.json" >/dev/null
	cmp "$tmp/forked.json" "$tmp/cold.json"
done

echo "== campaignd smoke (coordinator + 2 worker processes on loopback, merged journal must equal the single-process one) =="
go build -o "$tmp/campaignd" ./cmd/campaignd
"$tmp/repro" campaign -workload resnet -n 24 -iters 12 -seed 9 \
	-journal "$tmp/dist-ref.jsonl" >/dev/null
"$tmp/campaignd" -addr 127.0.0.1:0 -addr-file "$tmp/campaignd.addr" \
	-data "$tmp/campaignd-data" -lease-ttl 5s >/dev/null 2>&1 &
dpid=$!
trap 'kill "$dpid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
tries=0
while [ ! -s "$tmp/campaignd.addr" ] && [ "$tries" -lt 50 ]; do
	tries=$((tries + 1))
	sleep 0.1
done
daddr=$(cat "$tmp/campaignd.addr")
cid=$(curl -sf -X POST "http://$daddr/campaigns" \
	-d '{"workload":"resnet","experiments":24,"iters":12,"seed":9,"shard_size":5}' |
	sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$cid" ]
"$tmp/repro" campaign -worker "http://$daddr" -worker-id ci-w1 -worker-drain >/dev/null &
w1=$!
"$tmp/repro" campaign -worker "http://$daddr" -worker-id ci-w2 -worker-drain >/dev/null &
w2=$!
wait "$w1"
wait "$w2"
curl -sf "http://$daddr/campaigns/$cid/status" | grep -q '"state":"done"'
curl -sf "http://$daddr/campaigns/$cid/journal" -o "$tmp/dist-merged.jsonl"
cmp "$tmp/dist-ref.jsonl" "$tmp/dist-merged.jsonl"
kill -INT "$dpid" 2>/dev/null || true
wait "$dpid" || true

echo "== journal fuzz smoke (parser must not panic, repairer must converge) =="
go test -run '^$' -fuzz 'FuzzParseJournal' -fuzztime 3s ./internal/record
go test -run '^$' -fuzz 'FuzzRepairJournal' -fuzztime 3s ./internal/record

echo "== retry-budget fuzz smoke (Policy.Arrival against the Retries / Failed AllReduce reports for the armed fault, fuzzer-chosen delay, policy and kind) =="
go test -run '^$' -fuzz 'FuzzArrivalResolution' -fuzztime 3s ./internal/comm

echo "== GEMM fuzz smoke (every entry point, fp32 and bf16, against the naive triple loop) =="
go test -run '^$' -fuzz 'FuzzGEMMOracle' -fuzztime 3s ./internal/tensor

echo "== lowering fuzz smoke (im2col and col2im against the per-element loops, fuzzer-chosen geometry and bit patterns) =="
go test -run '^$' -fuzz 'FuzzLoweringOracle' -fuzztime 3s ./internal/tensor

echo "== element-wise kernel fuzz smoke (BatchNorm normalize / dx, ReLU forward / backward and the bias add against per-element loops, fuzzer-chosen shape and bit patterns) =="
go test -run '^$' -fuzz 'FuzzElemOracle' -fuzztime 3s ./internal/tensor

echo "== SIGKILL crash loop (repeated kill -9 mid-campaign, -resume -repair-journal must converge byte for byte) =="
"$tmp/repro" campaign -workload resnet -n 40 -iters 12 -seed 7 \
	-device-faults all -recovery reexec -json "$tmp/dfref.json" >/dev/null
round=0
while [ "$round" -lt 4 ]; do
	round=$((round + 1))
	repairflag=""
	[ -f "$tmp/df.jsonl" ] && repairflag="-repair-journal"
	"$tmp/repro" campaign -workload resnet -n 40 -iters 12 -seed 7 \
		-device-faults all -recovery reexec \
		-journal "$tmp/df.jsonl" -resume $repairflag >/dev/null 2>&1 &
	pid=$!
	# Vary the kill point per round so different rounds die in different
	# campaign phases (golden prep, mid-sweep, journal append).
	sleep "$(awk -v r="$round" 'BEGIN{srand(r); printf "%.2f", 0.2 + rand()*1.0}')"
	kill -9 "$pid" 2>/dev/null || true
	wait "$pid" || true # 137 when the kill landed mid-run
done
"$tmp/repro" campaign -workload resnet -n 40 -iters 12 -seed 7 \
	-device-faults all -recovery reexec \
	-journal "$tmp/df.jsonl" -resume -repair-journal -json "$tmp/dfresumed.json" >/dev/null
cmp "$tmp/dfref.json" "$tmp/dfresumed.json"

echo "== bench smoke (-benchtime=1x: every benchmark the docs cite still runs) =="
go test -run '^$' -bench 'Benchmark(Campaign(Cold|Forked|ForkedTelemetry|InertShare)|Kernel_(MatMulBlocked|MatMulTA|MatMulTB|GEMMCampaign(NN|NN12|TA|TB)|Im2Col|Col2Im|ReLU(Forward|Backward)|BatchNorm(Forward|Backward)|AddBias|AddInPlace|GELU(Forward|Backward)|LayerNorm(Forward|Backward)|Attention(Forward|Backward)|TransformerStep|GEMMPool|GEMMMixedPacked|TrainStepMixed)|Overhead(Plain|DetectCheck(Fused|Sweep)|ABFT(Fused|Sweep)))$' -benchtime 1x .

echo "== bench/ module (its own go.mod, so ./... above never compiles it; an API removal it depends on fails here) =="
(cd bench && go vet ./... && go test ./...)

echo "CI passed."
