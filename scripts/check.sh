#!/bin/sh
# check.sh — the repo's verification gate, in two tiers.
#
#   Tier 1 (correctness): build + full test suite + shmlint (any finding,
#   including a stale //lint:ignore, fails) + the structural greps. Must
#   always pass; CI and the growth driver treat a tier-1 failure as a
#   broken tree.
#
#   Tier 2 (analysis): go vet, the -race stress suite over the
#   concurrency core, and a short deterministic smoke run of every fuzz
#   target (replays testdata/fuzz corpora plus 100 fresh execs each).
#
# Usage: scripts/check.sh [tier1|tier2|all]   (default: all)
set -eu

cd "$(dirname "$0")/.."

tier="${1:-all}"

tier1() {
	echo "== tier 1: build =="
	go build ./...
	echo "== tier 1: tests =="
	go test ./...
	echo "== tier 1: build (noasm) =="
	go build -tags noasm ./...
	echo "== tier 1: tests (noasm — portable float32 kernels) =="
	# Second pass with the assembly backend compiled out: the portable
	# unrolled kernels must pass the same suite bitwise (DESIGN.md §14).
	go test -tags noasm ./...
	echo "== tier 1: solver trajectory + momentum kernel (SHMCAFFE_NOSIMD — portable at runtime) =="
	# Same binary, assembly vetoed by the environment: the golden trajectory
	# hashes and the kernel contract hold on the runtime opt-out too.
	SHMCAFFE_NOSIMD=1 go test -run 'Trajectory|FusedMomentum' ./internal/nn ./internal/tensor
	echo "== tier 1: build (noshm) =="
	go build -tags noshm ./...
	echo "== tier 1: tests (noshm — shared-memory transport compiled out) =="
	# The smb suite must pass with the mmap transport stubbed: shm tests
	# skip, every wire path still works, and auto-negotiation falls back.
	go test -tags noshm ./internal/smb
	echo "== tier 1: benchmark module (toy-size smoke + measured-surface import test) =="
	# benchmark/ is its own module, so ./... above never sees it: a refactor
	# that breaks what the benchmark binds to must fail here, not in the
	# driver's run.
	(cd benchmark && go test ./...)
	echo "== tier 1: gofmt =="
	unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
	if [ -n "$unformatted" ]; then
		echo "$unformatted"
		echo "gofmt -l lists the files above" >&2
		return 1
	fi
	echo "== tier 1: shmlint =="
	go run ./cmd/shmlint ./...
	echo "== tier 1: no capability probing of smb clients =="
	# smb.Client is the whole verb set: callers type-assert neither to an smb
	# type nor to an anonymous interface to find out what a client can do.
	if grep -rnE '\.\((smb\.|interface ?\{)' --include='*.go' cmd internal/core internal/platform | grep -v _test.go; then
		echo "capability probe found (see above)" >&2
		return 1
	fi
	# Every remote transport is dialed through smb's registry: nothing above
	# it forks on a transport's package.
	if grep -rn 'internal/rds"' --include='*.go' cmd/shmtrain internal/platform | grep -v _test.go; then
		echo "out-of-registry rds dial found (see above)" >&2
		return 1
	fi
	# The Fig. 6 exchange and the termination check are spelled once, in
	# core's exchange engine: neither driver grows its own copy back.
	if grep -nE 'func \((w \*Worker|g \*HybridGroup)\) (checkTermination|pushPending|updateThread|observeStaleness)\(' internal/core/*.go; then
		echo "second spelling of the exchange procedure found (see above)" >&2
		return 1
	fi
	# The solver update is one fused sweep per parameter and the dense
	# weight gradient accumulates in place: neither the scalar clip and
	# momentum loops nor the in×out dW temporary grows back.
	if grep -nE 'ClipInPlace|for j := range v' internal/nn/solver.go ||
		grep -n 'tensor.New(d.in, d.out)' internal/nn/dense.go; then
		echo "scalar solver sweep or dense dW temporary found (see above)" >&2
		return 1
	fi
	# shmserve's batcher is work-conserving: no fixed batch wait comes back.
	if grep -nE 'time\.NewTimer|batch-delay' cmd/shmserve/main.go; then
		echo "fixed batch wait found in shmserve (see above)" >&2
		return 1
	fi
	# Wg is read into, and ΔWx pushed out of, the float32 buffers' own memory:
	# no staging buffer or codec pass comes back onto the exchange or the
	# shmserve refresh.
	if grep -nE 'wgBytes|dwBytes|StageIncrement|PushStaged|EncodeFloat32|DecodeFloat32' internal/core/*.go | grep -v '_test.go:' ||
		grep -n 'DecodeFloat32' cmd/shmserve/main.go; then
		echo "wire codec pass found on the exchange or the refresh (see above)" >&2
		return 1
	fi
	# a×bᵀ runs the tiled loop or the SIMD microkernel; the serial-dot kernel
	# lives on only as the test reference.
	if grep -n 'gemmTransBScalar' internal/tensor/*.go | grep -v '_test.go:'; then
		echo "serial-dot a×bᵀ kernel found outside the tests (see above)" >&2
		return 1
	fi
	# The microkernel transposes bᵀ in registers: no packed bᵀ panel, no
	# transpose pass, no shape rule choosing one.
	if grep -nE 'gemmTransBPacked|transposeInto|useTransBPack|transBPack' internal/tensor/*.go | grep -v '_test.go:'; then
		echo "packed a×bᵀ arm found (see above)" >&2
		return 1
	fi
	# ReLU masks through tensor.MaskPositive in both directions; its
	# predicate lives in internal/tensor, not beside a per-element loop in nn.
	if grep -n 'func posMask' internal/nn/*.go | grep -v '_test.go:'; then
		echo "per-element ReLU mask found in internal/nn (see above)" >&2
		return 1
	fi
	# Atomics are typed (atomic.Int64, the shm control page's word32/word64),
	# so no word is reachable both atomically and by a plain read — a race
	# -race only reports when a test happens to exercise both sides.
	if grep -rnE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)\(' --include='*.go' . | grep -v '_test.go:'; then
		echo "function-style sync/atomic call found; use a typed atomic (see above)" >&2
		return 1
	fi
	# Kernel and transport costs have one instrument each: go test -bench in
	# the owning package and the repo benchmark's per-layer rows. The second
	# harness (benchtables -kernels/-serve and its re-exec'd server) stays out.
	if grep -rnE 'SHMCAFFE_BENCH_SERVE|MaybeServeBenchChild|KernelBench|BENCH_kernels' --include='*.go' .; then
		echo "second benchmark harness found (see above)" >&2
		return 1
	fi
	# A snapshot is one copy under the op gate for every segment: the lazy
	# copy-on-write machinery (pre-image pages, per-stripe seqlock words, the
	# optimistic stripe reader) stays out of the store.
	if grep -nE 'cowStripe|snapPagePool|snapReadStripe|epochs' internal/smb/*.go | grep -v '_test.go:'; then
		echo "lazy snapshot machinery found in internal/smb (see above)" >&2
		return 1
	fi
	# One job bootstrap: every SEASGD driver rendezvouses on the SMB server.
	# core needs no MPI runtime, and no MPI-collective twin of the polling
	# bootstrap (or the communicator field it took) comes back.
	if grep -n 'shmcaffe/internal/mpi"' internal/core/*.go ||
		grep -nE 'func (SetupBuffers|NewWorker)\(|^[[:space:]]+Comm[[:space:]]' internal/core/*.go | grep -v '_test.go:'; then
		echo "second bootstrap or MPI dependency found in internal/core (see above)" >&2
		return 1
	fi
	# Bulk bytes cross the SMB server unstaged: Write bodies land in the
	# segment's stripes and bulk replies leave from them or the cut, so
	# neither the bulk-reply scratch nor a whole-frame request read comes back.
	if grep -nE 'bulkOut|cs\.out\b|readFrameInto' internal/smb/*.go | grep -v '_test.go:'; then
		echo "server-side bulk staging found in internal/smb (see above)" >&2
		return 1
	fi
	# One connection contract: every transport's smb.Conn has deadlines, so
	# neither a deadline probe nor a second server data path for connections
	# without them comes back.
	if grep -nE 'deadlineConn|streamConn|cs\.sc\b|deadliner|listenerConn' internal/smb/*.go internal/faults/*.go | grep -v '_test.go:'; then
		echo "connection-capability probe found in internal/smb or internal/faults (see above)" >&2
		return 1
	fi
	# T1 lands Wg in pendingDelta, which T2 overwrites in place: no separate
	# Wg landing vector (a second parameter-sized float32 slice, or a step or
	# start that takes one) comes back onto the exchange or its drivers.
	if grep -nE 'make\(\[\]float32, [[:alnum:]_.]*(Elems|NumParams)\(\)\)|func \(e \*exchange\) (start|step)\([^)]*,' \
		internal/core/exchange.go internal/core/worker.go internal/core/hybrid.go | grep -v 'pendingDelta:'; then
		echo "Wg landing vector beside pendingDelta found in internal/core (see above)" >&2
		return 1
	fi
	# The stripe protocol is written once: a mapped ShmClient runs the
	# segment's own walk, accumulate and fused push, so no second copy of the
	# cross-process lock order (its stripe-pair and gate-pair helpers, or the
	# mapping type they worked on) comes back.
	if grep -nE 'shmMapped|stripeSpan|lockStripePair|unlockStripePair|snapGateRLockPair|snapGateRUnlockPair' internal/smb/*.go | grep -v '_test.go:'; then
		echo "second copy of the stripe protocol found in internal/smb (see above)" >&2
		return 1
	fi
}

tier2() {
	echo "== tier 2: go vet =="
	go vet ./...
	echo "== tier 2: race stress (smb, ps, core, rds, telemetry, shmserve) =="
	go test -race ./internal/smb ./internal/ps ./internal/core ./internal/rds ./internal/telemetry ./cmd/shmserve
	echo "== tier 2: fuzz smoke (100 execs per target) =="
	# go test accepts exactly one -fuzz pattern per invocation.
	for target in FuzzDispatch FuzzFrameRoundTrip FuzzReadFrame FuzzSnapVerbs; do
		go test -run='^$' -fuzz="^${target}\$" -fuzztime=100x ./internal/smb
	done
	for target in FuzzParseNetSpec FuzzLoadCheckpoint; do
		go test -run='^$' -fuzz="^${target}\$" -fuzztime=100x ./internal/nn
	done
	go test -run='^$' -fuzz='^FuzzFusedKernels$' -fuzztime=100x ./internal/tensor
	echo "== tier 2: bench smoke (1 iteration per benchmark) =="
	go test -run='^$' -bench=. -benchtime=1x -benchmem \
		./internal/parallel ./internal/tensor ./internal/smb ./internal/core ./internal/nccl
	echo "== tier 2: allocation regression guard =="
	# Pins the zero-alloc contract of the SMB hot path (Store and
	# StreamClient Read/Write/Accumulate, the WriteAccumulate push, pooled
	# wire scratch), the store's recycled snapshot cut buffers (no
	# segment-sized buffer per cut), the fused worker exchange step, the pooled
	# parallel.For/ForRanger dispatch, the byte budget of one wide-model
	# solver Step (no parameter-sized temporaries) and of one batch-16
	# SmallCNN Step (no per-sample conv scratch), and shmserve's recycled
	# weight cuts (no weight-sized buffers per refresh).
	go test -run='TestSteadyStateZeroAlloc|TestReadInt64Slots|TestSnapReadZeroAlloc|TestSnapshotCycleAllocBytes' -count=1 ./internal/smb
	go test -run='TestRecordingZeroAlloc|TestSpanZeroAlloc|TestEventRecordZeroAlloc' -count=1 ./internal/telemetry
	go test -run='TestFusedStepAndPushZeroAlloc' -count=1 ./internal/core
	go test -run='TestWideStepAllocBytes|TestSmallCNNStepAllocBytes' -count=1 ./internal/nn
	go test -run='TestForRangerZeroAlloc|TestForZeroAlloc|TestFreelist' -count=1 ./internal/parallel
	go test -run='ZeroAllocAcrossGC|TestDispatchedKernelsZeroAlloc' -count=1 ./internal/tensor
	go test -run='TestRefreshAllocBytes' -count=1 ./cmd/shmserve
	echo "== tier 2: telemetry smoke (2-worker -telemetry run) =="
	telemetry_smoke
	echo "== tier 2: fault-injection smoke (chaos server + reconnecting workers) =="
	fault_smoke
	echo "== tier 2: observability smoke (chaos cluster scraped by shmtop) =="
	obs_smoke
	echo "== tier 2: shm smoke (zero-copy transport negotiation + cross-transport determinism) =="
	shm_smoke
	echo "== tier 2: serve smoke (snapshot-fed inference frontend under a training run) =="
	serve_smoke
}

# telemetry_smoke runs a short 2-worker shmtrain with the telemetry surface
# enabled, scrapes /metrics during the linger window, and validates the
# emitted Chrome trace through benchtables -trace.
telemetry_smoke() {
	tmpdir="$(mktemp -d)"
	trap 'rm -rf "$tmpdir"' EXIT
	go build -o "$tmpdir/shmtrain" ./cmd/shmtrain
	go build -o "$tmpdir/benchtables" ./cmd/benchtables
	"$tmpdir/shmtrain" -platform shmcaffe-a -workers 2 -epochs 2 -per-class 40 \
		-telemetry 127.0.0.1:0 -trace-out "$tmpdir/trace.json" \
		-telemetry-linger 8s >"$tmpdir/train.log" 2>&1 &
	train_pid=$!

	# Wait for the telemetry URL to appear in the log.
	url=""
	for _ in $(seq 1 100); do
		url="$(sed -n 's#.*telemetry listening on http://\([^ ]*\).*#\1#p' "$tmpdir/train.log" | head -1)"
		[ -n "$url" ] && break
		sleep 0.1
	done
	if [ -z "$url" ]; then
		echo "telemetry smoke: no listening URL in shmtrain output" >&2
		cat "$tmpdir/train.log" >&2
		kill "$train_pid" 2>/dev/null || true
		return 1
	fi

	# Scrape until the run has recorded both acceptance families.
	ok=""
	for _ in $(seq 1 100); do
		if curl -fsS "http://$url/metrics" >"$tmpdir/metrics.txt" 2>/dev/null &&
			grep -q 'smb_accumulate_seconds_bucket' "$tmpdir/metrics.txt" &&
			grep -q 'seasgd_t1_staleness_iterations_count' "$tmpdir/metrics.txt"; then
			ok=1
			break
		fi
		sleep 0.1
	done
	if [ -z "$ok" ]; then
		echo "telemetry smoke: /metrics never carried the acceptance series" >&2
		cat "$tmpdir/metrics.txt" >&2 || true
		kill "$train_pid" 2>/dev/null || true
		return 1
	fi

	wait "$train_pid"
	# The trace must parse and contain compute spans.
	"$tmpdir/benchtables" -trace "$tmpdir/trace.json" | grep -q 'T4+T5'
	echo "telemetry smoke: OK"
}

# clean_smoke removes whichever smoke tmpdirs exist; EXIT-trap safe under
# set -u even when only one smoke ran.
clean_smoke() {
	[ -n "${tmpdir:-}" ] && rm -rf "$tmpdir"
	[ -n "${tmpdir2:-}" ] && rm -rf "$tmpdir2"
	[ -n "${tmpdir3:-}" ] && rm -rf "$tmpdir3"
	[ -n "${tmpdir4:-}" ] && rm -rf "$tmpdir4"
	[ -n "${tmpdir5:-}" ] && rm -rf "$tmpdir5"
	:
}

# fault_smoke is the ISSUE's acceptance drill at process level: the in-repo
# fault-injection tests first, then a real smbserver in chaos mode (seeded
# connection drops + one crash/restart of the serving plane) with two
# shmtrain worker processes training through it. Survival criteria: the
# server logs the restart, both workers reconnect and run to completion.
fault_smoke() {
	go test -run 'TestFaultyTrainingRunAcceptance|TestMasterCrashSurvivorsReElect|TestHybridGroupShrinksPastFailedMember|TestFlagStopSeesTombstone' -count=1 ./internal/core
	go test -run 'TestSupervisedExactlyOnceUnderDrops|TestSupervisedReconnectAcrossRestart' -count=1 ./internal/smb

	tmpdir2="$(mktemp -d)"
	trap 'clean_smoke' EXIT
	go build -o "$tmpdir2/smbserver" ./cmd/smbserver
	go build -o "$tmpdir2/shmtrain" ./cmd/shmtrain

	"$tmpdir2/smbserver" -addr 127.0.0.1:0 -stats 0 \
		-chaos-drop 0.005 -chaos-seed 11 \
		-chaos-restart-after 500ms -chaos-down 250ms \
		>"$tmpdir2/server.log" 2>&1 &
	server_pid=$!

	smb=""
	for _ in $(seq 1 100); do
		smb="$(sed -n 's/.*listening on tcp \([0-9.:]*\).*/\1/p' "$tmpdir2/server.log" | head -1)"
		[ -n "$smb" ] && break
		sleep 0.1
	done
	if [ -z "$smb" ]; then
		echo "fault smoke: smbserver never reported its address" >&2
		cat "$tmpdir2/server.log" >&2
		kill "$server_pid" 2>/dev/null || true
		return 1
	fi

	"$tmpdir2/shmtrain" -rank 0 -world 2 -smb "$smb" -job faultdrill \
		-epochs 150 -smb-timeout 5s -liveness-timeout 10s \
		>"$tmpdir2/w0.log" 2>&1 &
	w0_pid=$!
	"$tmpdir2/shmtrain" -rank 1 -world 2 -smb "$smb" -job faultdrill \
		-epochs 150 -smb-timeout 5s -liveness-timeout 10s \
		>"$tmpdir2/w1.log" 2>&1 &
	w1_pid=$!

	fail=""
	wait "$w0_pid" || fail="worker 0 exited nonzero"
	wait "$w1_pid" || fail="worker 1 exited nonzero"
	kill "$server_pid" 2>/dev/null || true
	wait "$server_pid" 2>/dev/null || true

	if [ -n "$fail" ]; then
		echo "fault smoke: $fail" >&2
		tail -n 5 "$tmpdir2/w0.log" "$tmpdir2/w1.log" "$tmpdir2/server.log" >&2
		return 1
	fi
	for r in 0 1; do
		if ! grep -q "worker $r finished" "$tmpdir2/w$r.log"; then
			echo "fault smoke: worker $r never reported completion" >&2
			cat "$tmpdir2/w$r.log" >&2
			return 1
		fi
	done
	if ! grep -q 'chaos: serving plane restarted' "$tmpdir2/server.log"; then
		echo "fault smoke: training finished before the chaos restart fired; nothing was proven" >&2
		cat "$tmpdir2/server.log" >&2
		return 1
	fi
	echo "fault smoke: OK (workers survived $(grep -c 'smb:' "$tmpdir2/server.log" || true) injected conn failures + 1 restart)"
}

# obs_smoke is ISSUE 8's acceptance drill: a 2-worker chaos cluster with the
# full observability surface up (server /metrics+/debug/trace via -http,
# workers via -telemetry), scraped by shmtop -snapshot. Proves (a) the merged
# cross-node trace stitches a worker push span to its server-side child —
# cross_node_chains >= 1 — and (b) the chaos crash dumped a readable flight
# record that includes the injected faults.
obs_smoke() {
	tmpdir3="$(mktemp -d)"
	trap 'clean_smoke' EXIT
	go build -o "$tmpdir3/smbserver" ./cmd/smbserver
	go build -o "$tmpdir3/shmtrain" ./cmd/shmtrain
	go build -o "$tmpdir3/shmtop" ./cmd/shmtop

	TMPDIR="$tmpdir3" "$tmpdir3/smbserver" -addr 127.0.0.1:0 -http 127.0.0.1:0 -stats 0 \
		-chaos-drop 0.02 -chaos-seed 7 \
		-chaos-restart-after 1s -chaos-down 250ms \
		>"$tmpdir3/server.log" 2>&1 &
	server_pid=$!

	smb="" http=""
	for _ in $(seq 1 100); do
		smb="$(sed -n 's/.*listening on tcp \([0-9.:]*\).*/\1/p' "$tmpdir3/server.log" | head -1)"
		http="$(sed -n 's#.*SMB metrics on http://\([0-9.:]*\)/metrics.*#\1#p' "$tmpdir3/server.log" | head -1)"
		[ -n "$smb" ] && [ -n "$http" ] && break
		sleep 0.1
	done
	if [ -z "$smb" ] || [ -z "$http" ]; then
		echo "obs smoke: smbserver never reported tcp + http addresses" >&2
		cat "$tmpdir3/server.log" >&2
		kill "$server_pid" 2>/dev/null || true
		return 1
	fi

	for r in 0 1; do
		"$tmpdir3/shmtrain" -rank "$r" -world 2 -smb "$smb" -job obsdrill \
			-epochs 150 -smb-timeout 5s -liveness-timeout 10s \
			-telemetry 127.0.0.1:0 -telemetry-linger 15s \
			>"$tmpdir3/w$r.log" 2>&1 &
		eval "w${r}_pid=\$!"
	done

	# Wait for both workers to finish training; their telemetry servers stay
	# up through the linger window, which is when shmtop scrapes.
	done_workers=""
	for _ in $(seq 1 600); do
		if grep -q 'worker 0 finished' "$tmpdir3/w0.log" &&
			grep -q 'worker 1 finished' "$tmpdir3/w1.log"; then
			done_workers=1
			break
		fi
		sleep 0.1
	done
	if [ -z "$done_workers" ]; then
		echo "obs smoke: workers never finished" >&2
		tail -n 5 "$tmpdir3/w0.log" "$tmpdir3/w1.log" "$tmpdir3/server.log" >&2
		kill "$w0_pid" "$w1_pid" "$server_pid" 2>/dev/null || true
		return 1
	fi

	w0url="$(sed -n 's#.*telemetry listening on http://\([^ ]*\).*#\1#p' "$tmpdir3/w0.log" | head -1)"
	w1url="$(sed -n 's#.*telemetry listening on http://\([^ ]*\).*#\1#p' "$tmpdir3/w1.log" | head -1)"
	if [ -z "$w0url" ] || [ -z "$w1url" ]; then
		echo "obs smoke: workers never reported telemetry URLs" >&2
		kill "$w0_pid" "$w1_pid" "$server_pid" 2>/dev/null || true
		return 1
	fi

	"$tmpdir3/shmtop" -nodes "server=$http,worker0=$w0url,worker1=$w1url" \
		-snapshot "$tmpdir3/fleet.json" -trace-out "$tmpdir3/fleet-trace.json" \
		>"$tmpdir3/shmtop.log" 2>&1 || {
		echo "obs smoke: shmtop failed" >&2
		cat "$tmpdir3/shmtop.log" >&2
		kill "$w0_pid" "$w1_pid" "$server_pid" 2>/dev/null || true
		return 1
	}

	wait "$w0_pid" "$w1_pid" || true
	kill "$server_pid" 2>/dev/null || true
	wait "$server_pid" 2>/dev/null || true

	# (a) The merged trace must contain at least one cross-process span chain.
	chains="$(sed -n 's/.*"cross_node_chains": \([0-9]*\).*/\1/p' "$tmpdir3/fleet.json" | head -1)"
	if [ -z "$chains" ] || [ "$chains" -lt 1 ]; then
		echo "obs smoke: merged trace has no cross-node span chains (got '${chains:-none}')" >&2
		cat "$tmpdir3/fleet.json" >&2
		return 1
	fi
	# The merged trace file must load as a trace and name both sides.
	grep -q '"worker0"' "$tmpdir3/fleet-trace.json" || {
		echo "obs smoke: merged trace missing worker0 process" >&2
		return 1
	}
	grep -q '"server"' "$tmpdir3/fleet-trace.json" || {
		echo "obs smoke: merged trace missing server process" >&2
		return 1
	}

	# (b) The chaos crash dumped a readable flight record with the injected
	# faults and the crash marker (smbserver wrote it under TMPDIR).
	dump="$(sed -n 's/.*flight recorder dumps to \([^ ]*\) on crash.*/\1/p' "$tmpdir3/server.log" | head -1)"
	if [ -z "$dump" ] || [ ! -r "$dump" ]; then
		echo "obs smoke: chaos crash left no readable dump at '${dump:-?}'" >&2
		cat "$tmpdir3/server.log" >&2
		return 1
	fi
	grep -q 'chaos_crash' "$dump" || {
		echo "obs smoke: dump missing the chaos_crash event" >&2
		cat "$dump" >&2
		return 1
	}
	grep -q 'fault_injected' "$dump" || {
		echo "obs smoke: dump missing injected-fault events" >&2
		cat "$dump" >&2
		return 1
	}
	echo "obs smoke: OK ($chains cross-node span chains; crash dump: $(grep -c 'fault_injected' "$dump") injected faults)"
}

# shm_smoke is ISSUE 9's acceptance drill for the zero-copy transport.
# Part (a): an shm-enabled server with two co-located -smb-transport auto
# workers — both must negotiate the mapped path and /metrics must report the
# passed segment fds. Part (b): two 1-worker runs of the same seed against
# fresh servers — auto (maps shm) and tcp_sg (forced TCP while shm is
# offered; "tcp" is the same dialer) — must print bitwise-identical final
# Wg hashes (-no-overlap removes the one scheduling race so the comparison
# is exact).
shm_smoke() {
	tmpdir4="$(mktemp -d)"
	trap 'clean_smoke' EXIT
	go build -o "$tmpdir4/smbserver" ./cmd/smbserver
	go build -o "$tmpdir4/shmtrain" ./cmd/shmtrain

	# start_shm_server <dir-suffix>: launches a fresh shm-enabled server and
	# sets smb= (tcp addr), http= (metrics addr), server_pid=.
	start_shm_server() {
		"$tmpdir4/smbserver" -addr 127.0.0.1:0 -http 127.0.0.1:0 -stats 0 \
			-shm "$tmpdir4/smb$1.sock" >"$tmpdir4/server$1.log" 2>&1 &
		server_pid=$!
		smb="" http=""
		for _ in $(seq 1 100); do
			smb="$(sed -n 's/.*listening on tcp \([0-9.:]*\).*/\1/p' "$tmpdir4/server$1.log" | head -1)"
			http="$(sed -n 's#.*SMB metrics on http://\([0-9.:]*\)/metrics.*#\1#p' "$tmpdir4/server$1.log" | head -1)"
			[ -n "$smb" ] && [ -n "$http" ] && break
			sleep 0.1
		done
		if [ -z "$smb" ] || [ -z "$http" ]; then
			echo "shm smoke: smbserver never reported tcp + http addresses" >&2
			cat "$tmpdir4/server$1.log" >&2
			kill "$server_pid" 2>/dev/null || true
			return 1
		fi
	}

	# (a) Co-located 2-worker run: both auto-negotiate shm.
	start_shm_server a || return 1
	for r in 0 1; do
		"$tmpdir4/shmtrain" -rank "$r" -world 2 -smb "$smb" -job shmdrill \
			-epochs 40 -per-class 40 -smb-transport auto -smb-timeout 5s \
			>"$tmpdir4/w$r.log" 2>&1 &
		eval "w${r}_pid=\$!"
	done
	fail=""
	wait "$w0_pid" || fail="worker 0 exited nonzero"
	wait "$w1_pid" || fail="worker 1 exited nonzero"
	if [ -n "$fail" ]; then
		echo "shm smoke: $fail" >&2
		tail -n 5 "$tmpdir4/w0.log" "$tmpdir4/w1.log" "$tmpdir4/servera.log" >&2
		kill "$server_pid" 2>/dev/null || true
		return 1
	fi
	for r in 0 1; do
		if ! grep -q '(shm, auto-negotiated)' "$tmpdir4/w$r.log"; then
			echo "shm smoke: worker $r did not negotiate the shm transport" >&2
			cat "$tmpdir4/w$r.log" >&2
			kill "$server_pid" 2>/dev/null || true
			return 1
		fi
	done
	# The server's metrics must show segment fds crossing to mapping clients.
	curl -fsS "http://$http/metrics" >"$tmpdir4/metrics.txt" 2>/dev/null || {
		echo "shm smoke: /metrics scrape failed" >&2
		kill "$server_pid" 2>/dev/null || true
		return 1
	}
	fd_passed="$(sed -n 's/^smb_shm_fd_passed_total \([0-9]*\).*/\1/p' "$tmpdir4/metrics.txt" | head -1)"
	if [ -z "$fd_passed" ] || [ "$fd_passed" -lt 1 ]; then
		echo "shm smoke: smb_shm_fd_passed_total = '${fd_passed:-missing}', want >= 1" >&2
		grep 'smb_shm' "$tmpdir4/metrics.txt" >&2 || true
		kill "$server_pid" 2>/dev/null || true
		return 1
	fi
	grep -q 'smb_server_connections{transport="shm"}' "$tmpdir4/metrics.txt" || {
		echo "shm smoke: /metrics missing the transport-labeled connection gauge" >&2
		kill "$server_pid" 2>/dev/null || true
		return 1
	}
	kill "$server_pid" 2>/dev/null || true
	wait "$server_pid" 2>/dev/null || true

	# (b) Bitwise cross-transport determinism: same seed, fresh server per
	# run (reusing one server would trip the exactly-once dedup table, which
	# silently drops a new run's replayed sequence numbers).
	sha=""
	for t in auto tcp_sg; do
		start_shm_server "$t" || return 1
		"$tmpdir4/shmtrain" -rank 0 -world 1 -smb "$smb" -job detdrill \
			-epochs 10 -per-class 40 -smb-transport "$t" -no-overlap \
			>"$tmpdir4/det-$t.log" 2>&1 || {
			echo "shm smoke: deterministic $t run failed" >&2
			cat "$tmpdir4/det-$t.log" >&2
			kill "$server_pid" 2>/dev/null || true
			return 1
		}
		kill "$server_pid" 2>/dev/null || true
		wait "$server_pid" 2>/dev/null || true
		h="$(sed -n 's/^Wg sha256: \([0-9a-f]*\)$/\1/p' "$tmpdir4/det-$t.log" | head -1)"
		if [ -z "$h" ]; then
			echo "shm smoke: $t run printed no Wg hash" >&2
			cat "$tmpdir4/det-$t.log" >&2
			return 1
		fi
		if [ "$t" = auto ] && ! grep -q '(shm, auto-negotiated)' "$tmpdir4/det-auto.log"; then
			echo "shm smoke: deterministic auto run did not negotiate shm" >&2
			cat "$tmpdir4/det-auto.log" >&2
			return 1
		fi
		if [ -z "$sha" ]; then
			sha="$h"
		elif [ "$h" != "$sha" ]; then
			echo "shm smoke: $t final Wg $h != shm run's $sha (transports diverged)" >&2
			return 1
		fi
	done
	echo "shm smoke: OK (2 workers mapped, $fd_passed fds passed; Wg $sha identical on shm/tcp_sg)"
}

# serve_smoke is ISSUE 10's acceptance drill for serve-from-live-buffer: an
# smbserver with metrics up, one shmtrain worker continuously accumulating
# into its Wg, and the shmserve frontend refreshing that Wg via snapshots
# while the built-in load generator hammers /infer. Proves (a) the frontend
# serves real inferences off consistent cuts while the segment is being
# stormed (latency histogram + fresh snapshot-age gauge), and (b) cuts were
# taken and none timed out draining mapped writers (server-side
# smb_snapshots_total >= 2 and smb_snap_gate_timeouts_total == 0).
serve_smoke() {
	tmpdir5="$(mktemp -d)"
	trap 'clean_smoke' EXIT
	go build -o "$tmpdir5/smbserver" ./cmd/smbserver
	go build -o "$tmpdir5/shmtrain" ./cmd/shmtrain
	go build -o "$tmpdir5/shmserve" ./cmd/shmserve

	"$tmpdir5/smbserver" -addr 127.0.0.1:0 -http 127.0.0.1:0 -stats 0 \
		>"$tmpdir5/server.log" 2>&1 &
	server_pid=$!
	smb="" http=""
	for _ in $(seq 1 100); do
		smb="$(sed -n 's/.*listening on tcp \([0-9.:]*\).*/\1/p' "$tmpdir5/server.log" | head -1)"
		http="$(sed -n 's#.*SMB metrics on http://\([0-9.:]*\)/metrics.*#\1#p' "$tmpdir5/server.log" | head -1)"
		[ -n "$smb" ] && [ -n "$http" ] && break
		sleep 0.1
	done
	if [ -z "$smb" ] || [ -z "$http" ]; then
		echo "serve smoke: smbserver never reported tcp + http addresses" >&2
		cat "$tmpdir5/server.log" >&2
		kill "$server_pid" 2>/dev/null || true
		return 1
	fi

	# The trainer storms Wg with accumulates for the whole drill.
	"$tmpdir5/shmtrain" -rank 0 -world 1 -smb "$smb" -job servedrill \
		-epochs 3000 -per-class 40 -smb-timeout 5s \
		>"$tmpdir5/train.log" 2>&1 &
	train_pid=$!

	"$tmpdir5/shmserve" -addr "$smb" -transport tcp -job servedrill \
		-listen 127.0.0.1:0 -refresh 100ms >"$tmpdir5/serve.log" 2>&1 &
	serve_pid=$!
	url=""
	for _ in $(seq 1 150); do
		url="$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$tmpdir5/serve.log" | head -1)"
		[ -n "$url" ] && break
		sleep 0.1
	done
	if [ -z "$url" ]; then
		echo "serve smoke: shmserve never reported its listen address" >&2
		cat "$tmpdir5/serve.log" >&2
		kill "$serve_pid" "$train_pid" "$server_pid" 2>/dev/null || true
		return 1
	fi

	"$tmpdir5/shmserve" -loadgen "http://$url" -concurrency 4 -duration 3s \
		>"$tmpdir5/loadgen.log" 2>&1 || {
		echo "serve smoke: load generator failed" >&2
		cat "$tmpdir5/loadgen.log" "$tmpdir5/serve.log" >&2
		kill "$serve_pid" "$train_pid" "$server_pid" 2>/dev/null || true
		return 1
	}

	# (a) Frontend metrics: inferences actually flowed through the batcher
	# and the served snapshot is fresh (age below ~10 refresh intervals).
	curl -fsS "http://$url/metrics" >"$tmpdir5/serve-metrics.txt" 2>/dev/null || {
		echo "serve smoke: frontend /metrics scrape failed" >&2
		kill "$serve_pid" "$train_pid" "$server_pid" 2>/dev/null || true
		return 1
	}
	infers="$(sed -n 's/^shmserve_infer_seconds_count \([0-9]*\).*/\1/p' "$tmpdir5/serve-metrics.txt" | head -1)"
	if [ -z "$infers" ] || [ "$infers" -lt 100 ]; then
		echo "serve smoke: shmserve_infer_seconds_count = '${infers:-missing}', want >= 100" >&2
		cat "$tmpdir5/loadgen.log" >&2
		kill "$serve_pid" "$train_pid" "$server_pid" 2>/dev/null || true
		return 1
	fi
	grep -q '^shmserve_batch_size_count' "$tmpdir5/serve-metrics.txt" || {
		echo "serve smoke: frontend /metrics missing the batch-size histogram" >&2
		kill "$serve_pid" "$train_pid" "$server_pid" 2>/dev/null || true
		return 1
	}
	age="$(sed -n 's/^shmserve_snapshot_age_seconds \([0-9.e+-]*\).*/\1/p' "$tmpdir5/serve-metrics.txt" | head -1)"
	if [ -z "$age" ] || ! awk "BEGIN{exit !($age >= 0 && $age < 1.0)}"; then
		echo "serve smoke: snapshot age gauge '$age' not in [0, 1.0) — refresh loop stalled?" >&2
		cat "$tmpdir5/serve.log" >&2
		kill "$serve_pid" "$train_pid" "$server_pid" 2>/dev/null || true
		return 1
	fi

	# (b) Server-side snapshot counters: cuts were taken, and none timed out
	# on a gate drain (the consistency SLO).
	curl -fsS "http://$http/metrics" >"$tmpdir5/smb-metrics.txt" 2>/dev/null || {
		echo "serve smoke: server /metrics scrape failed" >&2
		kill "$serve_pid" "$train_pid" "$server_pid" 2>/dev/null || true
		return 1
	}
	kill "$serve_pid" "$train_pid" "$server_pid" 2>/dev/null || true
	wait "$serve_pid" "$train_pid" "$server_pid" 2>/dev/null || true
	snaps="$(sed -n 's/^smb_snapshots_total \([0-9]*\).*/\1/p' "$tmpdir5/smb-metrics.txt" | head -1)"
	if [ -z "$snaps" ] || [ "$snaps" -lt 2 ]; then
		echo "serve smoke: smb_snapshots_total = '${snaps:-missing}', want >= 2" >&2
		grep 'smb_snap' "$tmpdir5/smb-metrics.txt" >&2 || true
		return 1
	fi
	timeouts="$(sed -n 's/^smb_snap_gate_timeouts_total \([0-9]*\).*/\1/p' "$tmpdir5/smb-metrics.txt" | head -1)"
	if [ "${timeouts:-missing}" != "0" ]; then
		echo "serve smoke: smb_snap_gate_timeouts_total = '${timeouts:-missing}', want 0" >&2
		grep 'smb_snap' "$tmpdir5/smb-metrics.txt" >&2 || true
		return 1
	fi
	echo "serve smoke: OK ($infers inferences off $snaps snapshots, age ${age}s, 0 gate timeouts; $(cat "$tmpdir5/loadgen.log"))"
}

case "$tier" in
tier1) tier1 ;;
tier2) tier2 ;;
all)
	tier1
	tier2
	;;
*)
	echo "usage: $0 [tier1|tier2|all]" >&2
	exit 2
	;;
esac

echo "check.sh: OK ($tier)"
