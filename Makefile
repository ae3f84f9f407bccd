.PHONY: all test examples bench smoke proptest margin trace chaos server \
	server-restart restart-recovery sift-bench \
	metrics metrics-overhead perfbench ci clean

all:
	dune build

test:
	dune runtest

examples:
	dune build @examples

bench:
	dune build @bench

smoke:
	dune build @smoke

proptest:
	dune build @proptest

margin:
	dune build @margin

trace:
	dune build @trace

# Fault-injection sweep: every injection point x several seeds, at
# jobs=1 and jobs=4, asserting each run ends in a verified design or a
# structured error.
chaos:
	dune build @chaos

# compactd battery: wire-protocol conformance, the design-cache
# contract (byte-identical hits, single-flight, LRU bounds) and the
# socket soak, at jobs=1 and jobs=4.
server:
	dune build @server

# Crash-safety battery: SIGKILL mid-journal-write then byte-identical
# recovered hits; loadgen across a mid-run kill with zero lost
# requests; graceful SIGTERM drain.  At jobs=1 and jobs=4.
server-restart:
	dune build @server-restart

# Sifting kernel; regenerates BENCH_pr9.json (the in-place sifting
# step on the 8-bit multiplier).
sift-bench:
	dune exec bench/main.exe -- sift

# Telemetry battery: metrics/health wire goldens, histogram byte-
# determinism across jobs counts, flight-recorder dump round-trips.
# At jobs=1 and jobs=4.
metrics:
	dune build @metrics

# Armed-telemetry hit-path cost; regenerates BENCH_pr10.json
# (cache-hit latency with the metrics plane and flight recorder off
# vs armed, against the 5% budget).
metrics-overhead:
	dune exec bench/main.exe -- metrics-overhead

# Durable-cache costs; regenerates BENCH_pr8.json (recovery time vs
# cache size for the journal and snapshot paths, hit-path persistence
# overhead against the 5% budget).
restart-recovery:
	dune exec bench/main.exe -- restart-recovery

# The COMPACT benchmark (BENCHMARK.json): Table-I synthesis plus
# compactd miss and hit traffic, attributed layer by layer.  A ten-seed
# sweep of every workload, appended to perfbench.jsonl; single runs and
# comparisons go through perfbench/run.py directly (see
# perfbench/README.md).  Not part of ci.
perfbench:
	python3 perfbench/run.py sweep --out perfbench.jsonl

# Tier-1 runs twice: once sequential, once with a 4-wide domain pool.
# Every parallel consumer is bit-identical across jobs counts, so the
# second run is a determinism check as much as a thread-safety one.
# The last step replays BENCH_pr7.json's 200-request loadgen stream over
# the real socket (80 hits, 120 MIP solves through the LP and client).
ci:
	dune build
	dune build @examples @bench
	COMPACT_JOBS=1 dune runtest
	COMPACT_JOBS=4 dune runtest --force
	COMPACT_TRACE=1 dune runtest --force
	dune exec test/test_manager_stress.exe
	dune build @proptest
	dune build @margin
	dune build @smoke
	dune build @trace
	dune build @chaos
	dune build @server
	dune build @metrics
	dune build @server-restart
	python3 perfbench/run.py selfcheck

clean:
	dune clean
