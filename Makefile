# Convenience targets; everything real lives in dune.

.PHONY: all build test bench-smoke bench-par-smoke bench-json bench-e2e check clean

all: build

build:
	dune build @all

test:
	dune runtest

# a fast end-to-end pass: full build, test suite, and one benchmark
# harness run at smoke size with machine-readable output
bench-smoke:
	dune exec bench/main.exe -- --size test --only T1,F2 \
	  --json _build/bench-smoke

# the same smoke through the worker pool: exercises domain spawning,
# the single-flight memo under contention, and the jobs-independence
# of the emitted tables
bench-par-smoke:
	dune exec bench/main.exe -- --size test --only F2 --jobs 4

# record the full grid as machine-readable BENCH_*.json (per-experiment
# wall-clock seconds, jobs, cells, simulated vs cached, activity
# counters)
bench-json:
	dune exec bench/main.exe -- --size test --json _build/bench-json

# the repo benchmark: the BENCHMARK.json command over every workload,
# one `workload metric value unit` line per metric (see
# bench/e2e/README.md for --seconds, --trace and --json)
bench-e2e:
	dune exec --root=. --cache=disabled --display=quiet --no-print-directory \
	  bench/e2e/sdtbench.exe -- --all

check: build test bench-smoke bench-par-smoke

clean:
	dune clean
