# Local targets mirroring the CI jobs so local and CI runs are identical.

.PHONY: verify build test equivalence-release fmt lint doc api-scan experiments-check perf-test scenario-check scenario-json reports-check examples perf-ab ci

# The tier-1 gate: exactly what the driver and the CI `test` job run.
verify:
	cargo build --release && cargo test -q

build:
	cargo build --release --workspace

test:
	cargo test --workspace

# The bit-identity suites, the scoring and per-station allocation budgets
# and the executor's memory bound in the release profile the benchmark runs. The lane-panel
# kernels are written for the autovectorizer, and only the release build
# vectorises them, so the debug runs of `verify` and `test` do not exercise
# that code.
equivalence-release:
	cargo test --release -q -p classifier
	cargo test --release -q -p bench --test executor_equivalence --test windower_slice_equivalence --test scoring_alloc_budget --test station_alloc_budget --test executor_memory

fmt:
	cargo fmt --all --check

lint:
	cargo clippy --workspace --all-targets -- -D warnings

# The API docs of every workspace crate; a broken or private intra-doc
# link is an error.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

# Fails on a public item of the workspace crates that no non-test code
# uses and scripts/api_scan.allow does not list with a reason, and on a
# serde derive or impl that the libraries, binaries, examples and perfbench
# still build without. The compiler decides both, on a copy under
# target/api-scan/; the scan is first checked on its fixture crate.
api-scan:
	scripts/api_scan_selftest.sh
	scripts/api_scan.sh

# Regenerates every paper table and figure (release `experiments paper all`,
# a few seconds once built) into EXPERIMENTS_paper.txt and fails when the
# committed file changes; CI blocks on it.
experiments-check:
	cargo run --release -p bench --bin experiments -- paper all > EXPERIMENTS_paper.txt
	git diff --exit-code EXPERIMENTS_paper.txt

# Builds the benchmark package (its own Cargo workspace, so no other target
# compiles it) and runs its tests on tiny workloads.
perf-test:
	cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# Validates every committed scenario spec and perfbench workload spec (parse
# + compile; it only reads perfbench/workloads/). CI gates on it, so a
# malformed spec, or a spec-layer change that breaks one, fails the build.
# Debug profile: the check is parse-and-validate only, and the CI test job
# builds debug anyway.
scenario-check:
	cargo run -p bench --bin scenario_run -- --check scenarios $(wildcard perfbench/workloads/*.toml)

# Runs every committed scenario and every perfbench workload spec at full
# size and writes one JSON report per scenario to reports/ (it only reads
# perfbench/workloads/). The million-station metropolis family takes about
# 10 s on 2 vCPUs; the executor holds only the stations on air, so its stats
# line reports a peak RSS under 6 MB (221 MB before the executor streamed its
# population).
scenario-json:
	cargo run --release -p bench --bin scenario_run -- --out reports scenarios $(wildcard perfbench/workloads/*.toml)

# Regenerates every committed report and fails when one changes, naming the
# report in the diff; CI blocks on it. Only a change that says why may
# regenerate reports/.
reports-check: scenario-json
	git diff --exit-code reports/

examples:
	cargo build --examples

# A/B of perfbench: BASE against the working tree in alternating --trace 0
# pairs on seeds FIRST_SEED.., printing each metric's quartiles per side,
# the pairs the working tree won and a gain/regression verdict. Not part of
# `ci` (it takes PAIRS × 2 × RUN_SECONDS plus builds).
BASE ?= HEAD
WORKLOAD ?= online_churn
PAIRS ?= 10
RUN_SECONDS ?= 10
FIRST_SEED ?= 1
perf-ab:
	scripts/perf_ab.sh $(BASE) $(WORKLOAD) $(PAIRS) $(RUN_SECONDS) $(FIRST_SEED)

# Everything CI gates on, in one shot.
ci: fmt lint doc api-scan verify test equivalence-release scenario-check experiments-check reports-check perf-test examples
