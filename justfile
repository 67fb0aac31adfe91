# Local mirror of .github/workflows/ci.yml — `just ci` before pushing.

# Run everything CI runs.
ci: fmt clippy doc loc surface build test test-release perf-selftest artifacts tune serve serve-parallel trace xval profile

# Formatting check (apply with `just fmt-fix`).
fmt:
    cargo fmt --check

fmt-fix:
    cargo fmt

# Lints, warnings are errors. Also the shape gate: the root Cargo.toml sets
# `clippy::too_many_lines` to warn under `[workspace.lints]` and every
# crate and the umbrella package inherit it, so a function over 100 lines
# fails here in any library, binary, example or test. And the surface gate:
# `unreachable_pub` under `[workspace.lints.rust]` fails a `pub` item in a
# private module that its crate's `lib.rs` does not re-export.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# API docs, warnings are errors (broken or private intra-doc links).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Non-test lines of Rust per crate (lines before each file's first
# `#[cfg(test)]`): the figure the simplicity PRs report in CHANGES.md.
# Printed, never gated. `just loc HEAD~1` prints the before → after table
# against that commit instead.
loc rev="":
    bash scripts/loc.sh {{rev}}

# Per crate: `pub` declarations, `pub mod` lines, and the `pub` names no
# file outside the crate's `src/` mentions. Printed, never gated — the gate
# is `unreachable_pub` in `just clippy`. `just surface HEAD~1` prints the
# before → after table against that commit instead.
surface rev="":
    bash scripts/pub-surface.sh {{rev}}

# Release build of every crate and binary.
build:
    cargo build --release

# Unit, integration, doc and bin-smoke tests.
test:
    cargo test -q

# The NoC and chip tests at release opt-level (overflow checks and debug
# assertions off): the masked ring indices and packed queue entries of the
# NoC, the chip's oracle and loop goldens. About 12 s warm.
test-release:
    cargo test --release -q -p neura_noc -p neura_chip

# Run every paper artifact (the rows of `neura_bench::paper::ARTIFACTS`) at
# paper scale, with strict golden checks against the pinned headline
# numbers, and collect the machine-readable artifacts under
# target/artifacts/ (what CI uploads). About 1-2 s warm on a 2-vCPU host
# (release build).
artifacts:
    cargo run --release -q -p neura_bench --bin paper -- all --json
    ls -l target/artifacts/

# Successive-halving ChipConfig auto-tuner at paper scale, all datasets;
# artifact collected at target/artifacts/tune.json. About 8 s warm per run
# on a 2-vCPU host (release build); the fidelity ladder climbs to
# 256-2000-node analogs (the same node band the cycle-level figure
# binaries simulate). A candidate the chip cannot finish wedges and is
# ranked last. It runs on 2 and on 8 workers, and the two artifacts must
# be byte-identical (the 10 MB artifact is not committed as a baseline).
tune:
    NEURA_LAB_THREADS=2 cargo run --release -q -p neura_bench --bin tune -- --json
    NEURA_LAB_THREADS=8 cargo run --release -q -p neura_bench --bin tune -- \
        --json target/artifacts/tune-t8.json
    cmp target/artifacts/tune.json target/artifacts/tune-t8.json
    rm target/artifacts/tune-t8.json
    ls -l target/artifacts/tune.json

# Request-stream serving simulation at paper scale: memoised request costs
# come from 256-2000-node cycle-level simulations, so tail latencies are in
# the realistic millisecond band. The default run covers the classic
# shard-scaling sweep plus one heterogeneous (Tile-64 + Tile-4, all three
# dispatch policies), one closed-loop and one autoscaled scenario, and the
# scenario library; artifact at target/artifacts/serve.json. About 0.5 s
# warm on a 2-vCPU host (release build).
serve:
    cargo run --release -q -p neura_bench --bin serve -- --json
    ls -l target/artifacts/serve.json

# Parallel-in-time serving engine checks: the default sweep replayed as 3
# epoch fragments on 2 and 8 workers must reproduce the serial artifact
# byte for byte (--no-meta strips the thread-count meta so cmp is exact);
# and the serial artifact is additionally gated byte-for-byte against
# the committed baseline (re-baseline deliberately with
# `just serve-rebaseline`).
serve-parallel:
    cargo run --release -q -p neura_bench --bin serve -- \
        --json target/artifacts/serve-serial.json --no-meta
    NEURA_LAB_THREADS=2 cargo run --release -q -p neura_bench --bin serve -- \
        --json target/artifacts/serve-epochs-t2.json --no-meta --epochs 3
    NEURA_LAB_THREADS=8 cargo run --release -q -p neura_bench --bin serve -- \
        --json target/artifacts/serve-epochs-t8.json --no-meta --epochs 3
    cmp target/artifacts/serve-serial.json target/artifacts/serve-epochs-t2.json
    cmp target/artifacts/serve-serial.json target/artifacts/serve-epochs-t8.json
    cargo run --release -q -p neura_bench --bin trend -- \
        baselines/serve.json target/artifacts/serve-serial.json --fail-above 0

# Refresh the committed serving baseline after an intentional
# serving-layer change (review the trend diff first).
serve-rebaseline:
    cargo run --release -q -p neura_bench --bin serve -- \
        --json target/artifacts/serve-serial.json --no-meta
    cp target/artifacts/serve-serial.json baselines/serve.json

# The serving sweep with request-lifecycle tracing on: besides
# serve.json (byte-identical to an untraced run), writes the windowed
# neura_lab.timeline/v1 artifact to target/artifacts/timeline.json and
# summarises it — worst-window p99 vs the aggregate, crash recovery,
# windowed SLO attainment — through the timeline binary.
trace:
    cargo run --release -q -p neura_bench --bin serve -- --json --trace
    cargo run --release -q -p neura_bench --bin timeline
    ls -l target/artifacts/timeline.json

# The scenario-library and failure-injection property suites alone:
# pinned load-shedding, tenant rate-limit, crash/recovery and
# thread-invariance properties (part of `just test`, split out for a
# fast signal while iterating on the serving layer).
scenarios:
    cargo test -p neura_serve --test scenario_properties --test fault_properties

# Cross-validation of the analytic cost model at paper scale: all 20
# datasets, size-matched tiles, all three HBM presets, with the strict
# golden (mean abs rel error <= 5%, worst <= 15%) enforced, gated
# byte-for-byte against the committed baseline (the cycle sims and the
# closed-form model are both deterministic, so any drift is a real model
# or simulator change and must be re-baselined deliberately via
# `just xval-rebaseline`). About 2 s warm on a 2-vCPU host.
xval:
    cargo run --release -q -p neura_bench --bin xval -- --json
    cargo run --release -q -p neura_bench --bin trend -- \
        baselines/xval.json target/artifacts/xval.json --fail-above 0

# Refresh the committed baseline after an intentional model or simulator
# change (review the trend diff first).
xval-rebaseline:
    cargo run --release -q -p neura_bench --bin xval -- --json
    cp target/artifacts/xval.json baselines/xval.json

# Chip profiler sweep at paper scale: a three-dataset slice of the
# (dataset x tile x HBM) grid with windowed stall attribution and the
# conservation invariants enforced, gated byte-for-byte against the
# committed baseline (the profiled simulations are deterministic, so any
# drift is a real simulator or profiler change and must be re-baselined
# deliberately via `just profile-rebaseline`).
profile:
    cargo run --release -q -p neura_bench --bin profile -- --json \
        --dataset facebook --dataset wiki-Vote --dataset cage12
    cargo run --release -q -p neura_bench --bin trend -- \
        baselines/profile.json target/artifacts/profile.json --fail-above 0

# Refresh the committed baseline after an intentional simulator or
# profiler change (review the trend diff first).
profile-rebaseline:
    cargo run --release -q -p neura_bench --bin profile -- --json \
        --dataset facebook --dataset wiki-Vote --dataset cage12
    cp target/artifacts/profile.json baselines/profile.json

# The full profiler sweep: all 20 datasets on size-matched tiles across
# the HBM presets, conservation enforced; its 3.3 MB artifact is not
# committed. 1.2–1.9 s warm on a 2-vCPU host.
profile-paper:
    cargo run --release -q -p neura_bench --bin profile -- --json
    ls -l target/artifacts/profile.json

# Diff two artifact files or directories (e.g. a saved copy of
# target/artifacts/ against a fresh run): per-metric absolute/relative
# deltas. Add flags via just trend a b "--fail-above 2".
trend before after *flags="":
    cargo run --release -q -p neura_bench --bin trend -- {{before}} {{after}} {{flags}}

# The host-side perf ledger (benchmark/README.md): every workload timed,
# then traced with the isolated layer drives. Flags pass through, e.g.
# `just perf --workload chip-skewed --seed 3 --seconds 30 --trace 0`.
perf *flags="":
    bash benchmark/run.sh {{flags}}

# benchmark/README.md § "Comparing two commits", mechanised: two `git
# archive` checkouts, two target directories, the parent's benchmark/ on
# both sides, alternating order, another --seed per pair, run_seconds
# from BENCHMARK.json, then five rounds of one --trace 1 run per side.
# Prints per-metric quartiles, medians, pairs won and a verdict (gain,
# regression or unresolved), and the per-layer rows that moved by more
# than 10 % with the two sides' ranges apart, under a heading that counts
# the rows examined; fails when a sim_digest differs between the sides or
# an operation failed. E.g. `just perf-pair HEAD~1 HEAD serve-fleet`; the
# workload `all` runs the four of BENCHMARK.json, in its order, on the one
# pair of builds and into one table (`just perf-pair HEAD~1 HEAD all`).
# Extra flags pass through: `--json BENCH_<n>.json` also writes the tables,
# the commits, the command and the host as a neura_lab.artifact/v1 ledger.
perf-pair parent change workload pairs="10" *flags="":
    bash scripts/perf-pair.sh {{parent}} {{change}} {{workload}} {{pairs}} {{flags}}

# The ledger's own tests at tiny scale. The benchmark is a package of its
# own, so this is what notices a workspace change that breaks the API
# footprint listed in the header of benchmark/src/layers.rs — or whose
# dependency edits would rewrite the ledger's committed lock file. Also
# checks that the perf-pair and pub-surface scripts still parse (running
# the first takes minutes) and that every committed BENCH_*.json is JSON
# whose pairs agreed on every digest and failed no operation.
perf-selftest:
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
    git diff --exit-code benchmark/Cargo.lock
    bash -n scripts/perf-pair.sh
    bash -n scripts/pub-surface.sh
    python3 scripts/check-ledgers.py
