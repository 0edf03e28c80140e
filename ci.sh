#!/usr/bin/env bash
# CI entry point — everything runs offline (no crates.io access; the
# workspace has zero external dependencies, see README.md).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline (all targets)"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test --offline"
# Every member's tests. Among them: the engine equivalence suite (scan vs
# indexed phases of the one slot loop), unit tests of fedco-sim in
# crates/sim/src/scan/equivalence.rs beside the test-only scan reference
# (crates/sim/src/scan.rs; `cargo test -p fedco-sim scan::`), whose last three
# cases hold sleeping users to the scan: Offline under battery + churn with
# trace samples mid-sleep and Online's class sleepers (owing decision
# overhead; H(t) = 0 throughout, positive throughout at lb=1, crossing zero at
# lb=100, and under battery + churn), a custom every-k-th-slot policy, and the
# `user_visits` bound on Offline decisions; and the sleeping users'
# `next_decision_slot` and `class_decision` contracts and the arena's owed
# idle slots (`sleeper`).
cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warning-free)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace >/dev/null

echo "==> fedco-audit static-analysis gate (determinism & panic-safety rules)"
cargo run --release --offline -q -p fedco-audit -- --workspace

echo "==> audit allow annotations (ceilings, like the code size below: they fall, they do not rise)"
# 34 -> 32 `panic-surface` with the training pool: the three
# `receive_model(..).expect(..)` sites of the engine are one (`hand_model`), and
# the pool takes its lock without one. No `wall-clock` allow was added.
# 32 -> 28 with the second copies gone (31 were in use): the fleet's
# `JobQueue` took its two lock `expect`s with it (an atomic cursor needs no
# lock) and `ShardedSink` its shard index.
# 28 -> 27 with the engine the one writer of merges and rounds: the
# `RemoteModelService::stats` panic on an unexpected reply became a
# `WireError`. No `wall-clock` allow was added.
# 27 -> 26 with one description of a run: `parse_scenario_file` starts each
# section from the infallible private base constructor, not from
# `ScenarioSpec::preset("paper-default").expect(..)`. No `wall-clock` allow
# was added.
for ceiling in panic-surface:26 wall-clock:21; do
    rule="${ceiling%%:*}"
    allows="$(grep -rn --include='*.rs' "allow($rule)" crates src | wc -l)"
    [ "$allows" -le "${ceiling##*:}" ] \
        || { echo "$rule allows rose: $allows > ${ceiling##*:}"; exit 1; }
done

echo "==> code size per crate (fedco-audit --loc; must not rise, see EXPERIMENTS.md)"
# The ceiling is the total at the last change. A change that adds code raises
# it here, in its own diff, the way a golden is re-pinned.
# 19414 -> 19526 with the O(n log n) offline planner: fedco-core +93 (the batch
# Lemma-1 sweep with its Fenwick tree and the two-row + take-bit knapsack,
# less `dp_table_cells`), fedco-bench +19 (the five `offline_window/*` ledger
# cells of `--bench scheduler`; benches count towards their crate).
# 19526 -> 19615 with the data plane (+89): fedco-server +104 — protocol.rs +50
# (the resumable `FrameReader` over the `read_frame` it absorbs, the
# encoder-side cap with `payload_len` / `MAX_MODEL_LEN`, `encode_into`'s
# reservation and back-patch), fedco_serve.rs +50 (the `Acceptor` that reaps
# finished connection threads, the stop channel and the acceptor's loopback
# wake-up, the `--model-len` refusal), transport.rs +4; fedco-fl +1 (momentum.rs
# +16 for the fused `observe_merge` over one Eq. 1 loop, aggregation.rs -17 with
# `merge` gone, server.rs +2); fedco-neural -16 (`ParamVector::{sub, scale}`
# gone). Two bug fixes and a leak fix that had no code before; the codec and
# the apply got faster, not shorter — their old bodies moved under
# `#[cfg(test)]`, which this count skips on both sides.
# 19615 -> 19841 with telemetry off the critical path (+226): fedco-fleet +139 —
# executor.rs +86 (`run_grid_with`'s per-job hand-off over the one `execute`
# body, `run_grid_streamed` with its latched write error and `StreamedSweep`,
# `run_job_traced` wrapping a job's events on its worker; the after-join
# `unzip`, two lock `expect`s and the caller-side marker loop gone),
# fleet_sweep.rs +52 (four outputs opened before the first job, the
# `TraceStream` length + FNV-1a that lets `--verify` hold neither stream), lib.rs
# +1; fedco-telemetry +81 — export.rs +61 (`write_event_line` over the
# `LineFields` field writer and `push_u64`; the `format!` renderer moved under
# `#[cfg(test)]` as the `reference_bits` oracle, which this count skips),
# metrics.rs +19 (the fixed-name table and per-cell accumulator slots, `append`;
# `merge`, `merge_from` and the four keyed mutators gone), event.rs +1;
# fedco-server +3 (the frame clock counted in `ServerCore::handle`), fedco-device
# +2 (`EnergyProfiler::components`), fedco-sim +1. The issue's "stays at 19 615
# if the deleted `merge` and `format!` temporaries pay for the ordered drain"
# did not hold: they paid for the metrics walk only. Three `panic-surface`
# allows went with the result mutex (37 -> 34).
# 19841 -> 20116 with the devices training beside the slot loop (+275):
# fedco-fl +263 — pool.rs +180, new (the queue, the helper loop, a claimant
# that runs queued jobs instead of sleeping, tickets that discard on drop, the
# lazily started process-wide instance), client.rs +81 (`EpochTask` /
# `EpochOutcome` / the shared `Shard` around the one training loop, `commit`,
# the per-thread scratch network that replaces the 25 per-client ones), lib.rs
# +2; fedco-sim +22 (`hand_model` over the three `receive_model` sites, the
# per-user tickets and where they are dropped, `with_training_pool`);
# fedco-neural -10 (the cloning split / partition and the error-swallowing
# `epoch_batches` loop). The issue's "only if the deleted per-client networks,
# the up-front batch copies and the cloning split/partition do not pay for
# the pool" did not hold: they were fields and `.clone()`s, a dozen lines; a
# thread pool with its discard and panic paths is code that had no
# predecessor. It bought 0.53x `wall_s` and -1.4 MiB on `fig5-ml`.
# 20116 -> 20225 with one arrival store and the parallel cut (+109): fedco-world
# +157 — `FleetArrivals` (the CSR lanes, `concat`, the counting-sort
# `transposed`, row access) is +78 of it, the out-of-line two-stream `scan`
# under `sample_curve` with the integer `threshold` +62 over the 16-line float
# loop they replace, the four models' `sample_fleet` bodies (Diurnal's
# per-period table, the MMPP's chain as thresholds) +17; fedco-sim -62
# (`ArrivalIndex`, `ArrivalCursor`, the cursor lane, `arrivals_for` /
# `first_at_or_after` / `arrival_at` / `probability` / `num_users` and the
# per-user `Vec`s gone; `from_model_cut` with its scoped threads is +23 of what
# came back); fedco-bench +14 (the three `arrivals/fleet/*` ledger cells). The
# issue allowed +80 (its prototype: +68 with no ledger cells); the store's
# accessors and the by-value `scan` that keeps both generators in registers
# are the 29 lines over. It bought 0.39-0.43x `setup_s` and -4 MiB on `wide-sync`.
# 20225 -> 20222 with span accrual in closed form (-3): fedco-device -12
# (`repeated_add` in, `record_span_lean` and the four-chain loop of
# `record_span` out), fedco-fl -1 (`GapAccumulator::idle_slots` calls the
# kernel instead of looping), fedco-bench +10 (the two `profiler/record_span/*`
# ledger cells of `--bench scheduler`).
# 20222 -> 19082 with one flat parameter buffer and only what LeNet training
# runs (-1140): fedco-neural -919 — the per-tensor plumbing of the `Layer`
# trait (`params` / `params_mut` / `grads` / `params_with_grads` /
# `zero_grads` in every layer, `ParamPair`, the per-batch `unzip`, the
# per-tensor velocities) gave way to two `Vec<f32>` in `Sequential` cut with
# `split_at`, and `metrics.rs`, `Dropout`, the `Softmax` layer,
# `MeanSquaredError` with the `Loss` trait, tanh / sigmoid, `LrSchedule`,
# weight decay, the unused initialisers and tensor ops went with no caller but
# their own tests; fedco-device -225 (`thermal.rs`, `jobscheduler.rs`,
# `CpuUtilization`); fedco-fl -2; fedco-bench +6 (the conv2d cells draw their
# parameters into a slice).
# 19082 -> 19070 with cheaper LeNet training steps (-12): fedco-neural -50 —
# conv2d.rs -24 (stride, padding, the clipped-tap handling, `Tap` and the two
# tap-range closures out; the per-plane hit list, `channel_walk` / `add_rows`
# with their per-kernel table and a forward over one tap-offset table in),
# maxpool2d.rs -28 (kernel, stride, `new` and `out_spatial` out; the 2x2
# selects in), lenet.rs -6 (the two constructor calls), dense.rs +8 (the
# transposed weight copy); fedco-bench +38 (the
# `conv2d/accumulate_grads/compact-c1`, `maxpool2d/forward/compact-p1` and
# `dense/backward/compact-fc1` ledger cells of `--bench neural`).
# 19070 -> 19097 with the session layer linear in devices (+27): fedco-server
# +27 — session.rs +13 (`Session::queued` and `record_queued`, the decrement in
# `record_drained`), transport.rs +7 (`ChannelTransport`'s request and reply
# buffers; `locked` folded into `request`), fedco_serve.rs +5 (`lock_core`,
# which logs a poisoned core once and stops the service, in both lock sites),
# service.rs +2 (the `Leave` arm's `queued > 0` test, `handle_bytes` encoding
# into the caller's buffer). The unconditional-flush `Leave` arm lives on
# under `#[cfg(test)]` as the oracle, which this count skips.
# 19097 -> 18477 with one implementation of each model (-620): fedco-device
# -268 (`cpu.rs` and `DeviceProfile::topology`, the `Battery` model down to
# `capacity`, `FpsModelConfig` as four constants, `PowerSegment` and the
# profiler's second constructor, time total and `reset`, six unused
# `PowerState` / `PowerModel` / `AppKind` / `DeviceProfile` methods),
# fedco-core -141 (`drift.rs`, `drift_for`, the queue and scheduler `reset`s
# and `slots_elapsed`, ten `ScenarioSpec::with_*` builders that `set` now
# inlines, `SimConfig::{with_world, with_ml}` and `synthetic_velocity_norm`),
# fedco-telemetry -105 (`ShardedSink`, the metrics parser with its array
# values, `SkipSpan`; the `fedco-trace` output through one locked stdout),
# fedco-fl -53 (`GapAccumulator`, `predict_parameters`, `lag_since`,
# `shard_size`, `MomentumTracker::reset`), fedco-sim -22 (the `experiment.rs`
# re-export, `horizon_s`, `mean_update_gap`, `distinct_profiles`; the velocity
# norm as an engine constant), fedco-server -17 (`retry_until`), fedco-fleet -14
# (`JobQueue` for an atomic cursor, `run_grid_sequential`,
# `rollups_for_scenario`, `with_scenarios`, `with_seeds`: -81; +68 in
# `fleet_sweep` for a stdout whose closed reader ends the output, not the run).
# 18477 -> 18483 with 40-byte telemetry events (+6): fedco-telemetry +21 —
# event.rs (the two closed label tables and `resolve_label`, `JobLabels`, the
# `run_start` / `job_start` constructors that box the free text, the size
# assertion), export.rs (`CsvRow`, which writes a CSV row straight into the
# output, over the `[String; 25]` join it replaces, now the `reference_bits`
# oracle under `#[cfg(test)]`; `Fields::label`); fedco-core -9
# (`OfflinePolicy::planned_len` and the count it read), fedco-server -3
# (`ServerCore::is_shutting_down`), fedco-device -3
# (`EnergyProfiler::component_energy`): test-only public items.
# 18483 -> 18595 with sleeping users (+112): fedco-sim +105 — user.rs +57 (the
# asleep set with its owed-from and wake lanes, `sleep` / `wake` / `wakes_at`
# / `wake_all` / `settle_all_idle` / `settle_idle`, the awake walk, the
# `set_phase` arm that wakes; the dead ε clamp out), engine.rs +24
# (`ask_next_decision` at requeue, rejoin and after a plan, the overhead wake,
# the settles before the fold and a trace sample; `DecisionTally::idle` out),
# index.rs +19 (`Deadline::Wake`, `UserSet::{empty, contains, clear,
# block_without}` over one `members` walk), phases.rs +5 (the wake arm);
# fedco-core +7 (`next_decision_slot` and Offline's answer).
# 18595 -> 18524 with the engine the one writer of merges and rounds (-71):
# fedco-fl -67 (`ServerTelemetry`, the server's `telemetry` field,
# `attach_telemetry` and both emit blocks, `ModelService::{stats,
# attach_telemetry}` and the `impl ModelService for Arc<S>` forwarding),
# fedco-telemetry -17 (`clock.rs` / `SlotClock`), fedco-sim +12 (the
# `applied` count and the engine's own `Merge` / `Round` records, less the
# `SlotClock` stores), fedco-server +1 (`RemoteModelService::stats` an inherent
# method returning `Result`, the apply sites reading the returned version).
# 18524 -> 18399 with one description of a run (-125): fedco-core -123 —
# scenario.rs -124 (`ScenarioSpec`'s 17 field copies, its own defaults in
# `base()`, the range checks of `set()` and the field-by-field
# `build_with_policy` gave way to one held `SimConfig` read through one
# `value_of` and written by `set`'s parse arms and the `with` helper; the
# `with_staleness_bound` / `with_epsilon` builders, which had no caller,
# went), spec.rs -10 (`PolicyBuildContext::{slot_seconds,
# with_slot_seconds}`), experiment.rs 0 (`SimConfig::slot_seconds` out, the
# floor check reading `scheduler.slot_seconds` in), config.rs +11
# (`SchedulerConfigError::requirement` and the two range sentences);
# fedco-sim -2 (the engine reads `scheduler.slot_seconds` and builds its two
# contexts without `with_slot_seconds`).
# 18399 -> 18592 with the arrival schedule streamed beside the slot loop
# (+193): fedco-sim +144 — arrivals.rs +141 (the chunk window: `Chunk`,
# `hold`, `pull`, the O(1) `chunk` of a slot, the window-wide `at_slot` /
# `at` and `first_arrival_in_window`, the planner's one-pass
# `first_arrivals_in_window`; the feed: `Run` and its `Debug`, `cut`'s named
# sampler threads over bounded channels with the refused-thread fallback and
# the chunk length from `DRAWS_PER_RUN`, `MIN_CHUNK_SLOTS` and `MIN_CHUNKS`, the
# panic hand-off through `JoinHandle::join`, the `Drop` that hangs up and
# joins; `start` beside `from_model`; `from_model_cut`'s scoped threads and
# `of_user` (now test-only) out), engine.rs +2 (the planner's hold and its
# lookup), phases.rs +1 (the slot's hold); fedco-world +49 — arrival.rs (the
# `ArrivalSampler` trait and the resumable `Curve` that keeps every pair's
# streams between chunks over the one `scan`, the four models handing out
# samplers, `sample_fleet` as a sampler drained to the horizon,
# `FleetArrivals::beside` for slot-major runs; `concat` and Diurnal's
# one-pair cosine path out). It bought 0.81x `wall_s` and -2 MiB on
# `wide-sync`, and 0.67-0.77x / -14 MiB on `mega:users=250000` (EXPERIMENTS.md,
# "Streamed arrivals").
# 18592 -> 18471 with one declaration per event kind (-121): fedco-telemetry
# -105 — event.rs (the `event_kinds!` table generates the enum, `name()`,
# `channel()`, the field visitor and the parser's per-kind construction; the
# two hand-written 20-arm matches out), export.rs (the JSONL and CSV writers
# drive the one visitor through `LineFields` / `CsvRow`, the parser calls
# `EventKind::parse_fields`; the three per-kind matches and `Fields::{u64,
# f64}` out; `Key` with its compile-time CSV column, `Value`, the
# `FieldVisitor` / `WireField` traits and their five field-type impls in);
# fedco-sim -16 (the engine's ten `if let Some(t) = &self.telemetry` record
# blocks are one `emit`, and `begin_run`'s world/battery reset went with the
# second `run`, which now returns the finished run's summary).
# 18471 -> 18498 with one copy of the global model (+27): fedco-sim +19 (the
# held `ModelSnapshot`, its `model_at` count and `refresh_model`;
# `hand_out_model` over the requeue and rejoin bodies it replaced; the
# base-copy lane sized by whether the run reads it; the round buffer reserved
# once and cleared; the debug check that each applied version is the engine's
# own; the `EnergyProfiler` size assertion), fedco-neural +8 (`ParamVector`'s
# hand-written `Clone`, whose `clone_from` reuses the buffer), fedco-fl 0.
# 18498 -> 18244 with one performance ruler (-254): fedco-bench -211 — the
# `engine/<preset>/<policy>/{dense,event}` pairs of `--bench engine` with
# their aggregate and speedup lines, the in-bench scan-vs-indexed assert and
# the two knobs that sized them; the unrecorded `simulation`, `policy` and
# `fleet` bench targets; `micro`'s second JSON writer and `compare`'s
# `slots_per_sec_mean` key; fedco-fleet -43 (`bench_json_lines`,
# `record_bench_json` and `fleet_sweep`'s `FEDCO_BENCH_JSON` hook).
# 18244 -> 18476 with Online deciding by class (+232): fedco-sim +191 (the
# V·N/25 and L_b·N/25 scaling where the engine builds its controllers;
# `decide_awake`, the per-class answer memo and `class_decision`;
# `queue_gap_sum` with its gap-sum bound that skips the Eq. 16 fold; the
# class-aware `wake` / `wake_all` and the wakes at an app's arrival and
# expiry; the arena's per-class sleeper bitsets with `class`, `class_of`,
# `sleep_in_class` and their accessors; a class sleeper's charged span in
# `flush_to`), fedco-device +32 (`repeated_add_pairs`, with `repeated_add`
# its `-0.0` case; `record_decided_span`, with `record_span` its `None`
# case), fedco-core +9 (`SchedulingPolicy::class_decision` and Online's
# answer).
# 18476 -> 18370 with one wire table (-106): fedco-server -106 — protocol.rs
# (the `messages!` table generates `Message`, `tag`, `name`, an exact
# `payload_len`, `put_payload` and `decode_payload`, the five per-kind matches
# out; one `Wire` codec per field type, with the round-count check in
# `Vec<WireUpdate>`'s; `Cursor`'s typed readers, `f32s_len`, `update_len`,
# `put_update` and the length back-patch out; `Refusal` `#[repr(u8)]` with
# `from_code` a lookup in `ALL` and `label` an index into `REFUSAL_REASONS`).
# 18370 -> 18333 with one function per figure (-37): fedco-bench -2 — the
# seven figure binaries are each a `print!` of a `fedco_bench::figures`
# function's text, laid out as a template of that text, and every run is a
# scenario string (`paper_config`, `horizon_slots` with its
# `FEDCO_FULL_SCALE` switch and the unused `pct` out; `figures.rs` with its
# data types, `runs` and `text` in); fedco-core -25 (`SimConfig::{with_v,
# with_staleness_bound, with_arrival_probability}` and the
# `SchedulerConfig::{with_staleness_bound, with_epsilon}` they left without
# a caller); fedco-device -10 (`DeviceProfile::corun_saving_fraction`, a
# second copy of `ScheduleComparison::saving_fraction` with the same bits on
# all 32 pairs); fedco 0 (the `device_fleet` example reads the comparison).
# 18333 -> 18137 with one implementation and one value (-196): fedco-fl -95
# (`partition.rs` with its unused label-skew split, the engine calling
# `Dataset::partition`; `ClientConfig::local_passes` and its pass loop;
# `AsyncUpdateRule::StalenessWeighted` with `upload_weight` and the weighted
# arm of `apply_async`; `ModelServiceInit::rule`), fedco-core -36
# (`SimConfig::decision_overhead` with the `overhead` scenario key and its
# accessor, `OfflineScheduler::gap_resolution` / `with_gap_resolution` for a
# private constant, the caller-less `OfflineSolution::empty`, the `is_valid`
# shims of `SimConfig` and `SchedulerConfig`, `SimConfig::with_transport`,
# `ScenarioSpec::with_slot_seconds`), fedco-bench -23 (`table3`'s unrepeated
# timing loop), fedco-telemetry -17 (the `Telemetry` trait and `NullSink`),
# fedco-sim -13 (the overhead branch, the disabled-sink check), fedco-server
# -7 (`ServerCoreConfig::rule`, the enabled check), fedco-fleet -3
# (`ScenarioGrid::is_valid`), fedco -2 (the prelude's `NullSink`,
# `Telemetry`, `PartitionStrategy`).
# 18137 -> 17989 with the paper's four policies only (-148): fedco-core -144
# (`RandomPolicy` and `PowerThresholdPolicy`; the `PolicySpec::{Random,
# PowerThreshold}` variants with their labels, validation, build arms and the
# `random` / `threshold` parse arms; `PolicySpec::default_registry()`, which
# callers replace with `PolicySpec::PAPER`; `PolicyBuildContext::{seed,
# with_seed}` with the golden-ratio salt mix; the prelude exports; `validate`
# with one arm, no closure), fedco-sim
# -3 (`POLICY_SEED_SALT` and the seeded build call), fedco-fleet -1
# (`--list-policies` prints `PolicySpec::PAPER` and the shorter syntax line).
# 17989 -> 17915 with one slot loop shipped (-74): fedco-sim -106, lines
# *moved into test code*, not deleted — `run_dense`, the `phase_*_scan`
# walks of arrivals, power, ticks and the decision loop, the online count,
# `UserArena::{tick, is_waiting}` and `ArrivalSchedule::first_arrival_in_window`
# now live in the `#[cfg(test)]` module crates/sim/src/scan.rs (and the
# equivalence suite beside it), each branch of the slot loop on `indexed` is
# a `#[cfg(test)]` hook, and the fold branch of `queue_gap_sum` went (the
# held sum is the fold's bits, checked by `stale sum`); fedco-world -3
# (`FleetArrivals::keys`, whose one caller was the scan's row search, now a
# plain search of the row in test code); fedco-audit +35 (a
# `#[cfg(test)]` struct field or initializer is masked through its own `,`,
# where the region ran on to the next `;` or block and would have hidden the
# engine's whole `impl Simulation` from this count; a file that opens with
# `#![cfg(test)]` is test code throughout).
# 17915 -> 17985 with the TCP data plane keeping its frames (+70):
# fedco-server +49 — protocol.rs (`FrameWriter`, which encodes into a buffer
# it keeps and refuses an oversized payload before a byte is sent;
# `write_frame` a one-shot wrapper over it; `FrameReader` decodes from its
# buffer and clears it instead of taking it), transport.rs (`TcpTransport`
# holds one reader and one writer), bin/fedco_serve.rs (each connection holds
# one reader and one writer; `FrameClock` drops a connection whose frame is
# not whole `FRAME_BUDGET` after its first byte, the first use of
# `deadline::Deadline` outside tests); fedco-audit +21 (`item_end` skips a
# `;` inside `(…)` / `[…]`, so `#[cfg(test)] fn f() -> [u8; 3] { … }` is
# masked through its body, and `tuple_variant_end` ends a `#[cfg(test)]`
# tuple variant at its `,` or `}`; every other crate's count is unchanged).
# 17985 -> 17844 with closed choices named once (-141): fedco-world -59
# (`ArrivalSpec`, `BatterySpec` and `ChurnSpec` each lose their hand-written
# `ALL` / label / parse table to a `choices!` row list), fedco-core -50
# (`LinkKind` and `MlMode` likewise; `SimConfig` holds `link: LinkKind` and
# `ml: MlMode`, so `ScenarioSpec`'s shadow `link` / `ml` fields, `resolve()`
# and `LinkKind::label_for` go), fedco-fl -12 (`TransportModel::by_name` and
# its `Default`), fedco-device +0 (the `choices!` macro and the one
# `UnknownChoice` error in, `DeviceKind`'s table and `ParseDeviceError` out),
# fedco-sim -1 (the link model is resolved once at construction),
# fedco-fleet -5 (a repeated sweep-axis key is refused, +6; `fleet_sweep`
# parses its numeric flags through one helper, -10; `LinkKind` is
# re-exported from fedco-core directly, -1), fedco-server -14
# (`fedco-serve` caps its connections at `--max-sessions`, +9, and parses its
# flags through one helper, -23).
# 17844 -> 17673 with one type per scheduler (-171): fedco-core -158
# (`OnlineScheduler` holds `Q(t)` / `H(t)` and implements `SchedulingPolicy`
# itself, so `OnlinePolicy` and queues.rs's `TaskQueue`, `VirtualQueue` and
# `QueueState` go; `PolicyBuildContext`, `WindowPlan`, `notify_scheduled`,
# `UserSlotContext::app_status`, the test-only threshold / Lyapunov / config
# accessors and the `new` / `clear` constructors of the unit policies go;
# `DeviceAssignment`'s `Display` / `FromStr` replace `label`,
# `devices_token` and `parse_devices`), fedco-sim -9 (the engine's own
# `window_slots`, its hand-derived Table II saving and its
# `notify_scheduled` call), fedco-fleet -4 (`fleet_sweep`'s second
# empty-axis check, -5; `SchedulerConfig` in the prelude, +1).
# 17673 -> 17667 with the conv forward swept once per input channel (-6):
# fedco-neural -4 (`plane::<K, T>`, one sweep per input channel with the
# taps in a local array, +12 with its `PlaneSweep` type, shares one
# `KERNELS` table with the backward walks; `axpy` and the per-call tap-offset
# `Vec` gone, -10; `Dataset::class_histogram`, which only the crate's tests
# call, is test code, -8), fedco-core -2 (`OnlineScheduler::end_of_slot`'s two
# `max(0.0)` clamps on `usize` counts, which could never act).
# 17667 -> 17538 with one scenario grammar (-129): fedco-core -70
# (`parse_scenario_file` reads `NAME = SPEC` lines through `FromStr`, so the
# section state machine, `base =`, `;` comments and its second duplicate /
# unknown checks go; `DeviceAssignment::custom`, which only tests called),
# fedco-fleet -57 (`fleet_sweep`'s `--users` / `--slots` shorthands: the two
# fields, two parse arms and the loop after parsing; `Streaming::merge` and
# `CellRollup::merge`, which nothing outside their tests called),
# fedco-telemetry -2 (`parse_string`'s unused `text` parameter).
LOC_CEILING=17538
# fedco-sim's own ceiling, beside the total: the crate ROADMAP item 10 gates
# (< 1 700) cannot grow back unseen while another crate shrinks.
SIM_LOC_CEILING=2147
LOC_TABLE="$(cargo run --release --offline -q -p fedco-audit -- --loc)"
echo "$LOC_TABLE"
LOC_TOTAL="$(echo "$LOC_TABLE" | awk '$1 == "total" { print $2 }')"
[ "$LOC_TOTAL" -le "$LOC_CEILING" ] \
    || { echo "code size rose: total $LOC_TOTAL > ceiling $LOC_CEILING"; exit 1; }
SIM_LOC="$(echo "$LOC_TABLE" | awk '$1 == "fedco-sim" { print $2 }')"
[ "$SIM_LOC" -le "$SIM_LOC_CEILING" ] \
    || { echo "code size rose: fedco-sim $SIM_LOC > ceiling $SIM_LOC_CEILING"; exit 1; }

echo "==> bench_engine smoke (the engine/scale and engine/city-online cells)"
BENCH_SMOKE_JSON="$(mktemp)"
FEDCO_BENCH_REPS=2 FEDCO_BENCH_JSON="$BENCH_SMOKE_JSON" \
    timeout 300 cargo bench -q --offline -p fedco-bench --bench engine
grep -q '"name":"engine/scale/' "$BENCH_SMOKE_JSON" \
    || { echo "bench_engine wrote no engine/scale cell"; exit 1; }
# The city-online cell (the benchmark's city-online shape) has a fixed size,
# so the gate below compares it like for like with the recorded trajectory.
grep -q '"name":"engine/city-online/7500"' "$BENCH_SMOKE_JSON" \
    || { echo "bench_engine wrote no engine/city-online/7500 cell"; exit 1; }

echo "==> bench_compare perf-regression gate (smoke run vs BENCH_engine.json)"
# The gate normalizes by the median current/baseline ratio, so a uniformly
# slower CI box never trips it; only a disproportionate per-benchmark
# collapse fails. The threshold is generous for a noisy 1-core runner.
# The smoke run produces every recorded cell, so a baseline name missing from
# it (a renamed or deleted cell) fails the gate.
ENGINE_GATE="$(cargo run --release --offline -q -p fedco-bench --bin bench_compare -- \
    --baseline BENCH_engine.json --current "$BENCH_SMOKE_JSON" --threshold 0.3)" \
    || { echo "$ENGINE_GATE"; exit 1; }
echo "$ENGINE_GATE"
if grep -q "not in current run" <<<"$ENGINE_GATE"; then
    echo "bench_engine smoke is missing a recorded cell"; exit 1
fi
rm -f "$BENCH_SMOKE_JSON"

echo "==> every test again in release, the ones ignored in debug included"
# Some code only exists optimised and some tests only finish there, so the
# whole workspace runs again in release:
# - the bit-equivalence oracles (`reference_bits`), because the vectorised
#   code only exists in release: every fedco-neural layer's kernels against
#   its old loops (the conv2d per-channel forward sweep at every kernel size
#   1-5, trained and evaluated, and the hit-list walk with pool-shaped
#   gradients, the 2x2 max-pool's selects over ties, ±0, -inf and NaN, dense
#   over signed zeros, Sgd); the fused `apply_async`, the single-buffer codec
#   and `leave_flush_reference_bits` (the `Leave` that flushes only a session
#   with queued work against the old unconditional flush); the telemetry JSONL
#   line writer and CSV row writer against the renderers they replaced and the
#   metrics slot walk against the old keyed walk; `repeated_add` against the
#   plain addition loop, `repeated_add_pairs` against the interleaved loop (a
#   billion pairs, ignored in debug, where the run above checks their u64
#   overflow), `record_span` against `slots` calls of `record` and
#   `record_decided_span` against `record_extra` + `record` turns; the arrival
#   sampler's two-stream integer-threshold loop against the old per-user float
#   loops, a horizon sampled in chunks against one sampled at once, and both
#   orders of the streamed schedule against the per-user lists and the slot
#   index copied out of them at 1 / 2 / 3 / 7 sampler threads and 1 / 7 / 512 /
#   horizon-long chunks, read whole and through the windows of the slot loop
#   and the offline planner (`cut_invariance`), with a sampler's panic in a
#   later chunk and samplers that stop when their schedule is dropped;
# - the goldens, for the same reason: the LeNet training steps and client
#   epochs (`training_golden`), the server soak with the 7 500-device one
#   (ignored in debug), the outputs that read a device's base copy
#   (`base_copy_golden`) and the ML runs that abort epochs mid-training
#   (`world_regression`);
# - the training pool's interleavings, an epoch as task + commit against the
#   old in-place body, the same bits for 0 / 1 / 4 helpers, two simulations
#   sharing the pool from two threads and no thread without `ml`; a download
#   per model version of every paper policy and of a service swapped in
#   (`once_per_version`, `swapped_in`), the engine's base-copy lane and the
#   buffer-reusing `ParamVector::clone_from`;
# - Fig. 5, Online's mean-rate stability on every preset and its per-device
#   saving at 25 / 2 500 / 25 000 devices as assertions (`paper_claims`,
#   ignored in debug: minutes there, seconds here).
cargo test -q --offline --release --workspace -- --include-ignored

echo "==> threads start at the one sampling site of the simulation path"
# The training pool lives in fedco-fl; below it, the only code that starts a
# thread is `ArrivalSchedule::cut`, which starts a run's `fedco-arrivals-{run}`
# sampler, through this one import.
THREAD_SITES="$(git grep -n "thread::" -- crates/sim/src crates/world/src crates/core/src crates/device/src crates/rng/src)"
[ "$(echo "$THREAD_SITES" | wc -l)" -eq 1 ] && [[ "$THREAD_SITES" == crates/sim/src/arrivals.rs:* ]] \
    || { echo "std::thread is used outside the arrival sampling site:"; echo "$THREAD_SITES"; exit 1; }

echo "==> one CPU vs all of this box's, through the shipped paths: fig5_convergence (training pool), mega:users=4000 (sampling cut)"
# `available_parallelism()` honours the affinity mask, so under `taskset -c 0`
# the pool has no helper and every epoch runs at its claim — the serial order.
# `fig5_convergence` prints `fedco_bench::figures::fig5`, the four policies on
# `paper-default:ml=full:seed=42`: the run the Fig. 5 claim of
# `tests/paper_claims.rs` asserts and the benchmark's `fig5-ml` trains.
if command -v taskset >/dev/null 2>&1; then
    FIG5_SERIAL="$(mktemp)"; FIG5_POOLED="$(mktemp)"
    timeout 300 taskset -c 0 cargo run --release --offline -q -p fedco-bench --bin fig5_convergence >"$FIG5_SERIAL"
    timeout 300 cargo run --release --offline -q -p fedco-bench --bin fig5_convergence >"$FIG5_POOLED"
    cmp "$FIG5_SERIAL" "$FIG5_POOLED" \
        || { echo "fig5_convergence prints differ between one CPU and all of them"; exit 1; }
    rm -f "$FIG5_SERIAL" "$FIG5_POOLED"
    # The same for the arrival sampler's cut: 43 M draws are a sampler thread
    # per CPU (at most five), each handing over chunks of at most 8 M draws
    # and an eighth of the horizon (1 350 slots), and Offline's 500-slot
    # look-ahead crosses their edges.
    CUT_ONE="$(mktemp)"; CUT_ALL="$(mktemp)"
    cut_trace() { # <trace file> [command prefix]
        timeout 300 "${@:2}" cargo run --release --offline -q -p fedco-fleet --bin fleet_sweep -- \
            --scenario mega:users=4000 --policies sync-sgd,online,offline --replicates 1 \
            --trace "$1" >/dev/null
    }
    cut_trace "$CUT_ONE" taskset -c 0
    cut_trace "$CUT_ALL"
    test -s "$CUT_ONE" || { echo "fleet_sweep --trace wrote an empty file"; exit 1; }
    cmp "$CUT_ONE" "$CUT_ALL" \
        || { echo "mega:users=4000 traces differ between one sampling run and the cut"; exit 1; }
    rm -f "$CUT_ONE" "$CUT_ALL"
else
    echo "(no taskset here: skipped)"
fi

echo "==> bench_neural smoke + bench_compare gate (smoke run vs BENCH_neural.json)"
NEURAL_SMOKE_JSON="$(mktemp)"
FEDCO_BENCH_MS=5 FEDCO_BENCH_JSON="$NEURAL_SMOKE_JSON" \
    timeout 300 cargo bench -q --offline -p fedco-bench --bench neural
grep -q '"name":"conv2d/forward/compact-c1"' "$NEURAL_SMOKE_JSON" \
    || { echo "bench_neural wrote no conv2d JSON lines"; exit 1; }
# The cell that times what training runs on conv1 (parameter gradients only).
grep -q '"name":"conv2d/accumulate_grads/compact-c1"' "$NEURAL_SMOKE_JSON" \
    || { echo "bench_neural wrote no conv2d/accumulate_grads/compact-c1 line"; exit 1; }
cargo run --release --offline -q -p fedco-bench --bin bench_compare -- \
    --baseline BENCH_neural.json --current "$NEURAL_SMOKE_JSON" --threshold 0.3
rm -f "$NEURAL_SMOKE_JSON"

echo "==> example smoke tests (every examples/*.rs)"
for src in examples/*.rs; do
    ex="$(basename "$src" .rs)"
    echo "--> example: $ex"
    timeout 60 cargo run --release --offline --example "$ex" >/dev/null
done

echo "==> fleet_sweep binary smoke test (parallel vs 1-worker verify)"
timeout 120 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke:users=5:slots=400 --verify >/dev/null

echo "==> fleet_sweep parameterized --policies smoke test"
timeout 120 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke:users=4:slots=300 --replicates 1 \
    --policies "immediate,sync-sgd,offline,online,online:v=1000,online:v=16000" \
    >/dev/null

echo "==> fleet_sweep --scenario-file smoke test (checked-in catalogue)"
timeout 120 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario-file examples/scenarios.conf \
    --axis users=4 --axis slots=300 --replicates 1 --verify >/dev/null

echo "==> fleet_sweep --scenario / --axis mixed sweep smoke test"
timeout 120 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario "smoke:users=4:slots=300,hetero-devices:users=4:slots=300" \
    --axis "arrival_p=0.001,0.01" --axis "link=ideal,lte" \
    --replicates 1 --policies "online,immediate" >/dev/null

echo "==> fleet_sweep world-dynamics sweep smoke (diurnal arrivals x compression, verified)"
timeout 120 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario "diurnal-day:users=5:slots=400" \
    --axis "compress=off,0.25,0.5" \
    --replicates 1 --policies "online,immediate" --verify >/dev/null

echo "==> fleet_sweep --trace/--metrics telemetry smoke (stable across reruns)"
TRACE_A=/tmp/fedco_trace_a.jsonl; METRICS_A=/tmp/fedco_metrics_a.jsonl
TRACE_B=/tmp/fedco_trace_b.jsonl; METRICS_B=/tmp/fedco_metrics_b.jsonl
timeout 120 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke:users=5:slots=400 --verify \
    --trace "$TRACE_A" --metrics "$METRICS_A" >/dev/null
timeout 120 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke:users=5:slots=400 --workers 3 \
    --trace "$TRACE_B" --metrics "$METRICS_B" >/dev/null
test -s "$TRACE_A" || { echo "--trace wrote an empty file"; exit 1; }
test -s "$METRICS_A" || { echo "--metrics wrote an empty file"; exit 1; }
cmp -s "$TRACE_A" "$TRACE_B" \
    || { echo "trace differs across reruns/worker counts"; exit 1; }
cmp -s "$METRICS_A" "$METRICS_B" \
    || { echo "metrics differ across reruns/worker counts"; exit 1; }
# The files are streamed out job by job (chunks rendered and metrics folded on
# the workers): 1 worker and 2 workers must write the same bytes, and the same
# bytes as the library path that merges the whole trace in memory first (the
# `library_outputs_for_ci` helper of crates/fleet/tests/streamed_outputs.rs).
TRACE_LIB=/tmp/fedco_trace_lib.jsonl; METRICS_LIB=/tmp/fedco_metrics_lib.jsonl
for w in 1 2; do
    timeout 120 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
        --scenario smoke:users=5:slots=400 --workers "$w" \
        --trace "$TRACE_B" --metrics "$METRICS_B" >/dev/null
    cmp -s "$TRACE_A" "$TRACE_B" && cmp -s "$METRICS_A" "$METRICS_B" \
        || { echo "streamed trace/metrics differ on $w worker(s)"; exit 1; }
done
FEDCO_LIBRARY_TRACE="$TRACE_LIB" FEDCO_LIBRARY_METRICS="$METRICS_LIB" \
    cargo test -q --offline -p fedco-fleet --test streamed_outputs library_outputs_for_ci >/dev/null
cmp -s "$TRACE_A" "$TRACE_LIB" \
    || { echo "streamed trace differs from the library path's"; exit 1; }
cmp -s "$METRICS_A" "$METRICS_LIB" \
    || { echo "streamed metrics differ from the library path's"; exit 1; }
rm -f "$TRACE_LIB" "$METRICS_LIB"
# Outputs are opened before the first job: a bad path fails at once, names the
# flag, and no sweep runs (so no rollup table is printed).
if timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke:users=5:slots=400 --trace /nonexistent-dir/x.jsonl \
    >/tmp/fleet_sweep_out 2>/tmp/fleet_sweep_err; then
    echo "--trace into a missing directory unexpectedly succeeded"; exit 1
fi
grep -q -e "--trace /nonexistent-dir/x.jsonl" /tmp/fleet_sweep_err \
    || { echo "bad --trace path error does not name the flag and path"; exit 1; }
if grep -q "energy" /tmp/fleet_sweep_out || grep -q " jobs in " /tmp/fleet_sweep_out; then
    echo "a bad --trace path still ran the sweep"; exit 1
fi
rm -f /tmp/fleet_sweep_out /tmp/fleet_sweep_err
timeout 60 cargo run --release --offline -q -p fedco-telemetry --bin fedco-trace -- \
    summarize "$TRACE_A" >/dev/null
timeout 60 cargo run --release --offline -q -p fedco-telemetry --bin fedco-trace -- \
    diff "$TRACE_A" "$TRACE_B" >/dev/null \
    || { echo "fedco-trace diff found a divergence"; exit 1; }
# A reader that stops early must end the output without a panic. Eight copies
# of the trace make a CSV larger than a pipe holds, so the writer does meet the
# closed pipe.
TRACE_BIG=/tmp/fedco_trace_big.jsonl
for _ in 1 2 3 4 5 6 7 8; do cat "$TRACE_A"; done >"$TRACE_BIG"
( set -o pipefail
  timeout 60 cargo run --release --offline -q -p fedco-telemetry --bin fedco-trace -- \
      csv "$TRACE_BIG" | head -n 1 >/dev/null ) \
    || { echo "fedco-trace csv | head -n 1 failed"; exit 1; }
rm -f "$TRACE_A" "$TRACE_B" "$METRICS_A" "$METRICS_B" "$TRACE_BIG"
# Every label an emitter writes goes back through the release-mode parser,
# which resolves it through its closed table: these presets carry every
# energy component (the uplink ones `radio`) under the four paper policies.
# The refusal labels go through it in the server soak smoke below.
LABEL_TRACE=/tmp/fedco_label_trace.jsonl
timeout 120 cargo run --release --offline -q -p fedco-fleet --bin fleet_sweep -- \
    --scenario battery-constrained,compressed-uplink,lte-uplink \
    --policies immediate,sync-sgd,offline,online --replicates 1 \
    --trace "$LABEL_TRACE" >/dev/null
timeout 60 cargo run --release --offline -q -p fedco-telemetry --bin fedco-trace -- \
    diff "$LABEL_TRACE" "$LABEL_TRACE" >/dev/null \
    || { echo "fedco-trace diff did not read the sweep trace back"; exit 1; }
timeout 60 cargo run --release --offline -q -p fedco-telemetry --bin fedco-trace -- \
    csv "$LABEL_TRACE" >/dev/null \
    || { echo "fedco-trace csv did not read the sweep trace back"; exit 1; }
rm -f "$LABEL_TRACE"

echo "==> fleet_sweep registry listings + bad-spec error paths"
SCENARIO_LIST="$(timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- --list-scenarios)"
echo "$SCENARIO_LIST" | grep -q "paper-default" \
    || { echo "--list-scenarios missing paper-default"; exit 1; }
for world_preset in diurnal-day flash-crowd battery-constrained compressed-uplink; do
    echo "$SCENARIO_LIST" | grep -q "$world_preset" \
        || { echo "--list-scenarios missing $world_preset"; exit 1; }
done
POLICY_LIST="$(timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- --list-policies)"
for policy in Immediate Sync-SGD Offline Online; do
    echo "$POLICY_LIST" | grep -q "^  $policy\$" \
        || { echo "--list-policies missing $policy"; exit 1; }
done
if timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario warp-speed >/dev/null 2>/tmp/fleet_sweep_err; then
    echo "bad --scenario unexpectedly succeeded"; exit 1
fi
grep -q "unknown scenario" /tmp/fleet_sweep_err \
    || { echo "bad --scenario error does not name the token"; exit 1; }
# In-simulation sharding is gone: the flag is rejected with the usage text.
if timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --shards 2 >/dev/null 2>/tmp/fleet_sweep_err; then
    echo "removed --shards flag unexpectedly succeeded"; exit 1
fi
grep -q "usage: fleet_sweep" /tmp/fleet_sweep_err \
    || { echo "--shards rejection does not print the usage"; exit 1; }
# An absurd fleet size is a typed error, not an allocator abort.
if timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke:users=99999999999999 --replicates 1 --policies online \
    >/dev/null 2>/tmp/fleet_sweep_err; then
    echo "absurd users= unexpectedly succeeded"; exit 1
fi
grep -q "users=99999999999999.*MAX_USERS" /tmp/fleet_sweep_err \
    || { echo "absurd users= error does not name the field and MAX_USERS"; exit 1; }
# So is an absurd horizon: the arrival index and the deadline calendar hold
# an entry per slot (it used to spin in the arrival generator first).
if timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke:users=1:slots=99999999999999 --replicates 1 --policies online \
    >/dev/null 2>/tmp/fleet_sweep_err; then
    echo "absurd slots= unexpectedly succeeded"; exit 1
fi
grep -q "slots=99999999999999.*MAX_SLOTS" /tmp/fleet_sweep_err \
    || { echo "absurd slots= error does not name the field and MAX_SLOTS"; exit 1; }
# So is a slot shorter than the clock can divide by (it used to be clamped
# by the clock alone, with energy still accrued on the configured length).
if timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke:slot_seconds=1e-300 --replicates 1 --policies online \
    >/dev/null 2>/tmp/fleet_sweep_err; then
    echo "vanishing slot_seconds= unexpectedly succeeded"; exit 1
fi
grep -q "slot_seconds=1e-300.*MIN_SLOT_SECONDS" /tmp/fleet_sweep_err \
    || { echo "vanishing slot_seconds= error does not name the field and MIN_SLOT_SECONDS"; exit 1; }
# A closed token (a device, a world preset, a link, an ML mode) that names
# no choice fails with the one shape that names the token and every label.
if timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke:link=carrier-pigeon --replicates 1 --policies online \
    >/dev/null 2>/tmp/fleet_sweep_err; then
    echo "unknown link= unexpectedly succeeded"; exit 1
fi
grep -q 'unknown link `carrier-pigeon` (expected ideal, wifi, lte)' /tmp/fleet_sweep_err \
    || { echo "unknown link= error does not name the token and the links"; exit 1; }
# Two axes over one field are refused by name (the later used to win
# silently: two cells printed, one row of twice the runs reported).
if timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke --axis users=5,6 --axis USERS=7 --policies immediate \
    >/dev/null 2>/tmp/fleet_sweep_err; then
    echo "repeated --axis key unexpectedly succeeded"; exit 1
fi
grep -q 'sweep axis `users` is given more than once' /tmp/fleet_sweep_err \
    || { echo "repeated --axis error does not name the key"; exit 1; }
# An axis without values is refused once, by the grid's own check.
if timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario smoke --axis users= --policies immediate \
    >/dev/null 2>/tmp/fleet_sweep_err; then
    echo "empty --axis unexpectedly succeeded"; exit 1
fi
grep -q 'must list at least one value' /tmp/fleet_sweep_err \
    || { echo "empty --axis error does not say it needs a value"; exit 1; }
# An absurd staleness budget is not an error at all: the offline planner no
# longer sizes anything from `lb=` (it used to abort allocating 720 TB).
timeout 60 cargo run --release --offline -p fedco-fleet --bin fleet_sweep -- \
    --scenario paper-default:lb=1e13 --replicates 1 --policies offline >/dev/null \
    || { echo "absurd lb= under Offline did not run"; exit 1; }
# A model no frame can carry is refused at start-up, not discovered by every
# client as an `Oversized` reply (the encoder used not to check the cap).
if timeout 60 cargo run --release --offline -q -p fedco-server --bin fedco-serve -- \
    --model-len 5000000 >/dev/null 2>/tmp/fleet_sweep_err; then
    echo "fedco-serve --model-len 5000000 unexpectedly started"; exit 1
fi
grep -q -e "--model-len 5000000.*MAX_FRAME_LEN" /tmp/fleet_sweep_err \
    || { echo "oversized --model-len error does not name the flag and MAX_FRAME_LEN"; exit 1; }
rm -f /tmp/fleet_sweep_err

echo "==> fedco-server soak smoke: in-process determinism + TCP loopback lifecycle"
# The kept frame buffers and the per-frame budget are unit-tested in the
# workspace test run above: `protocol::tests::{one_writer_and_one_reader_carry_frames_of_every_size_with_no_stale_tail,
# a_timeout_at_any_byte_of_a_small_frame_is_resumed_after_a_large_one,
# an_oversized_header_after_a_large_frame_is_refused_before_its_payload,
# the_writer_refuses_an_oversized_message_then_writes_the_next}`,
# `transport::tests::tcp_transport_alternates_lenet5_frames_with_small_ones`
# and `fedco_serve::tests::{a_connection_idle_between_frames_outlives_the_frame_budget,
# a_peer_that_stops_inside_a_frame_is_dropped_after_the_frame_budget,
# a_peer_that_trickles_a_frame_is_dropped_after_the_frame_budget,
# a_peer_that_stalls_inside_a_frame_is_resumed_not_dropped}`; the
# lifecycles below run both kept-buffer ends over loopback.
# (a) Two in-process driver runs of a scaled server-soak scenario must
#     produce byte-identical server telemetry, and fedco-trace must agree.
SRV_TRACE_A=/tmp/fedco_server_trace_a.jsonl
SRV_TRACE_B=/tmp/fedco_server_trace_b.jsonl
timeout 120 cargo run --release --offline -q -p fedco-server --bin fedco-drive -- \
    --scenario server-soak:users=60:slots=200 --trace "$SRV_TRACE_A" >/dev/null
timeout 120 cargo run --release --offline -q -p fedco-server --bin fedco-drive -- \
    --scenario server-soak:users=60:slots=200 --trace "$SRV_TRACE_B" >/dev/null
test -s "$SRV_TRACE_A" || { echo "fedco-drive --trace wrote an empty file"; exit 1; }
cmp -s "$SRV_TRACE_A" "$SRV_TRACE_B" \
    || { echo "server telemetry differs across in-process soak runs"; exit 1; }
timeout 60 cargo run --release --offline -q -p fedco-telemetry --bin fedco-trace -- \
    diff "$SRV_TRACE_A" "$SRV_TRACE_B" >/dev/null \
    || { echo "fedco-trace diff found a server-trace divergence"; exit 1; }
rm -f "$SRV_TRACE_A" "$SRV_TRACE_B"
# (b) Live loopback: start fedco-serve, run the driver over TCP with 3
#     workers twice against the same server, then shut it down cleanly
#     with a Shutdown frame. Twice: with the ticker thread, and with
#     `--tick-ms 0 --tick-every 1` (no ticker), so the acceptor's wake-up is
#     exercised on its own. The server must exit on the ShutdownOk alone —
#     nothing connects after it — well inside the timeout.
SERVE_LOG=/tmp/fedco_serve.log
serve_lifecycle() {
    # Created here: the background job opens it only once it is scheduled,
    # and the `sed` below must not find it missing before then.
    : >"$SERVE_LOG"
    timeout 180 cargo run --release --offline -q -p fedco-server --bin fedco-serve -- \
        --listen 127.0.0.1:0 "$@" >"$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/^listening=//p' "$SERVE_LOG" | head -n 1)"
        [ -n "$ADDR" ] && break
        kill -0 "$SERVE_PID" 2>/dev/null || { echo "fedco-serve died at startup"; cat "$SERVE_LOG"; exit 1; }
        sleep 0.2
    done
    [ -n "$ADDR" ] || { echo "fedco-serve never reported its address"; cat "$SERVE_LOG"; exit 1; }
    timeout 120 cargo run --release --offline -q -p fedco-server --bin fedco-drive -- \
        --scenario server-soak:users=24:slots=80 --connect "$ADDR" --workers 3 >/dev/null \
        || { echo "first TCP driver run failed"; cat "$SERVE_LOG"; exit 1; }
    DRIVE_OUT="$(timeout 120 cargo run --release --offline -q -p fedco-server --bin fedco-drive -- \
        --scenario server-soak:users=24:slots=80 --connect "$ADDR" --workers 3 --shutdown)" \
        || { echo "second TCP driver run failed"; cat "$SERVE_LOG"; exit 1; }
    echo "$DRIVE_OUT" | grep -q "server-shutdown=ok" \
        || { echo "driver did not get ShutdownOk"; echo "$DRIVE_OUT"; exit 1; }
    wait "$SERVE_PID" || { echo "fedco-serve exited non-zero"; cat "$SERVE_LOG"; exit 1; }
    grep -q "^shutdown:" "$SERVE_LOG" \
        || { echo "fedco-serve did not print its shutdown summary"; cat "$SERVE_LOG"; exit 1; }
}
serve_lifecycle
serve_lifecycle --tick-ms 0 --tick-every 1
rm -f "$SERVE_LOG"

echo "CI green."
