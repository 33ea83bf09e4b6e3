#!/bin/sh
# Documentation lint, run as a ctest (see tools/CMakeLists.txt).
#
# Checks that the prose cannot silently drift from the code:
#   1. every src/<subsystem>/ directory is mentioned in docs/ARCHITECTURE.md;
#   2. every `bench_*` binary named in EXPERIMENTS.md exists in
#      bench/CMakeLists.txt (and therefore gets built);
#   3. every bench source file has a matching bench/CMakeLists.txt entry.
#
# Usage: tools/check_docs.sh [repo-root]   (default: script's parent dir)

set -u

root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
status=0

fail() {
    echo "check_docs: $1" >&2
    status=1
}

arch="$root/docs/ARCHITECTURE.md"
experiments="$root/EXPERIMENTS.md"
bench_cmake="$root/bench/CMakeLists.txt"

for f in "$arch" "$experiments" "$bench_cmake"; do
    [ -f "$f" ] || { echo "check_docs: missing $f" >&2; exit 1; }
done

# 1. Every src/ subsystem appears in ARCHITECTURE.md.
for dir in "$root"/src/*/; do
    name=$(basename "$dir")
    grep -q "$name" "$arch" ||
        fail "src/$name is never mentioned in docs/ARCHITECTURE.md"
done

# 2. Every bench binary named in EXPERIMENTS.md is registered in
#    bench/CMakeLists.txt.
for bench in $(grep -o 'bench_[a-z_0-9]*' "$experiments" | sort -u); do
    [ "$bench" = "bench_util" ] && continue  # shared header, not a binary
    grep -q "$bench" "$bench_cmake" ||
        fail "EXPERIMENTS.md names $bench but bench/CMakeLists.txt does not build it"
done

# 3. Every bench source has a CMake registration (catches forgotten adds).
for src in "$root"/bench/bench_*.cpp; do
    name=$(basename "$src" .cpp)
    grep -q "$name" "$bench_cmake" ||
        fail "bench/$name.cpp exists but bench/CMakeLists.txt does not build it"
done

# 4. The fault-injection chapter exists and names the three fault-plane
#    classes plus the sanitizer switch (keeps the chapter from rotting if
#    the classes are renamed).
grep -q '^## Fault injection & resilience' "$arch" ||
    fail "docs/ARCHITECTURE.md lost its 'Fault injection & resilience' chapter"
for sym in FaultConfig LossyChannel ReliableTransfer MANET_SANITIZE; do
    grep -q "$sym" "$arch" ||
        fail "docs/ARCHITECTURE.md fault chapter no longer mentions $sym"
done

# 5. The incremental tick pipeline is documented: the architecture chapter
#    exists and names the load-bearing pieces, and the bench + regression
#    gate are described in EXPERIMENTS.md.
grep -q '^## Incremental tick pipeline' "$arch" ||
    fail "docs/ARCHITECTURE.md lost its 'Incremental tick pipeline' chapter"
for sym in incremental_tick UnitDiskBuilder::update bit-identical tick_pipeline_test; do
    grep -q "$sym" "$arch" ||
        fail "docs/ARCHITECTURE.md tick-pipeline chapter no longer mentions $sym"
done
grep -q 'bench_tick_pipeline' "$experiments" ||
    fail "EXPERIMENTS.md lost its bench_tick_pipeline section"
grep -q 'check_bench.py' "$experiments" ||
    fail "EXPERIMENTS.md must describe the check_bench.py regression gate"
[ -f "$root/tools/baselines/BENCH_tick_pipeline.json" ] ||
    fail "tools/baselines/BENCH_tick_pipeline.json baseline is missing"

# 6. The dynamic resilience experiment is documented.
grep -q 'E21-dynamic' "$experiments" ||
    fail "EXPERIMENTS.md lost its E21-dynamic section"
grep -q 'manet-resilience/1' "$experiments" ||
    fail "EXPERIMENTS.md E21-dynamic must name the manet-resilience/1 schema"

# 7. The campaign guide matches the code: every --flag docs/CAMPAIGNS.md
#    names must be parsed in src/exp/cli.cpp, and every checkpoint schema
#    field / schema ID it documents must appear in src/exp/campaign_runner.cpp
#    (so renaming a flag or a JSON field without updating the guide fails CI).
campaigns="$root/docs/CAMPAIGNS.md"
cli_src="$root/src/exp/cli.cpp"
runner_src="$root/src/exp/campaign_runner.cpp"
if [ ! -f "$campaigns" ]; then
    fail "docs/CAMPAIGNS.md is missing"
else
    for flag in $(grep -o -- '--[a-z][a-z-]*' "$campaigns" | sort -u); do
        grep -q -- "$flag" "$cli_src" ||
            fail "docs/CAMPAIGNS.md names $flag but src/exp/cli.cpp does not know it"
    done
    for field in campaign fingerprint unit point block rep_begin rep_end \
                 wall_seconds replications; do
        grep -q "\`$field\`" "$campaigns" ||
            fail "docs/CAMPAIGNS.md checkpoint schema reference lost the $field field"
        grep -q "\"$field\"" "$runner_src" ||
            fail "docs/CAMPAIGNS.md documents checkpoint field '$field' but \
src/exp/campaign_runner.cpp never writes it"
    done
    for schema in manet-campaign-spec/1 manet-campaign/1 manet-campaign-unit/1 \
                  manet-bench-artifact/1; do
        grep -q "$schema" "$campaigns" ||
            fail "docs/CAMPAIGNS.md no longer names the $schema schema"
        grep -q "$schema" "$runner_src" ||
            fail "docs/CAMPAIGNS.md names schema $schema but \
src/exp/campaign_runner.cpp does not use it"
    done
    grep -q 'bench_campaign' "$experiments" ||
        fail "EXPERIMENTS.md lost its bench_campaign section"
    [ -f "$root/tools/baselines/BENCH_campaign.json" ] ||
        fail "tools/baselines/BENCH_campaign.json baseline is missing"
fi

# 8. The memory layer is documented and its gate cannot silently rot: the
#    architecture chapter exists and names the load-bearing pieces, the
#    MANET_PROFILE_ALLOC switch it documents is a real CMake option, and the
#    bench_memory acceptance gate (E27) keeps its baseline + scalars.
grep -q '^## Memory layer' "$arch" ||
    fail "docs/ARCHITECTURE.md lost its 'Memory layer' chapter"
for sym in LmDatabase MANET_PROFILE_ALLOC max_allocs_per_tick; do
    grep -q "$sym" "$arch" ||
        fail "docs/ARCHITECTURE.md memory chapter no longer mentions $sym"
done
grep -q 'MANET_PROFILE_ALLOC' "$root/CMakeLists.txt" ||
    fail "docs reference MANET_PROFILE_ALLOC but CMakeLists.txt does not define it"
grep -q 'bench_memory' "$experiments" ||
    fail "EXPERIMENTS.md lost its bench_memory (E27) section"
grep -q 'MANET_PROFILE_ALLOC' "$experiments" ||
    fail "EXPERIMENTS.md E27 must describe the MANET_PROFILE_ALLOC alloc gate"
[ -f "$root/tools/baselines/BENCH_memory.json" ] ||
    fail "tools/baselines/BENCH_memory.json baseline is missing"
for scalar in min_speedup max_allocs_per_tick max_allocs_per_changed_tick; do
    grep -q "\"$scalar\"" "$root/tools/baselines/BENCH_memory.json" ||
        fail "BENCH_memory.json baseline lost its $scalar acceptance scalar"
done

# 8b. The session/handover-FSM plane is documented and its gate cannot
#     silently rot: the architecture chapter exists and names the
#     load-bearing pieces, EXPERIMENTS.md keeps E29 and the report schema,
#     and the bench_sessions baseline keeps its acceptance-cap scalars.
grep -q '^## Session-riding handover FSM' "$arch" ||
    fail "docs/ARCHITECTURE.md lost its 'Session-riding handover FSM' chapter"
for sym in HandoverManager HandoverObserver kRolledBack rollback_failures \
           LocatorView; do
    grep -q "$sym" "$arch" ||
        fail "docs/ARCHITECTURE.md handover chapter no longer mentions $sym"
done
grep -q 'bench_sessions' "$experiments" ||
    fail "EXPERIMENTS.md lost its bench_sessions (E29) section"
grep -q 'manet-sessions/1' "$experiments" ||
    fail "EXPERIMENTS.md E29 must name the manet-sessions/1 schema"
[ -f "$root/tools/baselines/BENCH_sessions.json" ] ||
    fail "tools/baselines/BENCH_sessions.json baseline is missing"
for scalar in max_session_interruption_p99 max_misroute_rate; do
    grep -q "\"$scalar\"" "$root/tools/baselines/BENCH_sessions.json" ||
        fail "BENCH_sessions.json baseline lost its $scalar acceptance scalar"
done

# 8c. The sharded parallel tick is documented and its gates cannot silently
#     rot: the architecture chapter exists and names the load-bearing
#     pieces, EXPERIMENTS.md keeps E30, and the bench_capacity baseline
#     keeps its acceptance scalar. There is one tick path: an executor is
#     always attached, so no sequential twin (a branch on a missing
#     executor) may grow back under src/.
twins=$(grep -rnE 'par_ [!=]= nullptr|if \(tick_shards' "$root/src" || true)
[ -z "$twins" ] ||
    fail "sequential tick twin under src/ (the executor is always attached): $twins"
grep -q '^## Sharded parallel tick' "$arch" ||
    fail "docs/ARCHITECTURE.md lost its 'Sharded parallel tick' chapter"
for sym in ShardExecutor kDefaultShardCount ShardedEdgeDiff \
           sharded_tick_test min_capacity_n; do
    grep -q "$sym" "$arch" ||
        fail "docs/ARCHITECTURE.md sharded-tick chapter no longer mentions $sym"
done
grep -q 'E30' "$experiments" ||
    fail "EXPERIMENTS.md lost its E30 (sharded-tick capacity) section"
grep -q 'identity_violations' "$experiments" ||
    fail "EXPERIMENTS.md E30 must describe the identity_violations gate"
[ -f "$root/tools/baselines/BENCH_capacity.json" ] ||
    fail "tools/baselines/BENCH_capacity.json baseline is missing"
grep -q '"min_capacity_n"' "$root/tools/baselines/BENCH_capacity.json" ||
    fail "BENCH_capacity.json baseline lost its min_capacity_n acceptance scalar"

# 8d. The query-serving plane is documented and its gates cannot silently
#     rot: the user guide exists and documents every QueryEngine public
#     method (the scoped Reader and the set_parallel row fill included), the
#     QueryResult type and the CLI flag (and each of those must still exist
#     in the code), the architecture chapter exists and names the
#     load-bearing pieces, EXPERIMENTS.md keeps E31 + the artifact schema,
#     and the bench_query baseline keeps its gate scalars.
qe_doc="$root/docs/QUERY_ENGINE.md"
qe_hpp="$root/src/lm/query_engine.hpp"
if [ ! -f "$qe_doc" ]; then
    fail "docs/QUERY_ENGINE.md is missing"
else
    # code -> docs: every QueryEngine public method must be documented.
    for method in publish lookup lookup_batch epoch set_parallel; do
        grep -q "$method" "$qe_doc" ||
            fail "docs/QUERY_ENGINE.md no longer documents QueryEngine::$method"
        grep -q "$method" "$qe_hpp" ||
            fail "docs/QUERY_ENGINE.md documents QueryEngine::$method but \
src/lm/query_engine.hpp does not declare it"
    done
    grep -q 'QueryEngine::Reader' "$qe_doc" ||
        fail "docs/QUERY_ENGINE.md no longer documents QueryEngine::Reader"
    grep -q 'class Reader' "$qe_hpp" ||
        fail "docs/QUERY_ENGINE.md documents QueryEngine::Reader but \
src/lm/query_engine.hpp does not declare it"
    for sym in QueryResult kInvalidNode; do
        grep -q "$sym" "$qe_doc" ||
            fail "docs/QUERY_ENGINE.md no longer mentions $sym"
    done
    grep -q -- '--query-load' "$qe_doc" ||
        fail "docs/QUERY_ENGINE.md lost its --query-load section"
    grep -q -- '"--query-load"' "$cli_src" ||
        fail "docs/QUERY_ENGINE.md documents --query-load but \
src/exp/cli.cpp does not parse it"
    grep -q 'manet-bench-artifact/1' "$qe_doc" ||
        fail "docs/QUERY_ENGINE.md no longer names the artifact schema"
fi
grep -q '^## Query engine' "$arch" ||
    fail "docs/ARCHITECTURE.md lost its 'Query engine' chapter"
for sym in QueryEngine query_engine_test seq_cst query_load; do
    grep -q "$sym" "$arch" ||
        fail "docs/ARCHITECTURE.md query-engine chapter no longer mentions $sym"
done
grep -q 'E31' "$experiments" ||
    fail "EXPERIMENTS.md lost its E31 (query serving) section"
grep -q 'BENCH_query_cost' "$experiments" ||
    fail "EXPERIMENTS.md must name the split E12b artifact BENCH_query_cost.json"
[ -f "$root/tools/baselines/BENCH_query.json" ] ||
    fail "tools/baselines/BENCH_query.json baseline is missing"
for scalar in min_lookups_per_sec max_lookup_p99_us min_lookup_scaling; do
    grep -q "\"$scalar\"" "$root/tools/baselines/BENCH_query.json" ||
        fail "BENCH_query.json baseline lost its $scalar gate scalar"
done

# 8e. The runtime shard topology is documented and its gates cannot
#     silently rot: the architecture chapter names the load-bearing pieces
#     (and they still exist in the code), CLI.md documents --shards, and the
#     bench_capacity baseline keeps the parallel-speedup gate scalars.
for sym in resolve_shard_count min_parallel_speedup speedup_max '--shards'; do
    grep -q -- "$sym" "$arch" ||
        fail "docs/ARCHITECTURE.md sharded-tick chapter no longer mentions $sym"
done
grep -q 'resolve_shard_count' "$root/src/sim/shard.hpp" ||
    fail "docs name sim::resolve_shard_count but src/sim/shard.hpp lost it"
grep -q -- '"--shards"' "$cli_src" ||
    fail "docs document --shards but src/exp/cli.cpp does not parse it"
for scalar in min_parallel_speedup speedup_max; do
    grep -q "\"$scalar\"" "$root/tools/baselines/BENCH_capacity.json" ||
        fail "BENCH_capacity.json baseline lost its $scalar gate scalar"
done
grep -q 'min_parallel_speedup' "$experiments" ||
    fail "EXPERIMENTS.md E30 must describe the min_parallel_speedup gate"

# 8f. One hierarchy recursion: HierarchyBuilder::grow() is the only place
#     under src/cluster/ that promotes a level, so the eq. (7) link-range
#     expression appears there once, and the builder's deleted reuse memo
#     (level_inputs_match) may not grow back under src/.
link_ranges=$(grep -rFo 'std::sqrt(mean_ck)' "$root/src/cluster" | wc -l)
[ "$link_ranges" -le 1 ] ||
    fail "eq. (7) link range std::sqrt(mean_ck) appears $link_ranges times under \
src/cluster/ (level promotion lives once, in HierarchyBuilder::grow)"
memo=$(grep -rn 'level_inputs_match' "$root/src" || true)
[ -z "$memo" ] ||
    fail "the builder's reuse memo is back under src/ (one hierarchy recursion): $memo"

# 8g. One unit-disk update path: a tick with any moved node takes the
#     sharded rescan, so the point-update machinery (per-moved-node
#     recompute, stale list, slack-anchored grid, the grid's point query and
#     the SoA node-state mirror) may not grow back under src/.
point_path=$(grep -rnE 'recompute_moved|stale_list_|slack_factor|neighbors_within|node_state\.hpp' \
    "$root/src" || true)
point_path="$point_path$(find "$root/src" -name node_state.hpp)"
[ -z "$point_path" ] ||
    fail "unit-disk point-update path is back under src/ (one update path): $point_path"

# 8h. One tick loop: run_simulation drives the measured window with a plain
#     loop over the tick times, so the discrete-event kernel (sim::Engine,
#     its EventQueue and the EventClosure slab) and the batched rendezvous
#     kernels no caller used may not grow back under src/.
kernel=$(grep -rnE 'sim::Engine|EventQueue|EventClosure|sim/engine\.hpp|event_queue\.hpp|rendezvous_pick(_weighted)?_batch|RendezvousScratch' \
    "$root/src" || true)
for f in sim/engine.hpp sim/engine.cpp sim/event_queue.hpp sim/event_queue.cpp \
         sim/event_closure.hpp; do
    if [ -e "$root/src/$f" ]; then kernel="$kernel src/$f"; fi
done
[ -z "$kernel" ] ||
    fail "the event kernel or batched rendezvous is back under src/ (one tick loop): $kernel"

# 8i. One entry-move walk: HandoffEngine classifies each (owner, level) move
#     in one place that pricing and the commit both read, so (had, has) is
#     decided once in src/lm/handoff.cpp. The LM-layer duplicates no program
#     read (the overhead report and its serializer, the viz JSON exporter,
#     the nested server table) may not grow back under src/, tools/ or
#     examples/.
walks=$(grep -cF 'const bool had =' "$root/src/lm/handoff.cpp")
[ "$walks" -le 1 ] ||
    fail "src/lm/handoff.cpp decides (had, has) $walks times (one entry-move walk)"
dups=$(grep -rnE --exclude=check_docs.sh \
    'batch_price_pairs|OverheadReport|lm/overhead\.hpp|viz/json\.hpp|write_metrics_json|write_hierarchy_json|select_all_servers\(' \
    "$root/src" "$root/tools" "$root/examples" || true)
for f in src/lm/overhead.hpp src/lm/overhead.cpp src/viz/json.hpp src/viz/json.cpp \
         tests/lm/overhead_test.cpp tests/viz/json_test.cpp; do
    if [ -e "$root/$f" ]; then dups="$dups $f"; fi
done
[ -z "$dups" ] ||
    fail "a deleted LM-layer duplicate is back (one entry-move walk): $dups"

# 8j. One validation site: ScenarioConfig::validate() holds every scenario
#     rule and RunOptions::validate() every run rule, and parse_cli and
#     parse_campaign_cli read syntax only, through one flag loop
#     (scan_flags). So neither parser may range-check a scenario or run field
#     or a parsed value (the CLI's own counts --reps, --trace-capacity and
#     --trace-sample keep their >= 1 checks, and the campaign's cross-flag
#     rule that --merge runs unsharded keeps its shard_count > 1; the
#     campaign's --threads ceiling is RunOptions::validate()'s), a second
#     flag loop may not split "--flag=value" again, and src/exp/cli.cpp may
#     not grow back a field-to-flag map (kFlags) or a "needs a non-negative /
#     positive number" branch. run_simulation hands the repairer
#     LinkTracker's exact level-0 delta, so the raw-delta exactness flags may
#     not come back in src/exp/simulation.cpp, and the readers no program
#     called (the manifest / resilience / sessions JSON readers and the
#     query engine's publish time) may not come back under src/.
parse_cli_body=$(sed -n '/^CliParseResult parse_cli(/,/^}/p' "$cli_src")
[ -n "$parse_cli_body" ] || fail "src/exp/cli.cpp no longer defines parse_cli"
campaign_body=$(sed -n '/^CampaignCliParseResult parse_campaign_cli(/,/^}/p' "$cli_src")
[ -n "$campaign_body" ] || fail "src/exp/cli.cpp no longer defines parse_campaign_cli"
range=$(printf '%s\n%s\n' "$parse_cli_body" "$campaign_body" | grep -E \
    'kMaxShardCount|parsed|(scenario|run|fault|session|handover)\.[a-z_.]+ *[<>]|[<>]=? *(opt\.)?(scenario|run)\.|[<>]=? *-?[0-9]|opt\.(threads|max_units|shard_index|shard_count) *[<>]|[<>]=? *opt\.(threads|max_units|shard_index|shard_count)' |
    grep -vE 'opt\.(replications|trace_capacity|trace_sample) < 1\)|opt\.merge && opt\.shard_count > 1\)' || true)
range="$range$(grep -nE 'kFlags|needs a (non-negative|positive)' "$cli_src" || true)"
[ "$(grep -c 'split_inline_value(' "$cli_src")" -le 2 ] ||
    range="$range $(grep -n 'split_inline_value(' "$cli_src")"
[ -z "$range" ] ||
    fail "a range rule, a second flag loop or a field-to-flag map is back in src/exp/cli.cpp \
(one validation site): $range"
raw_delta=$(grep -nE 'prev_bridged|delta_exact' "$root/src/exp/simulation.cpp" || true)
[ -z "$raw_delta" ] ||
    fail "src/exp/simulation.cpp judges the raw link delta again \
(LinkTracker's delta is exact): $raw_delta"
readers=$(grep -rnE \
    'RunManifest::from_json|RunManifest& out\)|resilience_from_json|sessions_from_json|published_at' \
    "$root/src" || true)
[ -z "$readers" ] || fail "a deleted reader is back under src/ (one validation site): $readers"

# 8k. Session packets at route cost: route() prices its recovery leg with a
#     bounded BFS from dest and reports a hop count, the table builder
#     bounds its fallback BFS, and measure_stretch and query_cost ask exact
#     pair queries. So no full single-source BFS (bfs_hops( or BfsScratch)
#     may come back under src/routing/ or in src/lm/address.cpp (the home of
#     query_cost), no per-call std::vector<bool> in src/routing/table.cpp,
#     and the session workload may not read a path length (path.size())
#     back in src/traffic/sessions.cpp.
full_bfs=$(grep -rnE 'bfs_hops\(|BfsScratch' "$root/src/routing" "$root/src/lm/address.cpp" || true)
full_bfs="$full_bfs$(grep -nF 'std::vector<bool>' "$root/src/routing/table.cpp" || true)"
full_bfs="$full_bfs$(grep -nF 'path.size()' "$root/src/traffic/sessions.cpp" || true)"
[ -z "$full_bfs" ] ||
    fail "a full BFS per route, stretch sample or query, or a path walk per \
session packet, is back (session packets at route cost): $full_bfs"

# 8l. Only what a program reaches: the metrics registry's merge layer,
#     library API only its own tests called, trace event types no producer
#     emitted and config fields only tests set were deleted, so none of them
#     may come back under src/, tools/, bench/ or examples/, and neither may
#     the graph-metrics and mobility-trace modules. ReferencePointGroup keeps
#     its own group_size; ScenarioConfig's may not return under src/exp/ or a
#     program.
unreached=$(grep -rnE --exclude=check_docs.sh \
    '\b(HopStats|sample_hop_stats|exact_hop_stats|DegreeStats|degree_stats|UnionFind|giant_component|induced_subgraph|Subgraph|SquareRegion|TraceFrame|TraceReplay|RadioParams|rendezvous_pick_index|rendezvous_pick_weighted|servers_of|long_jump|fit_proportional|summarize|add_row_values|write_row_values|kRegistration|kLookup|last_mark_|exclude_own_branch|outage_x|outage_y|outage_vx|outage_vy|shuffle_ids)\b|graph/metrics\.hpp|mobility/trace\.hpp|mobility::Trace\b|(Counter|Gauge|RateMeter|Histogram|MetricsRegistry|Accumulator|AggregatedMetrics)::merge\(|void merge\(const (Counter|Gauge|RateMeter|Histogram|MetricsRegistry|Accumulator|AggregatedMetrics)&|bool written\(\)|\.holdoff\b|Time holdoff\b|\.salt\b' \
    "$root/src" "$root/tools" "$root/bench" "$root/examples" || true)
unreached="$unreached$(grep -rnw --exclude=check_docs.sh group_size \
    "$root/src/exp" "$root/tools" "$root/bench" "$root/examples" || true)"
unreached="$unreached$(grep -nE 'void clear\(\)' "$root/src/sim/trace.hpp" || true)"
unreached="$unreached$(grep -nE 'uint64_t salt\b' "$root/src/lm/server_select.hpp" || true)"
for f in src/graph/metrics.hpp src/graph/metrics.cpp src/mobility/trace.hpp \
         src/mobility/trace.cpp tests/graph/metrics_test.cpp tests/mobility/trace_test.cpp; do
    if [ -e "$root/$f" ]; then unreached="$unreached $f"; fi
done
[ -z "$unreached" ] ||
    fail "deleted code no program reached is back (only what a program reaches): $unreached"

# 8m. Flat tables for dense keys: the LM database is one (owner, level)
#     table, and every other integer key is a flat array or a sorted
#     vector, so the general-purpose hash map, hash set and bump arena (and
#     the log levels no program raised) may not come back under src/,
#     tools/, bench/, examples/ or tests/.
containers=$(grep -rnE --exclude=check_docs.sh \
    '\b(FlatMap|FlatSet|ArenaScratch|LogLevel|set_log_level)\b' \
    "$root/src" "$root/tools" "$root/bench" "$root/examples" "$root/tests" || true)
for f in src/common/flat_map.hpp src/common/flat_set.hpp src/common/arena.hpp \
         src/common/arena.cpp tests/common/flat_map_test.cpp tests/common/arena_test.cpp; do
    if [ -e "$root/$f" ]; then containers="$containers $f"; fi
done
[ -z "$containers" ] ||
    fail "a deleted hash container, arena or log level is back (flat tables for dense keys): $containers"

# 8n. Sort-free graph assembly and grid-bucketed level links: a canonical
#     sorted edge list scatters into sorted CSR neighbor lists, so
#     Graph::assign may not sort adjacency per vertex again, and
#     HierarchyBuilder finds geometric level-k links through a spatial grid,
#     so the all-pairs head loop may not come back.
resorted=$(grep -nF 'std::sort(adjacency_' "$root/src/graph/graph.cpp" || true)
resorted="$resorted$(grep -nF 'b = a + 1; b < n_next' "$root/src/cluster/hierarchy_builder.cpp" || true)"
[ -z "$resorted" ] ||
    fail "a per-vertex adjacency sort or the all-pairs level-link scan is back \
(sort-free graph assembly, grid-bucketed level links): $resorted"

# 8o. One labeling, one assembly, a linear grid and landmarks swept over
#     the shards: the unit-disk rescan labels its components once over the
#     adjacency lists and assembles only the graph it returns, so neither a
#     connectivity pre-check nor a second labeling may come back;
#     SpatialGrid::rebuild places ids by a radix pass, so the keyed sort may
#     not come back; and HopOracle picks the landmarks after round 1 from
#     the round-1 bounds, so a farthest-point loop over every landmark that
#     sweeps and updates min_dist_ each time (outside the kRoundOne branch)
#     may not come back.
unit_disk="$root/src/net/unit_disk.cpp"
once=$(grep -nE '(^|[^_[:alnum:]])is_connected[(]' "$unit_disk" || true)
[ "$(grep -c 'component_labels(' "$unit_disk")" -le 1 ] ||
    once="$once $(grep -n 'component_labels(' "$unit_disk")"
once="$once$(grep -nF 'std::sort(keyed' "$root/src/geom/spatial_grid.cpp" || true)"
once="$once$(awk '
    /for \(Size k = 0; k < (width_|kLandmarks|kWide|kNarrow);/ { open = 1; depth = 0; body = ""; at = FNR }
    open {
        body = body $0 "\n"
        depth += gsub(/[{]/, "{") - gsub(/[}]/, "}")
        if (depth <= 0) {
            if (body ~ /sweep/ && body ~ /(min_dist_|cover[(])/ && body !~ /kRoundOne/)
                printf "hop_oracle.cpp:%d ", at
            open = 0
        }
    }' "$root/src/net/hop_oracle.cpp")"
[ -z "$(echo "$once" | tr -d ' ')" ] ||
    fail "a connectivity pre-check, a second component labeling, the keyed grid sort or a \
sweep-every-landmark farthest-point loop is back (one labeling, one assembly, \
a linear grid, landmarks swept over the shards): $once"

# 8p. Routing tables and session fates over the shards: the RoutingTables
#     build runs its per-level passes on the executor and reads membership
#     through Hierarchy::ancestor, so no shared membership[] array that one
#     task writes and another reads may come back in src/routing/table.cpp;
#     and tick_sessions computes every fate inside for_each_shard, so
#     src/traffic/sessions.cpp may not call fate_of there outside it (nor
#     drop the sharded call altogether).
sharded="$(grep -nF 'membership[' "$root/src/routing/table.cpp" || true)"
sharded="$sharded$(awk '
    /^void SessionWorkload::tick_sessions[(]/ { open = 1; depth = 0; shard = 0 }
    open {
        if (!shard && $0 ~ /for_each_shard[(]/) { shard = 1; at = depth }
        if ($0 ~ /fate_of[(]/) {
            if (shard) inside++
            else printf "sessions.cpp:%d ", FNR
        }
        depth += gsub(/[{]/, "{") - gsub(/[}]/, "}")
        if (shard && depth <= at) shard = 0
        if (depth <= 0 && started) { open = 0; if (!inside) printf "sessions.cpp:%d(no sharded fate_of) ", FNR }
        if (depth > 0) started = 1
    }' "$root/src/traffic/sessions.cpp")"
[ -z "$sharded" ] ||
    fail "a shared membership array in the table build, or a session fate computed \
outside for_each_shard, is back (routing tables and session fates over the \
shards): $sharded"

# 8q. Flat per-level rows for the clustered hierarchy: each LevelView
#     stores its ancestor, children and members0 rows flat and level 0
#     stores none, so no nested vector may come back in
#     src/cluster/hierarchy.hpp or hierarchy_builder.cpp; and the
#     alpha() / aggregation() accessors no program called may not come back
#     in src/cluster/hierarchy.{hpp,cpp}, nor a call to them under src/,
#     tools/, bench/, examples/ or tests/.
nested=$(grep -nF 'std::vector<std::vector' "$root/src/cluster/hierarchy.hpp" \
    "$root/src/cluster/hierarchy_builder.cpp" || true)
nested="$nested$(grep -nE '(alpha|aggregation)[(]Level' "$root/src/cluster/hierarchy.hpp" \
    "$root/src/cluster/hierarchy.cpp" || true)"
nested="$nested$(grep -rnE --exclude=check_docs.sh '\.(alpha|aggregation)\(' \
    "$root/src" "$root/tools" "$root/bench" "$root/examples" "$root/tests" || true)"
[ -z "$nested" ] ||
    fail "a nested membership table or a deleted Hierarchy accessor is back \
(flat per-level rows for the clustered hierarchy): $nested"

# 8r. One CHLM assignment table: lm::HandoffEngine owns it, so its second
#     owner (ChlmService, lm/chlm.hpp) may not come back under src/, tools/,
#     bench/, examples/ or tests/; the registration tracker reads each server
#     from the engine, so src/lm/registration.cpp may not call select_server(
#     and RegistrationConfig may not hold a select config again; and the
#     config fields with one value in use are constants now, so
#     FaultConfig::force and packets_per_session may not come back.
one_table=$(grep -rnE --exclude=check_docs.sh '\bChlmService\b|lm/chlm\.hpp' \
    "$root/src" "$root/tools" "$root/bench" "$root/examples" "$root/tests" || true)
for f in src/lm/chlm.hpp src/lm/chlm.cpp; do
    if [ -e "$root/$f" ]; then one_table="$one_table $f"; fi
done
one_table="$one_table$(grep -nF 'select_server(' "$root/src/lm/registration.cpp" || true)"
one_table="$one_table$(sed -n '/^struct RegistrationConfig {/,/^};/p' "$root/src/lm/registration.hpp" |
    grep -nE 'ServerSelectConfig|\bselect *[;={]' || true)"
one_table="$one_table$(grep -nE 'bool force\b' "$root/src/sim/fault.hpp" || true)"
one_table="$one_table$(grep -rnE --exclude=check_docs.sh '\.force\b|packets_per_session' \
    "$root/src" "$root/tools" "$root/bench" "$root/examples" "$root/tests" || true)"
[ -z "$one_table" ] ||
    fail "a second CHLM assignment table, a registration server scan or a \
one-value config field is back (one CHLM assignment table): $one_table"

# 9. No dangling intra-doc links in docs/*.md: every relative link target
#    must exist on disk and every #fragment must match a heading slug
#    (GitHub-style: lowercase, punctuation stripped, spaces to dashes).
slugify() {
    tr '[:upper:]' '[:lower:]' | sed -e 's/[^a-z0-9 -]//g' -e 's/ /-/g'
}
for doc in "$root"/docs/*.md; do
    for link in $(grep -o '](\([^)]*\))' "$doc" | sed -e 's/^](//' -e 's/)$//'); do
        case $link in
            http://*|https://*|mailto:*) continue ;;
        esac
        file=${link%%#*}
        frag=
        case $link in
            *#*) frag=${link#*#} ;;
        esac
        target=$doc
        if [ -n "$file" ]; then
            target="$root/docs/$file"
            if [ ! -f "$target" ]; then
                fail "$(basename "$doc") links to missing file $file"
                continue
            fi
        fi
        if [ -n "$frag" ]; then
            sed -n 's/^#\{1,\} *//p' "$target" | slugify | grep -qx "$frag" ||
                fail "$(basename "$doc") links to missing anchor \
#$frag in $(basename "$target")"
        fi
    done
done

# 10. The CLI + RunOptions reference (docs/CLI.md) is complete in both
#     directions: every --flag parse_cli understands is documented, every
#     --flag the doc names still parses, every RunOptions field has a doc
#     row, and every documented field still exists in the struct.
cli_doc="$root/docs/CLI.md"
sim_hpp="$root/src/exp/simulation.hpp"
if [ ! -f "$cli_doc" ]; then
    fail "docs/CLI.md is missing"
else
    # code -> docs: flags are string literals in src/exp/cli.cpp.
    for flag in $(grep -o -- '"--[a-z][a-z-]*"' "$cli_src" | tr -d '"' | sort -u); do
        grep -q -- "\`$flag[\` ]" "$cli_doc" ||
            fail "src/exp/cli.cpp parses $flag but docs/CLI.md does not document it"
    done
    # docs -> code: every flag the reference names must still be parsed.
    for flag in $(grep -o -- '`--[a-z][a-z-]*' "$cli_doc" | tr -d '\`' | sort -u); do
        grep -q -- "\"$flag\"" "$cli_src" ||
            fail "docs/CLI.md documents $flag but src/exp/cli.cpp does not parse it"
    done
    # code -> docs: every RunOptions field gets a `field` row.
    for field in $(sed -n '/^struct RunOptions {/,/^};/p' "$sim_hpp" |
                   sed -n 's/^ *[A-Za-z_].*[ *]\([a-z_][a-z_0-9]*\) =.*/\1/p'); do
        grep -q "\`$field\`" "$cli_doc" ||
            fail "RunOptions::$field is not documented in docs/CLI.md"
    done
    # docs -> code: every field row in the RunOptions table is a real field.
    for field in $(sed -n '/^## `exp::RunOptions` fields/,$p' "$cli_doc" |
                   sed -n 's/^| `\([a-z_][a-z_0-9]*\)`.*/\1/p'); do
        sed -n '/^struct RunOptions {/,/^};/p' "$sim_hpp" | grep -q "[ *]$field =" ||
            fail "docs/CLI.md documents RunOptions field '$field' but \
src/exp/simulation.hpp does not declare it"
    done
fi

[ "$status" -eq 0 ] && echo "check_docs: OK"
exit "$status"
