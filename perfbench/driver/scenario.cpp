#include "driver/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>

#include "src/frt/frt_tree.hpp"
#include "src/frt/le_lists.hpp"
#include "src/frt/pipelines.hpp"
#include "src/graph/generators.hpp"
#include "src/hopset/hopset.hpp"
#include "src/parallel/counters.hpp"
#include "src/parallel/parallel.hpp"
#include "src/serve/dynamic_ensemble.hpp"
#include "src/serve/serialize.hpp"
#include "src/serve/stretch_report.hpp"
#include "src/serve/tenant_router.hpp"
#include "src/simgraph/simulated_graph.hpp"
#include "src/util/assertions.hpp"

namespace perfbench {

using namespace pmte;
namespace sv = pmte::serve;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// split_seed streams of the workload seed: every input of a run is a
// function of (spec, seed) alone.  Instance k of a stream is
// split_seed(split_seed(seed, stream), k).
constexpr std::uint64_t kPrimaryGraphStream = 1;
constexpr std::uint64_t kPrimaryMasterStream = 2;
constexpr std::uint64_t kPrimaryQueryStream = 3;
constexpr std::uint64_t kLiveGraphStream = 4;
constexpr std::uint64_t kLiveMasterStream = 5;
constexpr std::uint64_t kLiveQueryStream = 6;
constexpr std::uint64_t kUpdateStream = 7;
constexpr std::uint64_t kInterleaveStream = 8;

std::uint64_t instance_seed(const ScenarioSpec& spec, std::uint64_t stream,
                            std::size_t k) {
  return split_seed(split_seed(spec.seed, stream), k);
}

/// Served positions compared against FrtEnsemble::query per batch.
constexpr std::size_t kSpotChecks = 8;
constexpr std::size_t kTrees = 8;
/// Every kIncreaseEvery-th update raises a weight; the others lower one.
constexpr std::size_t kIncreaseEvery = 8;

sv::EnsembleOptions ensemble_options(sv::EnsemblePipeline pipeline) {
  sv::EnsembleOptions opts;
  opts.trees = kTrees;
  opts.pipeline = pipeline;
  return opts;
}

/// FNV-1a over a file's bytes (whole 8-byte words, then the tail).
std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::uint64_t h = kFnv1aInit;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    h = fnv1a_fold(h, w);
  }
  for (; i < bytes.size(); ++i) {
    h = fnv1a_fold(h, static_cast<unsigned char>(bytes[i]));
  }
  return fnv1a_fold(h, bytes.size());
}

/// Save through a temporary file renamed into place: a mapping of the
/// previous artefact keeps its own inode, so it stays valid while the
/// server still serves the old epoch from it.
std::size_t save_artefact(const sv::FrtEnsemble& e, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    e.save(os);
    os.flush();
    PMTE_CHECK(os.good(), "perfbench: cannot write " + tmp);
  }
  PMTE_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "perfbench: cannot rename " + tmp);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<std::size_t>(in.tellg());
}

bool same_bits(const std::vector<Weight>& a, const std::vector<Weight>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Weight)) == 0;
}

bool same_counters(const sv::TenantCounters& a, const sv::TenantCounters& b) {
  return a.batches == b.batches && a.pairs == b.pairs &&
         a.tree_lookups == b.tree_lookups && a.lca_probes == b.lca_probes &&
         a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
         a.cache_admissions == b.cache_admissions &&
         a.cache_conflicts == b.cache_conflicts && a.epoch == b.epoch &&
         a.result_hash64 == b.result_hash64;
}

bool same_update(const UpdateRecord& a, const UpdateRecord& b) {
  return a.incremental == b.incremental &&
         a.trees_rebuilt == b.trees_rebuilt &&
         a.levels_recomputed == b.levels_recomputed &&
         a.levels_skipped == b.levels_skipped &&
         a.relaxations == b.relaxations;
}

const char* kernel_span_name(sv::WorkloadKind kind) {
  switch (kind) {
    case sv::WorkloadKind::uniform:
      return "kernel.query_batch.uniform";
    case sv::WorkloadKind::bfs_local:
      return "kernel.query_batch.bfs_local";
    case sv::WorkloadKind::zipf:
    default:
      return "kernel.query_batch.zipf";
  }
}

/// Batch slots of the primary side; the live side takes the rest.
std::size_t primary_slots(const ScenarioSpec& spec) {
  return spec.batch * spec.primary.size() /
         (spec.primary.size() + spec.live.size());
}

/// Upper bounds on the batches one graph of a side serves.  A round
/// serves `batches_per_round` batches plus, per update, the update's own
/// batch and at most one flip batch of a new live session.  A primary
/// graph lives `build_every` rounds; a live graph `live_session` updates,
/// which touch at most ⌈live_session / updates_per_round⌉ + 1 rounds.
std::size_t primary_epoch_batches(const ScenarioSpec& spec) {
  return std::size_t{spec.build_every} *
         (spec.batches_per_round + 2 * spec.updates_per_round);
}

std::size_t live_epoch_batches(const ScenarioSpec& spec) {
  const std::size_t rounds =
      (spec.live_session + spec.updates_per_round - 1) /
          spec.updates_per_round +
      1;
  return rounds * (spec.batches_per_round + 2 * spec.updates_per_round);
}

/// Traffic of one side (primary or live tenants) over graph `g`, enough
/// for `batches` batches of `slots` slots each: tenant first + t draws
/// stream t of make_multi_tenant_workload, in order.
std::vector<sv::TenantQuery> make_stream(const Graph& g,
                                         const std::vector<TenantSpec>& ts,
                                         sv::TenantId first,
                                         std::size_t slots,
                                         std::size_t batches,
                                         std::uint64_t seed) {
  std::vector<sv::TenantStreamSpec> specs(ts.size());
  for (std::size_t t = 0; t < ts.size(); ++t) {
    specs[t].kind = ts[t].kind;
    specs[t].opts.pairs = (batches * slots + ts.size() - 1) / ts.size();
  }
  auto stream = sv::make_multi_tenant_workload(g, specs, seed);
  for (auto& q : stream) q.tenant += first;
  return stream;
}

/// One side of the traffic: its current graph and query stream.
struct Side {
  Graph g;
  std::vector<sv::TenantQuery> stream;
  std::size_t pos = 0;  ///< next query

  const sv::TenantQuery& next() {
    PMTE_CHECK(pos < stream.size(),
               "perfbench: query stream exhausted before its graph retired");
    return stream[pos++];
  }
};

/// A replica of one tenant's stream state, driven by the router + kernel
/// replay so its counters can be compared with the server's.
struct ReplicaTenant {
  std::optional<sv::HotPairCache> cache;
  std::uint64_t epoch = 0;
  sv::TenantCounters counters;
};

struct State {
  Side primary;
  Side live;
  std::unique_ptr<sv::DynamicEnsemble> dyn;
  sv::Server server;
  std::vector<sv::TenantId> primary_ids;
  std::vector<sv::TenantId> live_ids;
  std::vector<std::uint8_t> side_of_slot;  ///< batch slot → 0 primary, 1 live
  std::vector<sv::TenantQuery> batch;      ///< the batch being served
  std::vector<WeightedEdge> live_edges;
  Rng update_rng{0};
  std::uint64_t live_fp = 0;
  std::size_t next_primary = 0;  ///< next primary graph instance
  std::size_t next_live = 0;     ///< next live graph instance
  std::size_t builds = 0;        ///< ops done in this pass
  std::size_t batches = 0;
  std::size_t updates = 0;
  bool swap_staged = false;  ///< the next batch flips an epoch
  std::vector<Weight> out;
  // Replay-only state.
  sv::TenantRouter router;
  std::vector<ReplicaTenant> replica;
  std::vector<Weight> replica_out;
};

/// Interleave primary and live traffic into one batch: a seeded shuffle of
/// side tags, fixed for the run, keeps every tenant's stream order.
std::vector<std::uint8_t> make_side_of_slot(const ScenarioSpec& spec) {
  std::vector<std::uint8_t> tags(spec.batch, 1);
  std::fill_n(tags.begin(), primary_slots(spec), 0);
  Rng rng(split_seed(spec.seed, kInterleaveStream));
  for (std::size_t i = tags.size(); i > 1; --i) {
    std::swap(tags[i - 1], tags[rng.below(i)]);
  }
  return tags;
}

void next_batch(State& st) {
  st.batch.clear();
  for (const auto side : st.side_of_slot) {
    st.batch.push_back(side == 0 ? st.primary.next() : st.live.next());
  }
  ++st.batches;
}

/// The oracle or sequential pipeline, replayed stage by stage through the
/// library's public stage functions, exactly as FrtEnsemble::build runs
/// them: stream 0 of the master seed feeds the hop set and H, stream 1 + t
/// tree t.  The result compares == to FrtEnsemble::build's.
sv::FrtEnsemble staged_build(const Graph& g, std::uint64_t master,
                             const sv::EnsembleOptions& opts, Tracer* tracer,
                             const Span* parent) {
  const bool oracle = opts.pipeline == sv::EnsemblePipeline::oracle;
  PMTE_CHECK(oracle || opts.pipeline == sv::EnsemblePipeline::sequential,
             "perfbench: staged replay covers the oracle and sequential "
             "pipelines");
  Span build(tracer, "ensemble.build", parent);
  std::optional<SimulatedGraph> h;
  if (oracle) {
    Rng shared(split_seed(master, 0));
    HopSet hopset;
    {
      Span s(tracer, "hopset.build", &build);
      hopset = build_hub_hopset(g, opts.frt.hopset, shared);
      s.arg("edges", static_cast<double>(hopset.edges.size()));
    }
    Span s(tracer, "simgraph.build", &build);
    h.emplace(build_simulated_graph(
        g, hopset, resolve_eps_hat(opts.frt.eps_hat, g.num_vertices()),
        shared));
  }
  const Graph& base = oracle ? h->base() : g;
  const Weight hint =
      is_finite(base.min_edge_weight()) ? base.min_edge_weight() : 1.0;

  std::vector<sv::FrtIndex> indices(opts.trees);
  Span trees(tracer, oracle ? "oracle.trees" : "sequential.trees", &build);
  const WorkDepthScope scope;
  parallel_for(
      opts.trees,
      [&](std::size_t t) {
        Span tree_span(tracer, "frt.tree", &trees);
        Rng rng(split_seed(master, 1 + t));
        std::optional<Span> sample(std::in_place, tracer, "frt.sample",
                                   &tree_span);
        const double beta = sample_beta(rng);
        const VertexOrder order = VertexOrder::random(g.num_vertices(), rng);
        sample.reset();
        const LeListsResult le = [&] {
          Span s(tracer, oracle ? "oracle.le_lists" : "sequential.le_lists",
                 &tree_span);
          auto r = oracle ? le_lists_oracle(*h, order,
                                            opts.frt.max_iterations,
                                            opts.frt.mbf)
                          : le_lists_sequential(g, order);
          s.arg("base_iterations", r.base_iterations);
          s.arg("levels_skipped", r.levels_skipped);
          s.arg("levels_warm", r.levels_warm);
          s.arg("levels_full", r.levels_full);
          return r;
        }();
        const FrtTree tree = [&] {
          Span s(tracer, "frt.tree_build", &tree_span);
          return FrtTree::build(le.lists, order, beta, hint, opts.frt.rule);
        }();
        Span s(tracer, "index.build", &tree_span);
        indices[t] = sv::FrtIndex::build(tree);
        s.arg("nodes", static_cast<double>(indices[t].num_nodes()));
      },
      /*grain=*/1);
  trees.arg("relaxations", static_cast<double>(scope.relaxations_delta()));
  trees.arg("semiring_ops", static_cast<double>(scope.work_delta()));
  trees.arg("trees", static_cast<double>(opts.trees));
  trees.arg("n", g.num_vertices());
  trees.arg("m", static_cast<double>(g.num_edges()));
  trees.close();
  Span s(tracer, "ensemble.assemble", &build);
  return sv::FrtEnsemble::assemble(std::move(indices), master,
                                   sv::FrtEnsemble::fingerprint(g));
}

struct BuildOutcome {
  sv::FrtEnsemble mapped;
  double seconds = 0.0;
};

/// Embed the next primary graph instance: FrtEnsemble::build → save →
/// load_mapped (the timed part), then the graph becomes the primary side's
/// and its tenants' traffic is regenerated on it.  Replayed, the stages run
/// one by one (spans when traced) and the artefact must hash as the timed
/// pass's.
BuildOutcome build_op(const ScenarioSpec& spec, State& st, bool replay,
                      Tracer* tracer, const RunLog* log, Checks& checks) {
  const std::size_t k = st.next_primary++;
  const std::size_t i = st.builds++;
  Graph g = make_family_graph(spec.family, spec.n,
                              instance_seed(spec, kPrimaryGraphStream, k));
  const std::uint64_t master = instance_seed(spec, kPrimaryMasterStream, k);
  const auto opts = ensemble_options(spec.pipeline);
  const std::string path = spec.work_dir + "/primary.pmte";
  BuildOutcome r;
  Span op(tracer, "op.build");
  const auto t0 = Clock::now();
  sv::FrtEnsemble built = replay ? staged_build(g, master, opts, tracer, &op)
                                 : sv::FrtEnsemble::build(g, master, opts);
  {
    Span s(tracer, "serialize.save", &op);
    const std::size_t bytes = save_artefact(built, path);
    s.arg("artefact_mb", static_cast<double>(bytes) / 1e6);
  }
  {
    Span s(tracer, "serialize.map", &op);
    sv::reset_load_path_counters();
    r.mapped = sv::FrtEnsemble::load_mapped(path);
    s.arg("bulk_bytes_copied",
          static_cast<double>(sv::load_path_counters().bulk_bytes_copied));
  }
  r.seconds = seconds_since(t0);
  op.close();

  const std::string tag = "build " + std::to_string(i);
  checks.expect(r.mapped == built, tag + ": mapped ensemble != built");
  checks.expect(sv::load_path_counters().bulk_bytes_copied == 0,
                tag + ": load_mapped copied bulk bytes");
  if (log != nullptr) {
    checks.expect(i < log->artefact_hash.size() &&
                      log->artefact_hash[i] == file_hash(path),
                  tag + ": replayed artefact differs from the timed build");
  }
  if (replay && tracer != nullptr && i == 0) {
    // parallel.speedup: the run's first ensemble again at one thread.
    Span s(tracer, "parallel.build_1thread");
    const int threads = num_threads();
    set_num_threads(1);
    const auto one = sv::FrtEnsemble::build(g, master, opts);
    set_num_threads(threads);
    s.close();
    checks.expect(one == built, tag + ": 1-thread build != staged build");
  }
  st.primary.stream =
      make_stream(g, spec.primary, 0, primary_slots(spec),
                  primary_epoch_batches(spec),
                  instance_seed(spec, kPrimaryQueryStream, k));
  st.primary.pos = 0;
  st.primary.g = std::move(g);
  return r;
}

/// Make the primary tenants serve `e` from the next batch on.
void publish_primary(State& st, sv::FrtEnsemble e, Tracer* tracer) {
  Span op(tracer, "op.publish");
  std::uint64_t fp = 0;
  {
    Span s(tracer, "server.load", &op);
    fp = st.server.load(std::move(e));
  }
  Span s(tracer, "server.stage_swap", &op);
  for (const auto t : st.primary_ids) st.server.stage_swap(t, fp);
  st.swap_staged = true;
}

/// A fresh live graph instance under a new DynamicEnsemble; once the live
/// tenants exist, its snapshot is published to them.  The traced setup
/// also replays the construction stage by stage (`staged_check`).
void start_live_session(const ScenarioSpec& spec, State& st, Tracer* tracer,
                        bool staged_check, Checks& checks) {
  const std::size_t k = st.next_live++;
  Graph g = make_family_graph("gnm", spec.live_n,
                              instance_seed(spec, kLiveGraphStream, k));
  const std::uint64_t master = instance_seed(spec, kLiveMasterStream, k);
  const auto opts = ensemble_options(sv::EnsemblePipeline::oracle);
  Span op(tracer, "op.live_session");
  {
    Span s(tracer, "dynamic.build", &op);
    st.dyn = std::make_unique<sv::DynamicEnsemble>(g, master, opts);
  }
  if (staged_check) {
    // With zero updates the snapshot compares == to the staged build.
    const auto staged = staged_build(g, master, opts, tracer, &op);
    checks.expect(staged == st.dyn->snapshot(),
                  "live build: staged replay != DynamicEnsemble snapshot");
  }
  if (!st.live_ids.empty()) {
    {
      Span s(tracer, "server.load", &op);
      st.live_fp = st.server.load(st.dyn->snapshot());
    }
    Span s(tracer, "server.stage_swap", &op);
    for (const auto t : st.live_ids) st.server.stage_swap(t, st.live_fp);
    st.swap_staged = true;
  }
  st.live_edges = g.edge_list();
  st.update_rng = Rng(instance_seed(spec, kUpdateStream, k));
  st.live.stream = make_stream(
      g, spec.live, static_cast<sv::TenantId>(spec.primary.size()),
      spec.batch - primary_slots(spec), live_epoch_batches(spec),
      instance_seed(spec, kLiveQueryStream, k));
  st.live.pos = 0;
  st.live.g = std::move(g);
}

/// Serve the next batch; returns its latency in ms.
double serve_op(State& st, Tracer* tracer, const Span* parent) {
  next_batch(st);
  const bool flip = st.swap_staged;
  st.swap_staged = false;
  Span s(tracer, flip ? "server.flip_batch" : "server.serve", parent);
  const auto t0 = Clock::now();
  st.server.serve(st.batch, st.out);
  return seconds_since(t0) * 1e3;
}

/// Compare a few served values of the last batch with FrtEnsemble::query
/// on the tenant's current ensemble (untimed).
void spot_check(const State& st, Checks& checks) {
  bool ok = st.out.size() == st.batch.size();
  for (std::size_t k = 0; ok && k < kSpotChecks; ++k) {
    const std::size_t i = (k * 509 + st.batches) % st.batch.size();
    const auto& q = st.batch[i];
    const auto ens =
        st.server.registry().find(st.server.tenant_fingerprint(q.tenant));
    const auto policy = st.server.tenant_config(q.tenant).policy;
    ok = ens != nullptr && st.out[i] == ens->query(q.u, q.v, policy);
  }
  checks.expect(ok, "batch " + std::to_string(st.batches) +
                        ": served value != FrtEnsemble::query");
}

/// Route + per-shard query_batch with the replica's own caches, outside
/// the server; outputs and counters must equal Server::serve's.
void replay_batch(const ScenarioSpec& spec, State& st, Tracer* tracer,
                  Checks& checks) {
  Span rb(tracer, "replay.batch");
  {
    Span s(tracer, "router.route", &rb);
    st.router.route(st.batch);
  }
  for (sv::TenantId t = 0; t < st.replica.size(); ++t) {
    auto& shard = st.router.shard(t);
    if (shard.pairs.empty()) continue;
    auto& rep = st.replica[t];
    const auto& c = st.server.counters(t);
    if (rep.epoch != c.epoch) {
      if (rep.cache) rep.cache->clear();
      rep.epoch = c.epoch;
      rep.counters.epoch = c.epoch;
    }
    const auto ens =
        st.server.registry().find(st.server.tenant_fingerprint(t));
    const auto& cfg = st.server.tenant_config(t);
    const auto kind = t < spec.primary.size()
                          ? spec.primary[t].kind
                          : spec.live[t - spec.primary.size()].kind;
    {
      Span s(tracer, kernel_span_name(kind), &rb);
      shard.stats = ens->query_batch(shard.pairs, cfg.policy, shard.out,
                                     rep.cache ? &*rep.cache : nullptr);
      const auto& b = shard.stats;
      s.arg("tenant", t);
      s.arg("pairs", static_cast<double>(b.pairs));
      s.arg("computed",
            static_cast<double>(b.tree_lookups / ens->num_trees()));
      s.arg("lca_probes", static_cast<double>(b.lca_probes));
      s.arg("cached", rep.cache ? 1 : 0);
      s.arg("cache_hits", static_cast<double>(b.cache_hits));
      s.arg("cache_misses", static_cast<double>(b.cache_misses));
      s.arg("cache_conflicts", static_cast<double>(b.cache_conflicts));
    }
    auto& rc = rep.counters;
    ++rc.batches;
    rc.pairs += shard.stats.pairs;
    rc.tree_lookups += shard.stats.tree_lookups;
    rc.lca_probes += shard.stats.lca_probes;
    rc.cache_hits += shard.stats.cache_hits;
    rc.cache_misses += shard.stats.cache_misses;
    rc.cache_admissions += shard.stats.cache_admissions;
    rc.cache_conflicts += shard.stats.cache_conflicts;
    for (const Weight w : shard.out) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &w, sizeof(bits));
      rc.result_hash64 = fnv1a_fold(rc.result_hash64, bits);
    }
  }
  st.replica_out.assign(st.batch.size(), 0.0);
  st.router.scatter(st.replica_out);
  rb.close();
  checks.expect(same_bits(st.replica_out, st.out),
                "batch " + std::to_string(st.batches) +
                    ": router+kernel replay != Server::serve");
}

/// One live update made visible: update → snapshot → Server::load →
/// stage_swap of the live tenants → the next batch served.
UpdateRecord update_op(const ScenarioSpec& spec, State& st, bool replay,
                       Tracer* tracer, const RunLog* log, Checks& checks) {
  const std::size_t j = st.updates++;
  if (j > 0 && j % spec.live_session == 0) {
    start_live_session(spec, st, tracer, /*staged_check=*/false, checks);
    serve_op(st, tracer, nullptr);  // the new session's flip, untimed
    spot_check(st, checks);
    if (replay) replay_batch(spec, st, tracer, checks);
  }
  const auto& e = st.live_edges[st.update_rng.below(st.live_edges.size())];
  const bool raise = j % kIncreaseEvery == kIncreaseEvery - 1;
  const double lo = raise ? 1.25 : 0.5;
  const double hi = raise ? 2.0 : 0.9;
  const Weight w =
      st.dyn->graph().edge_weight(e.u, e.v) * st.update_rng.uniform(lo, hi);

  UpdateRecord rec;
  Span op(tracer, "op.update");
  const auto t0 = Clock::now();
  {
    Span s(tracer, "dynamic.update", &op);
    const auto us = st.dyn->update(e.u, e.v, w);
    rec.incremental = us.incremental;
    rec.trees_rebuilt = us.trees_rebuilt;
    rec.levels_recomputed = us.levels_recomputed;
    rec.levels_skipped = us.levels_skipped;
    rec.relaxations = us.relaxations;
    s.arg("incremental", us.incremental ? 1 : 0);
    s.arg("trees_rebuilt", static_cast<double>(us.trees_rebuilt));
    s.arg("levels_recomputed", static_cast<double>(us.levels_recomputed));
    s.arg("levels_skipped", static_cast<double>(us.levels_skipped));
    s.arg("relaxations", static_cast<double>(us.relaxations));
  }
  std::optional<sv::FrtEnsemble> snap;
  {
    Span s(tracer, "dynamic.snapshot", &op);
    snap.emplace(st.dyn->snapshot());
  }
  std::uint64_t fp = 0;
  {
    Span s(tracer, "server.load", &op);
    fp = st.server.load(std::move(*snap));
  }
  {
    Span s(tracer, "server.stage_swap", &op);
    for (const auto t : st.live_ids) st.server.stage_swap(t, fp);
    st.swap_staged = true;
  }
  serve_op(st, tracer, &op);
  rec.ms = seconds_since(t0) * 1e3;
  op.close();
  spot_check(st, checks);

  const std::string tag = "update " + std::to_string(j);
  checks.expect(fp != st.live_fp,
                tag + ": snapshot fingerprint equals the previous epoch's");
  st.live_fp = fp;
  if (log != nullptr) {
    checks.expect(j < log->updates.size() && same_update(rec, log->updates[j]),
                  tag + ": UpdateStats differ from the timed pass");
  }
  if (replay) {
    replay_batch(spec, st, tracer, checks);
    if (tracer != nullptr) {
      // index.rebuild: FrtIndex::build re-timed on each maintained tree.
      const auto published = st.server.registry().find(fp);
      bool same = published != nullptr;
      Span ir(tracer, "replay.index_rebuild");
      for (std::size_t t = 0; same && t < st.dyn->num_trees(); ++t) {
        Span s(tracer, "index.rebuild", &ir);
        const auto idx = sv::FrtIndex::build(st.dyn->maintainer(t).tree());
        s.close();
        same = idx == published->index(t);
      }
      checks.expect(same, tag + ": rebuilt index != snapshot index");
    }
  }
  return rec;
}

/// Everything a workload needs before its first round, on graph instances
/// `instance` of the primary and live streams.
std::unique_ptr<State> setup(const ScenarioSpec& spec, std::size_t instance,
                             bool replay, Tracer* tracer, const RunLog* log,
                             Checks& checks) {
  auto st = std::make_unique<State>();
  st->next_primary = instance;
  st->next_live = instance;
  auto first = build_op(spec, *st, replay, tracer, log, checks);
  start_live_session(spec, *st, tracer, replay && tracer != nullptr, checks);
  Span op(tracer, "setup.server");
  std::uint64_t primary_fp = 0;
  {
    Span s(tracer, "server.load", &op);
    primary_fp = st->server.load(std::move(first.mapped));
    st->live_fp = st->server.load(st->dyn->snapshot());
  }
  for (const auto& t : spec.primary) {
    st->primary_ids.push_back(
        st->server.add_tenant({primary_fp, t.policy, t.cache}));
  }
  for (const auto& t : spec.live) {
    st->live_ids.push_back(
        st->server.add_tenant({st->live_fp, t.policy, t.cache}));
  }
  st->side_of_slot = make_side_of_slot(spec);
  if (replay) {
    const auto tenants = static_cast<std::uint32_t>(st->server.num_tenants());
    st->router.reset(tenants);
    st->replica.resize(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
      const auto cap = st->server.tenant_config(t).cache_capacity;
      if (cap > 0) st->replica[t].cache.emplace(cap);
    }
  }
  return st;
}

/// Exact KLW stretch of a served primary ensemble (untimed); dominance
/// (min stretch >= 1) is a check.
void measure_stretch(const State& st, const sv::FrtEnsemble& e,
                     RunLog& log, Checks& checks) {
  const auto q =
      sv::measure_stretch_quality(st.primary.g, e, sv::AggregatePolicy::min);
  checks.expect(q.min_stretch >= 1.0,
                "build " + std::to_string(st.builds - 1) +
                    ": served min stretch < 1");
  log.stretch_weighted.push_back(q.weighted_stretch);
}

/// One round of the scenario (see scenario.hpp).
void round_ops(const ScenarioSpec& spec, State& st, std::size_t r,
               bool replay, Tracer* tracer, const RunLog* log,
               RunLog* out_log, Checks& checks) {
  if (r % spec.build_every == 0) {
    auto b = build_op(spec, st, replay, tracer, log, checks);
    if (out_log != nullptr) {
      out_log->build_s.push_back(b.seconds);
      out_log->artefact_hash.push_back(
          file_hash(spec.work_dir + "/primary.pmte"));
      if (out_log->stretch_weighted.size() < spec.stretch_samples) {
        measure_stretch(st, b.mapped, *out_log, checks);
      }
    }
    publish_primary(st, std::move(b.mapped), tracer);
  }
  for (unsigned b = 0; b < spec.batches_per_round; ++b) {
    const bool flip = st.swap_staged;
    Span op(tracer, "op.batch");
    const double ms = serve_op(st, tracer, &op);
    op.close();
    spot_check(st, checks);
    if (out_log != nullptr) (flip ? out_log->flip_ms : out_log->batch_ms).push_back(ms);
    if (replay) replay_batch(spec, st, tracer, checks);
  }
  for (unsigned u = 0; u < spec.updates_per_round; ++u) {
    const auto rec = update_op(spec, st, replay, tracer, log, checks);
    if (out_log != nullptr) out_log->updates.push_back(rec);
  }
}

std::vector<sv::TenantCounters> all_counters(const sv::Server& server) {
  std::vector<sv::TenantCounters> c;
  for (sv::TenantId t = 0; t < server.num_tenants(); ++t) {
    c.push_back(server.counters(t));
  }
  return c;
}

}  // namespace

void run_timed(const ScenarioSpec& spec, double seconds, RunLog& log,
               Checks& checks) {
  PMTE_CHECK(spec.setup_reps >= 1 && spec.build_every >= 1 &&
                 spec.live_session >= 1 && spec.updates_per_round >= 1 &&
                 spec.min_rounds >= 1 && !spec.primary.empty() &&
                 !spec.live.empty(),
             "perfbench: malformed scenario spec");
  std::unique_ptr<State> st;
  for (unsigned rep = 0; rep < spec.setup_reps; ++rep) {
    st.reset();
    const auto t0 = Clock::now();
    st = setup(spec, rep, /*replay=*/false, nullptr, nullptr, checks);
    log.setup_s.push_back(seconds_since(t0));
  }
  log.artefact_hash.push_back(file_hash(spec.work_dir + "/primary.pmte"));
  if (spec.stretch_samples > 0) {
    const auto fp = st->server.tenant_fingerprint(st->primary_ids.front());
    measure_stretch(*st, *st->server.registry().find(fp), log, checks);
  }
  const auto start = Clock::now();
  for (std::size_t r = 0;; ++r) {
    if (r >= spec.min_rounds && seconds_since(start) >= seconds) {
      break;
    }
    round_ops(spec, *st, r, /*replay=*/false, nullptr, nullptr, &log,
              checks);
    log.rounds = r + 1;
    if (log.rounds == 1) log.checkpoint = all_counters(st->server);
  }
  log.final_counters = all_counters(st->server);
}

void run_replay(const ScenarioSpec& spec, std::size_t rounds,
                const RunLog& log, Tracer* tracer, Checks& checks) {
  auto st = setup(spec, spec.setup_reps - 1, /*replay=*/true, tracer, &log,
                  checks);
  for (std::size_t r = 0; r < rounds; ++r) {
    round_ops(spec, *st, r, /*replay=*/true, tracer, &log, nullptr, checks);
  }
  const auto& want =
      rounds == log.rounds ? log.final_counters : log.checkpoint;
  const auto got = all_counters(st->server);
  bool same = want.size() == got.size();
  for (std::size_t t = 0; same && t < got.size(); ++t) {
    same = same_counters(got[t], want[t]) &&
           same_counters(st->replica[t].counters, got[t]);
  }
  checks.expect(same, "TenantCounters / result_hash32 differ between the "
                      "timed pass, the replayed server and the router+kernel "
                      "replay");
}

}  // namespace perfbench
