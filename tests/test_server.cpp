// Many-tenant server determinism: registry identity, shard routing vs
// direct per-tenant replay, 1/2/8-thread bit-identity of the full
// interleaved scenario, and the epoch hot-swap contract — a swap staged at
// batch boundary B is equivalent to serially replaying the tenant's stream
// split at B (fresh cache per epoch), and drained epochs retire from the
// registry.
//
// The suite carries the `tsan-par` CTest label: the ThreadSanitizer CI job
// runs it at 8 threads, so the parallel shard execution phase (concurrent
// query_batch over disjoint tenant shards and caches) doubles as a race
// detector workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/parallel/parallel.hpp"
#include "src/serve/dynamic_ensemble.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"

namespace pmte {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

Graph test_graph() {
  Rng rng(4242);
  return make_gnm(384, 1600, {1.0, 9.0}, rng);
}

serve::EnsembleOptions ensemble_options() {
  serve::EnsembleOptions opts;
  opts.trees = 4;
  opts.pipeline = serve::EnsemblePipeline::direct;
  return opts;
}

::testing::AssertionResult bits_equal(const std::vector<Weight>& a,
                                      const std::vector<Weight>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(Weight)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(Weight)) != 0) {
        return ::testing::AssertionFailure()
               << "first bit difference at index " << i << ": " << a[i]
               << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Field-by-field equality of two tenants' cumulative counters.
::testing::AssertionResult same_counters(const serve::TenantCounters& a,
                                         const serve::TenantCounters& b) {
  const std::uint64_t fa[] = {a.batches,          a.pairs,
                              a.tree_lookups,     a.lca_probes,
                              a.cache_hits,       a.cache_misses,
                              a.cache_admissions, a.cache_conflicts,
                              a.epoch,            a.result_hash64};
  const std::uint64_t fb[] = {b.batches,          b.pairs,
                              b.tree_lookups,     b.lca_probes,
                              b.cache_hits,       b.cache_misses,
                              b.cache_admissions, b.cache_conflicts,
                              b.epoch,            b.result_hash64};
  for (std::size_t i = 0; i < std::size(fa); ++i) {
    if (fa[i] != fb[i]) {
      return ::testing::AssertionFailure()
             << "counter field " << i << ": " << fa[i] << " vs " << fb[i];
    }
  }
  return ::testing::AssertionSuccess();
}

class ThreadGuard {
 public:
  ThreadGuard() : saved_(num_threads()) {}
  ~ThreadGuard() { set_num_threads(saved_); }

 private:
  int saved_;
};

/// The four-tenant mixed stream every scenario test serves: alternating
/// zipf/uniform shapes, matching what serve_queries --tenants generates.
std::vector<serve::TenantStreamSpec> test_specs(std::size_t tenants,
                                                std::size_t per_tenant) {
  std::vector<serve::TenantStreamSpec> specs(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    specs[t].kind = (t % 2 == 0) ? serve::WorkloadKind::zipf
                                 : serve::WorkloadKind::uniform;
    specs[t].opts.pairs = per_tenant;
    specs[t].opts.zipf_s = 1.2;
  }
  return specs;
}

/// Tenant t's subsequence of an interleaved stream, as query_batch input.
std::vector<std::pair<Vertex, Vertex>> subsequence(
    const std::vector<serve::TenantQuery>& stream, serve::TenantId t) {
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (const auto& q : stream) {
    if (q.tenant == t) pairs.emplace_back(q.u, q.v);
  }
  return pairs;
}

/// Tenant t's served values, extracted from interleaved batch order.
std::vector<Weight> extract(const std::vector<serve::TenantQuery>& stream,
                            const std::vector<Weight>& out,
                            serve::TenantId t) {
  std::vector<Weight> values;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].tenant == t) values.push_back(out[i]);
  }
  return values;
}

TEST(Server, RegistryFingerprintIsHostIndependentValue) {
  // The fingerprint packs the 8 magic bytes explicitly little-endian
  // (byte i into bits 8i) — never via a native-order memcpy, which would
  // make the same artefact fingerprint differently on big-endian hosts.
  // The pinned literal is the ground truth for 'PMTEENS1' + the v3 header
  // words; it changes exactly when kFormatVersion does (the version is
  // folded in), so a format bump re-pins it deliberately.
  EXPECT_EQ(serve::registry_fingerprint(serve::kEnsembleMagic,
                                        0xfeedfacecafebeefULL,
                                        0x0123456789abcdefULL, 4),
            0x4957d7613a1797a8ULL);
}

TEST(Server, RegistryFingerprintIsContentIdentity) {
  const auto g = test_graph();
  const auto e = serve::FrtEnsemble::build(g, 99, ensemble_options());

  // save→load round-trips fingerprint identically: the fingerprint is a
  // function of the serialized identity, not of which process built it.
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  e.save(buf);
  const auto reloaded = serve::FrtEnsemble::load(buf);
  EXPECT_EQ(e.registry_fingerprint(), reloaded.registry_fingerprint());

  // Any identity word moving changes the fingerprint.
  auto other_seed = serve::FrtEnsemble::build(g, 100, ensemble_options());
  EXPECT_NE(e.registry_fingerprint(), other_seed.registry_fingerprint());
  auto fewer = ensemble_options();
  fewer.trees = 2;
  const auto other_trees = serve::FrtEnsemble::build(g, 99, fewer);
  EXPECT_NE(e.registry_fingerprint(), other_trees.registry_fingerprint());

  serve::EnsembleRegistry registry;
  const auto fp = registry.add(serve::FrtEnsemble::build(g, 99, ensemble_options()));
  EXPECT_EQ(fp, e.registry_fingerprint());
  EXPECT_TRUE(registry.contains(fp));
  EXPECT_NE(registry.find(fp), nullptr);
  // Idempotent for equal content (fresh build and round-trip alike).
  buf.clear();
  buf.seekg(0);
  EXPECT_EQ(registry.add(serve::FrtEnsemble::load(buf)), fp);
  EXPECT_EQ(registry.size(), 1u);
  registry.add(std::move(other_seed));
  EXPECT_EQ(registry.size(), 2u);
  const auto fps = registry.fingerprints();
  ASSERT_EQ(fps.size(), 2u);
  EXPECT_LT(fps[0], fps[1]);
}

TEST(Server, RoutedShardsMatchDirectPerTenantReplay) {
  const auto g = test_graph();
  ThreadGuard guard;
  set_num_threads(1);
  const auto e = serve::FrtEnsemble::build(g, 171, ensemble_options());

  constexpr std::size_t kTenants = 4;
  const auto specs = test_specs(kTenants, 1500);
  const auto stream = serve::make_multi_tenant_workload(g, specs, 171);

  serve::Server server;
  const auto fp = server.load(serve::FrtEnsemble::build(g, 171, ensemble_options()));
  for (std::size_t t = 0; t < kTenants; ++t) {
    serve::TenantConfig cfg;
    cfg.ensemble = fp;
    cfg.policy = (t % 2 == 0) ? serve::AggregatePolicy::min
                              : serve::AggregatePolicy::median;
    cfg.cache_capacity = 512;
    server.add_tenant(cfg);
  }
  std::vector<Weight> out;
  server.serve(stream, out);
  ASSERT_EQ(out.size(), stream.size());

  // Each tenant's interleaved slice must equal a direct serial replay of
  // its subsequence against the same ensemble with its own fresh cache —
  // the router adds nothing and loses nothing.
  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto tid = static_cast<serve::TenantId>(t);
    const auto pairs = subsequence(stream, tid);
    serve::HotPairCache cache(512);
    std::vector<Weight> direct;
    const auto stats = e.query_batch(
        pairs, server.tenant_config(tid).policy, direct, &cache);
    EXPECT_TRUE(bits_equal(extract(stream, out, tid), direct))
        << "tenant " << t;
    const auto& c = server.counters(tid);
    EXPECT_EQ(c.pairs, stats.pairs) << t;
    EXPECT_EQ(c.tree_lookups, stats.tree_lookups) << t;
    EXPECT_EQ(c.lca_probes, stats.lca_probes) << t;
    EXPECT_EQ(c.cache_hits, stats.cache_hits) << t;
    EXPECT_EQ(c.cache_misses, stats.cache_misses) << t;
    EXPECT_EQ(c.batches, 1u) << t;
    EXPECT_EQ(c.epoch, 0u) << t;
  }
}

/// Full scenario driver: `tenants` streams over ensemble A, served in
/// `batches` equal chunks, tenant 0 hot-swapped to ensemble B at the start
/// of batch `swap_at`.  Returns the concatenated interleaved outputs and
/// the final per-tenant counters.
struct ScenarioResult {
  std::vector<Weight> out;
  std::vector<serve::TenantCounters> counters;
  std::size_t registry_size = 0;
  std::uint64_t retired = 0;
};

ScenarioResult run_scenario(const Graph& g,
                            const std::vector<serve::TenantQuery>& stream,
                            std::size_t tenants, std::size_t batches,
                            std::size_t swap_at) {
  serve::Server server;
  const auto fp_a =
      server.load(serve::FrtEnsemble::build(g, 300, ensemble_options()));
  const auto fp_b =
      server.load(serve::FrtEnsemble::build(g, 301, ensemble_options()));
  for (std::size_t t = 0; t < tenants; ++t) {
    serve::TenantConfig cfg;
    cfg.ensemble = fp_a;
    cfg.policy = (t % 2 == 0) ? serve::AggregatePolicy::min
                              : serve::AggregatePolicy::median;
    cfg.cache_capacity = 512;
    server.add_tenant(cfg);
  }
  ScenarioResult r;
  std::vector<Weight> out;
  for (std::size_t b = 0; b < batches; ++b) {
    if (b == swap_at) server.stage_swap(0, fp_b);
    const std::size_t lo = stream.size() * b / batches;
    const std::size_t hi = stream.size() * (b + 1) / batches;
    server.serve(std::span(stream).subspan(lo, hi - lo), out);
    r.out.insert(r.out.end(), out.begin(), out.end());
  }
  for (std::size_t t = 0; t < tenants; ++t) {
    r.counters.push_back(server.counters(static_cast<serve::TenantId>(t)));
  }
  r.registry_size = server.registry().size();
  r.retired = server.epochs_retired();
  return r;
}

TEST(Server, ScenarioBitIdenticalAcrossThreadCounts) {
  const auto g = test_graph();
  constexpr std::size_t kTenants = 4, kBatches = 6, kSwapAt = 3;
  const auto stream =
      serve::make_multi_tenant_workload(g, test_specs(kTenants, 1500), 300);

  ThreadGuard guard;
  set_num_threads(1);
  const auto reference = run_scenario(g, stream, kTenants, kBatches, kSwapAt);
  for (int threads : kThreadCounts) {
    set_num_threads(threads);
    const auto r = run_scenario(g, stream, kTenants, kBatches, kSwapAt);
    EXPECT_TRUE(bits_equal(reference.out, r.out)) << threads << " threads";
    ASSERT_EQ(r.counters.size(), reference.counters.size());
    for (std::size_t t = 0; t < kTenants; ++t) {
      EXPECT_TRUE(same_counters(reference.counters[t], r.counters[t]))
          << "tenant " << t << ", " << threads << " threads";
    }
    EXPECT_EQ(r.registry_size, reference.registry_size);
    EXPECT_EQ(r.retired, reference.retired);
  }
  // The swap actually happened for tenant 0 only.
  EXPECT_EQ(reference.counters[0].epoch, 1u);
  EXPECT_EQ(reference.counters[1].epoch, 0u);
}

TEST(Server, OutOfRangeVertexFailsTheBatchAlikeAtAnyThreadCount) {
  // One tenant's out-of-range vertex must raise the same catchable error
  // at every thread count — checked serially while routing, never thrown
  // from inside the parallel shard region (which would terminate the
  // process) — and leave every tenant's state as if the batch never came.
  const auto g = test_graph();
  const auto e = serve::FrtEnsemble::build(g, 99, ensemble_options());
  const auto setup = [&](serve::Server& server) {
    serve::TenantConfig cfg;
    cfg.ensemble = server.load(e);
    cfg.cache_capacity = 256;
    server.add_tenant(cfg);
    cfg.policy = serve::AggregatePolicy::median;
    server.add_tenant(cfg);
  };
  const auto good =
      serve::make_multi_tenant_workload(g, test_specs(2, 1000), 71);
  auto bad = good;
  bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(bad.size() / 2),
             serve::TenantQuery{1, 5, 9999});
  const auto next =
      serve::make_multi_tenant_workload(g, test_specs(2, 500), 72);

  ThreadGuard guard;
  std::string first_message;
  for (const int threads : {1, 2, 4, 8}) {
    set_num_threads(threads);
    serve::Server server, clean;
    setup(server);
    setup(clean);
    std::vector<Weight> out, out_clean;
    server.serve(good, out);
    clean.serve(good, out_clean);
    const auto before0 = server.counters(0);
    const auto before1 = server.counters(1);

    std::string message;
    try {
      server.serve(bad, out);
    } catch (const std::logic_error& ex) {
      message = ex.what();
    }
    EXPECT_NE(message.find("vertex out of range"), std::string::npos)
        << threads << " threads: '" << message << "'";
    if (first_message.empty()) first_message = message;
    EXPECT_EQ(message, first_message) << threads << " threads";
    EXPECT_TRUE(same_counters(server.counters(0), before0)) << threads;
    EXPECT_TRUE(same_counters(server.counters(1), before1)) << threads;

    // The next valid batch serves exactly what a server that never saw
    // the bad batch serves (caches included).
    server.serve(next, out);
    clean.serve(next, out_clean);
    EXPECT_TRUE(bits_equal(out, out_clean)) << threads << " threads";
    for (serve::TenantId t = 0; t < 2; ++t) {
      EXPECT_TRUE(same_counters(server.counters(t), clean.counters(t)))
          << "tenant " << t << ", " << threads << " threads";
    }
  }
}

TEST(Server, SwapEqualsSerialReplaySplitAtSwapPoint) {
  const auto g = test_graph();
  ThreadGuard guard;
  set_num_threads(1);
  const auto e_old = serve::FrtEnsemble::build(g, 300, ensemble_options());
  const auto e_new = serve::FrtEnsemble::build(g, 301, ensemble_options());

  constexpr std::size_t kTenants = 4, kBatches = 6, kSwapAt = 3;
  const auto stream =
      serve::make_multi_tenant_workload(g, test_specs(kTenants, 1500), 300);
  const auto scenario = run_scenario(g, stream, kTenants, kBatches, kSwapAt);

  // Tenant 0's served values across the whole scenario, in stream order.
  std::vector<Weight> served;
  std::size_t consumed = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t lo = stream.size() * b / kBatches;
    const std::size_t hi = stream.size() * (b + 1) / kBatches;
    for (std::size_t i = lo; i < hi; ++i) {
      if (stream[i].tenant == 0) served.push_back(scenario.out[consumed + i - lo]);
    }
    consumed += hi - lo;
  }

  // Serial replay split at the swap boundary: old epoch (fresh cache) for
  // queries before batch kSwapAt, new epoch (fresh cache) after.
  const std::size_t split = stream.size() * kSwapAt / kBatches;
  std::vector<std::pair<Vertex, Vertex>> before, after;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].tenant != 0) continue;
    (i < split ? before : after).emplace_back(stream[i].u, stream[i].v);
  }
  std::vector<Weight> replay, part;
  serve::HotPairCache cache_old(512);
  const auto s_before = e_old.query_batch(before, serve::AggregatePolicy::min,
                                          part, &cache_old);
  replay.insert(replay.end(), part.begin(), part.end());
  serve::HotPairCache cache_new(512);
  const auto s_after = e_new.query_batch(after, serve::AggregatePolicy::min,
                                         part, &cache_new);
  replay.insert(replay.end(), part.begin(), part.end());

  EXPECT_TRUE(bits_equal(served, replay));
  const auto& c = scenario.counters[0];
  EXPECT_EQ(c.pairs, s_before.pairs + s_after.pairs);
  EXPECT_EQ(c.tree_lookups, s_before.tree_lookups + s_after.tree_lookups);
  EXPECT_EQ(c.lca_probes, s_before.lca_probes + s_after.lca_probes);
  EXPECT_EQ(c.cache_hits, s_before.cache_hits + s_after.cache_hits);
  EXPECT_EQ(c.cache_misses, s_before.cache_misses + s_after.cache_misses);
  // The admission/conflict ledger is cumulative across the swap: the flip
  // resets the *cache* (and its own stats), but every batch folds its
  // BatchStats into TenantCounters first, so the pre-swap share survives.
  // Both epochs must have admitted entries for this to prove anything —
  // a ledger zeroed at the flip would report only the s_after share.
  EXPECT_EQ(c.cache_admissions,
            s_before.cache_admissions + s_after.cache_admissions);
  EXPECT_EQ(c.cache_conflicts,
            s_before.cache_conflicts + s_after.cache_conflicts);
  EXPECT_GT(s_before.cache_admissions, 0u);
  EXPECT_GT(s_after.cache_admissions, 0u);
  EXPECT_EQ(c.cache_misses, c.cache_admissions + c.cache_conflicts);
  EXPECT_EQ(c.epoch, 1u);
}

TEST(Server, UpdateTriggeredSwapPreservesCounterLedger) {
  // Regression for the HotPairCache::clear() + epoch-swap interaction when
  // the new epoch comes from DynamicEnsemble::update → snapshot() rather
  // than a static rebuild: the flip clears the tenant's cache (and the
  // cache's own stats), but TenantCounters is a fold of per-batch
  // BatchStats, so the pre-swap admissions/conflicts share must survive
  // the update-triggered republish.  Pinned against a serial replay split
  // at the swap boundary, old snapshot before, updated snapshot after.
  Rng graph_rng(515151);
  const auto g = make_gnm(160, 640, {1.0, 9.0}, graph_rng);
  ThreadGuard guard;
  set_num_threads(1);

  serve::EnsembleOptions opts;
  opts.trees = 3;
  opts.pipeline = serve::EnsemblePipeline::oracle;
  serve::DynamicEnsemble dyn(g, 515, opts);
  const auto snap_old = dyn.snapshot();

  constexpr std::size_t kTenants = 2, kBatches = 6, kSwapAt = 3;
  const auto stream =
      serve::make_multi_tenant_workload(g, test_specs(kTenants, 1200), 515);
  const std::size_t split = stream.size() * kSwapAt / kBatches;

  serve::Server server;
  const auto fp_old = server.load(snap_old);
  for (std::size_t t = 0; t < kTenants; ++t) {
    serve::TenantConfig cfg;
    cfg.ensemble = fp_old;
    cfg.policy = serve::AggregatePolicy::min;
    cfg.cache_capacity = 512;
    server.add_tenant(cfg);
  }
  std::vector<Weight> scenario_out, out;
  std::uint64_t fp_new = fp_old;
  for (std::size_t b = 0; b < kBatches; ++b) {
    if (b == kSwapAt) {
      // The mid-sequence weight change that forces the republish.
      const auto e = g.edge_list()[11];  // copy: edge_list() is a temporary
      const auto stats =
          dyn.update(e.u, e.v, g.edge_weight(e.u, e.v) * 0.5);
      EXPECT_TRUE(stats.incremental);
      fp_new = server.load(dyn.snapshot());
      ASSERT_NE(fp_new, fp_old) << "update must change the fingerprint";
      server.stage_swap(0, fp_new);
    }
    const std::size_t lo = stream.size() * b / kBatches;
    const std::size_t hi = stream.size() * (b + 1) / kBatches;
    server.serve(std::span(stream).subspan(lo, hi - lo), out);
    scenario_out.insert(scenario_out.end(), out.begin(), out.end());
  }
  const auto c = server.counters(0);

  // Tenant 0's served values in stream order.
  const auto served = extract(stream, scenario_out, 0);
  const auto snap_new = dyn.snapshot();
  std::vector<std::pair<Vertex, Vertex>> before, after;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].tenant != 0) continue;
    (i < split ? before : after).emplace_back(stream[i].u, stream[i].v);
  }
  std::vector<Weight> replay, part;
  serve::HotPairCache cache_old(512);
  const auto s_before = snap_old.query_batch(
      before, serve::AggregatePolicy::min, part, &cache_old);
  replay.insert(replay.end(), part.begin(), part.end());
  serve::HotPairCache cache_new(512);
  const auto s_after = snap_new.query_batch(
      after, serve::AggregatePolicy::min, part, &cache_new);
  replay.insert(replay.end(), part.begin(), part.end());

  EXPECT_TRUE(bits_equal(served, replay));
  EXPECT_EQ(c.pairs, s_before.pairs + s_after.pairs);
  EXPECT_EQ(c.cache_hits, s_before.cache_hits + s_after.cache_hits);
  EXPECT_EQ(c.cache_misses, s_before.cache_misses + s_after.cache_misses);
  EXPECT_EQ(c.cache_admissions,
            s_before.cache_admissions + s_after.cache_admissions);
  EXPECT_EQ(c.cache_conflicts,
            s_before.cache_conflicts + s_after.cache_conflicts);
  // Both epochs must have admitted entries, or additivity proves nothing.
  EXPECT_GT(s_before.cache_admissions, 0u);
  EXPECT_GT(s_after.cache_admissions, 0u);
  EXPECT_EQ(c.cache_misses, c.cache_admissions + c.cache_conflicts);
  EXPECT_EQ(c.epoch, 1u);
}

TEST(Server, DrainedEpochsRetireFromRegistry) {
  const auto g = test_graph();
  ThreadGuard guard;
  set_num_threads(1);

  serve::Server server;
  const auto fp_a =
      server.load(serve::FrtEnsemble::build(g, 400, ensemble_options()));
  const auto fp_b =
      server.load(serve::FrtEnsemble::build(g, 401, ensemble_options()));
  serve::TenantConfig cfg;
  cfg.ensemble = fp_a;
  cfg.cache_capacity = 64;
  const auto t0 = server.add_tenant(cfg);
  const auto t1 = server.add_tenant(cfg);

  const auto stream =
      serve::make_multi_tenant_workload(g, test_specs(2, 200), 400);
  std::vector<Weight> out;
  server.serve(stream, out);
  EXPECT_EQ(server.registry().size(), 2u);

  // t0 flips to B; A is still served by t1, so nothing retires.
  server.stage_swap(t0, fp_b);
  EXPECT_TRUE(server.swap_pending(t0));
  server.serve(stream, out);
  EXPECT_FALSE(server.swap_pending(t0));
  EXPECT_EQ(server.tenant_fingerprint(t0), fp_b);
  EXPECT_EQ(server.tenant_fingerprint(t1), fp_a);
  EXPECT_EQ(server.registry().size(), 2u);
  EXPECT_EQ(server.epochs_retired(), 0u);
  EXPECT_EQ(server.counters(t0).epoch, 1u);

  // t1 flips too; A drains and retires from the registry.
  server.stage_swap(t1, fp_b);
  server.serve(stream, out);
  EXPECT_EQ(server.tenant_fingerprint(t1), fp_b);
  EXPECT_EQ(server.registry().size(), 1u);
  EXPECT_FALSE(server.registry().contains(fp_a));
  EXPECT_EQ(server.epochs_retired(), 1u);

  // Re-staging the *current* fingerprint is a cache/epoch reset, not a
  // registry event.
  server.stage_swap(t0, fp_b);
  server.serve(stream, out);
  EXPECT_EQ(server.counters(t0).epoch, 2u);
  EXPECT_EQ(server.registry().size(), 1u);
  EXPECT_EQ(server.epochs_retired(), 1u);
}

TEST(Server, MultiTenantWorkloadIsDeterministicAndOrderPreserving) {
  const auto g = test_graph();
  const auto specs = test_specs(3, 500);
  const auto a = serve::make_multi_tenant_workload(g, specs, 7);
  const auto b = serve::make_multi_tenant_workload(g, specs, 7);
  ASSERT_EQ(a.size(), 1500u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].v, b[i].v);
  }
  // Every tenant's subsequence equals its standalone stream: the
  // interleaving permutes positions, never queries.
  for (serve::TenantId t = 0; t < 3; ++t) {
    Rng rng(split_seed(7, serve::kTenantWorkloadStreamBase + t));
    const auto standalone = serve::make_workload(g, specs[t].kind,
                                                 specs[t].opts, rng);
    EXPECT_EQ(subsequence(a, t), standalone) << "tenant " << t;
  }
  // A different seed moves the interleaving.
  const auto c = serve::make_multi_tenant_workload(g, specs, 8);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_differs |= a[i].tenant != c[i].tenant;
  }
  EXPECT_TRUE(any_differs);
}

}  // namespace
}  // namespace pmte
