#pragma once
// The benchmark scenario: build → save → map → multi-tenant serve →
// update → republish, as one closed loop of rounds.
//
// Every workload runs the same scenario with its own graph sizes and mix
// (ScenarioSpec), so every end-to-end metric is measured on every
// workload while each workload puts its weight on one layer.  A round is
//
//   build    (every `build_every` rounds) a fresh primary graph drawn from
//            the seed → FrtEnsemble::build → save → load_mapped, then
//            Server::load + stage_swap of the primary tenants, whose
//            traffic is regenerated on the new graph;
//   batches  `batches_per_round` interleaved Server::serve calls, one
//            client, the next batch sent when the previous one returned;
//   updates  `updates_per_round` DynamicEnsemble::update calls on the live
//            graph, each made visible: snapshot → Server::load →
//            stage_swap of the live tenants → the next batch served.  Every
//            `live_session` updates a fresh live graph replaces the old.
//
// Each graph's traffic is generated when the graph arrives, long enough
// for every batch served until the next graph of its side: no query
// stream is replayed, so hot-pair caches see fresh pairs all run long.
//
// Fresh graph instances keep a run's medians from resting on one graph:
// build and update costs depend on the instance at least as much as on
// the machine.
//
// The timed pass (run_timed) measures these ops with no tracer.  The
// replay pass (run_replay) starts from a fresh setup and repeats the same
// ops — with spans around every public call when given a tracer — and
// checks that it reproduces the timed pass exactly: artefact bytes,
// served values, TenantCounters and the UpdateStats sequence.

#include <cstdint>
#include <string>
#include <vector>

#include "driver/spans.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"

namespace perfbench {

struct TenantSpec {
  pmte::serve::WorkloadKind kind = pmte::serve::WorkloadKind::uniform;
  pmte::serve::AggregatePolicy policy = pmte::serve::AggregatePolicy::min;
  std::size_t cache = 0;  ///< hot-pair cache slots; 0 = uncached
};

struct ScenarioSpec {
  std::string family = "gnm";  ///< primary graph (static tenants, builds)
  pmte::Vertex n = 1024;
  pmte::serve::EnsemblePipeline pipeline =
      pmte::serve::EnsemblePipeline::oracle;
  pmte::Vertex live_n = 256;       ///< gnm graph under live updates
  std::vector<TenantSpec> primary;  ///< tenants on the primary ensemble
  std::vector<TenantSpec> live;     ///< tenants on the live snapshots
  std::size_t batch = 4096;         ///< queries per Server::serve call
  unsigned build_every = 1;
  unsigned batches_per_round = 8;
  unsigned updates_per_round = 1;
  unsigned live_session = 16;    ///< updates per live graph (>= 1)
  unsigned stretch_samples = 1;  ///< builds whose stretch is measured
  unsigned setup_reps = 3;       ///< each on its own graph instances
  unsigned min_rounds = 2;
  std::uint64_t seed = 1;
  std::string work_dir = ".";    ///< artefact files go here
};

struct UpdateRecord {
  bool incremental = false;
  std::size_t trees_rebuilt = 0;
  std::uint64_t levels_recomputed = 0;
  std::uint64_t levels_skipped = 0;
  std::uint64_t relaxations = 0;
  double ms = 0.0;  ///< update-to-visible latency (timed pass only)
};

/// What the timed pass measured and what the replay must reproduce.
struct RunLog {
  std::vector<double> setup_s;
  std::vector<double> build_s;  ///< build → save → load_mapped, per build
  std::vector<std::uint64_t> artefact_hash;  ///< per build, build order
  std::vector<double> stretch_weighted;
  std::vector<double> batch_ms;  ///< batches with no epoch flip
  std::vector<double> flip_ms;   ///< first batch after a primary swap
  std::vector<UpdateRecord> updates;
  std::size_t rounds = 0;
  std::vector<pmte::serve::TenantCounters> checkpoint;  ///< after round 1
  std::vector<pmte::serve::TenantCounters> final_counters;
};

/// Checks counted against attempted ops; the first failures are kept.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 16) failures.push_back(what);
    }
  }
};

/// Setup `spec.setup_reps` times (median → setup_s), then run rounds for
/// `seconds` (and at least `min_rounds`) and record every op.
void run_timed(const ScenarioSpec& spec, double seconds, RunLog& log,
               Checks& checks);

/// Fresh setup, then replay the first `rounds` rounds of `log` (1 or all),
/// checking each op against it.  With a tracer, every public call is a
/// span.
void run_replay(const ScenarioSpec& spec, std::size_t rounds,
                const RunLog& log, Tracer* tracer, Checks& checks);

}  // namespace perfbench
