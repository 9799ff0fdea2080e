// perfbench_driver — runs one benchmark workload (a ScenarioSpec given as
// flags) and writes its raw samples, counters and checks as JSON.
//
//   perfbench_driver --family=geometric --n=512 --pipeline=oracle ...
//                    --seconds=20 --seed=7 --trace=0|1
//                    --out=result.json [--spans=spans.jsonl]
//
// --trace=0: setup ×setup_reps, the timed pass for --seconds, then a
//            replay of the first round as a check.
// --trace=1: the timed pass for half of --seconds, then a traced replay of
//            every round it ran; spans go to --spans.
// run.py picks the flags per workload, pins the thread count through
// OMP_NUM_THREADS and turns this output into metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/scenario.hpp"
#include "src/obs/obs.hpp"
#include "src/parallel/parallel.hpp"
#include "src/util/cli.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using namespace perfbench;
namespace sv = pmte::serve;

/// "zipf:min:65536,uniform:median:0" → tenant specs.
std::vector<TenantSpec> parse_tenants(const std::string& list) {
  std::vector<TenantSpec> out;
  std::stringstream items(list);
  std::string item;
  while (std::getline(items, item, ',')) {
    std::stringstream fields(item);
    std::string kind;
    std::string policy;
    std::string cache;
    std::getline(fields, kind, ':');
    std::getline(fields, policy, ':');
    std::getline(fields, cache, ':');
    TenantSpec t;
    t.kind = sv::parse_workload(kind);
    t.policy = sv::parse_policy(policy);
    t.cache = static_cast<std::size_t>(std::stoull(cache.empty() ? "0" : cache));
    out.push_back(t);
  }
  return out;
}

sv::EnsemblePipeline parse_pipeline(const std::string& name) {
  if (name == "oracle") return sv::EnsemblePipeline::oracle;
  if (name == "sequential") return sv::EnsemblePipeline::sequential;
  throw std::invalid_argument("unknown pipeline " + name);
}

template <class T>
void write_array(std::ostream& os, const char* key, const std::vector<T>& v) {
  os << "\"" << key << "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << "]";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" || PERFBENCH_SANITIZED) {
    std::cerr << "perfbench: refusing to time a " << build_type
              << (PERFBENCH_SANITIZED ? " sanitizer" : "")
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  try {
    const pmte::Cli cli(argc, argv);
    ScenarioSpec spec;
    spec.family = cli.get("family", spec.family);
    spec.n = static_cast<pmte::Vertex>(cli.get_int("n", spec.n));
    spec.pipeline = parse_pipeline(cli.get("pipeline", "oracle"));
    spec.live_n = static_cast<pmte::Vertex>(cli.get_int("live-n", spec.live_n));
    spec.primary = parse_tenants(cli.get("tenants", "zipf:min:65536"));
    spec.live = parse_tenants(cli.get("live-tenants", "uniform:median:0"));
    spec.batch = static_cast<std::size_t>(cli.get_int("batch", 4096));
    spec.build_every = static_cast<unsigned>(cli.get_int("build-every", 1));
    spec.batches_per_round =
        static_cast<unsigned>(cli.get_int("batches-per-round", 8));
    spec.updates_per_round =
        static_cast<unsigned>(cli.get_int("updates-per-round", 1));
    spec.live_session =
        static_cast<unsigned>(cli.get_int("live-session", 16));
    spec.stretch_samples =
        static_cast<unsigned>(cli.get_int("stretch-samples", 1));
    spec.setup_reps = static_cast<unsigned>(cli.get_int("setup-reps", 3));
    spec.min_rounds = static_cast<unsigned>(cli.get_int("min-rounds", 2));
    spec.seed = cli.seed(1);
    spec.work_dir = cli.get("work-dir", ".");
    const double seconds = cli.get_double("seconds", 10.0);
    const bool trace = cli.get_int("trace", 0) != 0;
    const std::string out_path = cli.get("out", "result.json");
    const std::string spans_path = cli.get("spans", "spans.jsonl");

    pmte::obs::configure({});  // the library's own telemetry stays off

    RunLog log;
    Checks checks;
    run_timed(spec, trace ? seconds / 2 : seconds, log, checks);
    Tracer tracer;
    const std::size_t replayed = trace ? log.rounds : 1;
    run_replay(spec, replayed, log, trace ? &tracer : nullptr, checks);
    if (trace) {
      std::ofstream spans(spans_path);
      tracer.write_jsonl(spans);
    }

    std::ofstream os(out_path);
    os.precision(17);
    os << "{\"meta\":{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"threads\":" << pmte::num_threads()
       << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
       << ",\"build_type\":" << json_string(build_type)
       << ",\"pmte_obs\":" << PMTE_OBS << ",\"obs_runtime\":\"off\"},";
    os << "\"attempted\":" << checks.attempted
       << ",\"failed\":" << checks.failed << ",\"failures\":[";
    for (std::size_t i = 0; i < checks.failures.size(); ++i) {
      os << (i ? "," : "") << json_string(checks.failures[i]);
    }
    os << "],\"rounds\":" << log.rounds << ",\"replayed_rounds\":" << replayed
       << ",";
    write_array(os, "setup_s", log.setup_s);
    os << ",";
    write_array(os, "build_s", log.build_s);
    os << ",";
    write_array(os, "stretch_weighted", log.stretch_weighted);
    os << ",";
    write_array(os, "batch_ms", log.batch_ms);
    os << ",";
    write_array(os, "flip_ms", log.flip_ms);
    os << ",\"updates\":[";
    for (std::size_t i = 0; i < log.updates.size(); ++i) {
      const auto& u = log.updates[i];
      os << (i ? "," : "") << "{\"ms\":" << u.ms
         << ",\"incremental\":" << (u.incremental ? "true" : "false")
         << ",\"trees_rebuilt\":" << u.trees_rebuilt
         << ",\"relaxations\":" << u.relaxations << "}";
    }
    os << "],\"peak_rss_mb\":" << peak_rss_mb() << "}\n";
    return os.good() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
