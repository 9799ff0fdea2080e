#pragma once
// In-memory span recorder for the benchmark's traced pass.
//
// The benchmark times each layer from outside: it wraps the calls it makes
// into a layer's public functions in a Span.  A span records its name, its
// start and end (steady_clock, ns since the tracer was created), its
// parent, the op id it shares with every span of the same build, batch or
// update, and a few numeric arguments (logical counts measured at the same
// boundary).  Spans stay in memory and are written as JSON lines once the
// run ends; ledger.py turns that file into the per-layer table.
//
// A Span constructed with a null tracer is inert: no clock reads, no
// allocation — the untraced pass runs the same code without a tracer.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name = nullptr;
    std::uint64_t parent = 0;  ///< 0 = top-level span
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    std::vector<std::pair<const char*, double>> args;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span; a top-level span (parent 0) starts a new op.  Thread-safe:
  /// per-tree spans open concurrently inside the parallel build.
  std::uint64_t open(const char* name, std::uint64_t parent) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    Record r;
    r.name = name;
    r.parent = parent;
    r.op = parent == 0 ? ++ops_ : records_[parent - 1].op;
    r.start_ns = t;
    records_.push_back(std::move(r));
    return records_.size();
  }

  void close(std::uint64_t id,
             std::vector<std::pair<const char*, double>> args) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    records_[id - 1].end_ns = t;
    records_[id - 1].args = std::move(args);
  }

  /// One JSON object per line:
  /// {"id","name","parent","op","start_ns","end_ns","args":{...}}.
  void write_jsonl(std::ostream& os) const {
    const std::lock_guard<std::mutex> lock(mu_);
    os.precision(17);  // counts print as exact integers
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      os << "{\"id\":" << i + 1 << ",\"name\":\"" << r.name
         << "\",\"parent\":" << r.parent << ",\"op\":" << r.op
         << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
         << ",\"args\":{";
      for (std::size_t a = 0; a < r.args.size(); ++a) {
        os << (a ? "," : "") << '"' << r.args[a].first
           << "\":" << r.args[a].second;
      }
      os << "}}\n";
    }
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  // guards records_ and ops_
  std::vector<Record> records_;
  std::uint64_t ops_ = 0;
};

/// RAII span.  `parent` null ⇒ top-level (a new op).  Arguments attach at
/// any point before the span closes.
class Span {
 public:
  Span(Tracer* tracer, const char* name, const Span* parent = nullptr)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->open(name, parent != nullptr ? parent->id_ : 0);
    }
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, double value) {
    if (tracer_ != nullptr) args_.emplace_back(key, value);
  }

  void close() {
    if (tracer_ != nullptr && id_ != 0) {
      tracer_->close(id_, std::move(args_));
      id_ = 0;
    }
  }

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
  std::vector<std::pair<const char*, double>> args_;
};

}  // namespace perfbench
