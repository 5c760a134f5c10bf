#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

// Shared plumbing of the repository benchmark: command-line arguments, the
// result line, order statistics, the thread-budget check and the in-memory
// span trace. Nothing here reaches into the library under test.
namespace perfbench {

/// Monotonic wall clock (steady_clock) in nanoseconds.
std::int64_t now_ns();
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;    ///< where a traced run writes its spans
  bool dump_inputs = false;  ///< print the generated inputs and exit
};

/// Ends a measure loop once its timed operations add up to `seconds`
/// (output checks and other untimed work do not count), or once the wall
/// clock has run four times that long.
class Budget {
 public:
  explicit Budget(double seconds);
  bool more() const;
  /// Count `ns` of timed work.
  void spend(std::int64_t ns) { spent_ns_ += ns; }

 private:
  std::int64_t budget_ns_;
  std::int64_t wall_deadline_ns_;
  std::int64_t spent_ns_ = 0;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The run's outcome: operation counts and measured metric values.
class Result {
 public:
  /// Count one operation; a failed one is logged to stderr with `what`.
  void record(bool ok, const std::string& what);
  void set(const std::string& name, double value) { values_[name] = value; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  /// {"correct", "attempted", "failed", "metrics"} on one line, with one
  /// metric per spec. A spec the run did not set reads 0 when `zero_fill`,
  /// and throws otherwise.
  std::string json(const std::vector<MetricSpec>& specs, bool zero_fill) const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::map<std::string, double> values_;
};

double median(std::vector<double> v);
/// The tail percentile of a run: the highest one that still has at least
/// ten samples above it, capped at p90 (a p99 of a 10 s run on a shared
/// machine measures the machine), and never below the median.
double tail(std::vector<double> v);
double geomean(const std::vector<double>& v);
double sum(const std::vector<double>& v);
/// Arithmetic mean (0 for no samples). Means of a root and its children
/// add up the way the samples do; medians do not.
double mean(const std::vector<double>& v);

/// CPUs this process may run on (its affinity mask, as nproc reports).
int available_cpus();

/// Throw std::runtime_error unless rank threads + async-comm workers + pool
/// workers fit the CPUs. The calling thread is a pool thread; it is the
/// one rank thread of a workload without ranks.
void check_thread_budget(int rank_threads, int comm_workers, int pool_threads);

/// High-water resident set size of this process.
std::int64_t peak_rss_bytes();

/// Seeded splitmix64 stream: the workloads' only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(next() % i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Spans recorded around calls into the library, kept in memory and written
/// once as Chrome trace-event JSON when the run ends.
class Trace {
 public:
  /// Open a span and return its id; `parent` is -1 for a root.
  int begin(const std::string& name, int pid, int tid, std::int64_t start_ns,
            int parent = -1);
  /// Close span `id`. `args` is a JSON object body (without braces).
  void end(int id, std::int64_t end_ns, const std::string& args = "");
  /// Record a complete span and return its id.
  int span(const std::string& name, int pid, int tid, std::int64_t start_ns,
           std::int64_t end_ns, int parent = -1, const std::string& args = "");
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int pid, tid;
    std::int64_t start_ns, end_ns;
    int parent;
    std::string args;
  };
  std::vector<Span> spans_;
};

/// `"key":value` for a span's args.
std::string arg(const std::string& key, double value);

}  // namespace perfbench
