#pragma once

// Measurement harness of the end-to-end benchmark: the percentile rule,
// the open-loop/closed-loop lane runner, in-memory spans with self-time
// accounting, process resource usage, and the metric sink that prints the
// result line. Nothing here knows about the library under test.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---------------------------------------------------------------- percentiles

/// Quantiles a timing may be reported at, lowest first.
inline constexpr double kPercentileLadder[] = {0.50, 0.75, 0.90, 0.95,
                                               0.99, 0.995, 0.999};

/// Samples ranked strictly above the nearest-rank q-quantile of n samples:
/// n - ceil(q * n).
std::size_t samples_beyond(std::size_t n, double q);

/// The highest ladder quantile with at least ten samples beyond it; 0 when
/// even the median lacks that support (fewer than 20 samples).
double highest_supported_quantile(std::size_t n);

/// Nearest-rank quantile of an ascending sample: the ceil(q * n)-th value.
double nearest_rank(const std::vector<double>& sorted, double q);

/// Median plus a named tail quantile of one latency sample.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
  bool tail_supported = false;  ///< >= 10 samples beyond the tail quantile
};
Summary summarize(std::vector<double> samples, double tail_q);

/// Median of a small sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

/// Median over `windows` equal windows of [0, span_ns) of completions per
/// second, counting each completion in the window its end time falls in.
double windowed_rate(const std::vector<std::int64_t>& end_ns,
                     std::int64_t span_ns, std::size_t windows);

// ---------------------------------------------------------------- lane runner

/// When one scheduled op ran. `due_ns` is its scheduled start relative to
/// the phase start (open loop) or its claim time (closed loop).
struct OpTiming {
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool started = false;
  /// Latency as the user sees it: from the scheduled time to completion,
  /// so a stall also counts against every op queued behind it.
  double latency_us() const { return double(end_ns - due_ns) / 1e3; }
  double wait_us() const { return double(start_ns - due_ns) / 1e3; }
};

/// One phase over two op queues. `ordered` ops run on lane 0 only, in
/// order (the writer lane); `shared` ops are claimed by every lane. Lane 0
/// takes whichever head is due first, so writer ops keep their trace
/// position among the reads.
///
/// Open loop: keys are due times in ns from the phase start; a lane that
/// claims an op early sleeps until it is due. There is no generator
/// thread: the schedule comes from the lanes themselves. Ops not started
/// by `deadline_ns` stay unstarted and count as failed.
///
/// Closed loop: keys are trace positions only; every lane runs back to
/// back with no think time and stops claiming at `deadline_ns`. An op's
/// due time is its claim time.
struct PhaseSpec {
  bool open_loop = true;
  std::size_t lanes = 1;
  std::vector<std::int64_t> ordered_keys;  ///< ascending
  std::vector<std::int64_t> shared_keys;   ///< ascending
  std::int64_t deadline_ns = 0;
};

struct PhaseResult {
  std::vector<OpTiming> ordered;
  std::vector<OpTiming> shared;
  std::size_t completed() const;
  std::size_t unstarted() const;
};

/// run(lane, is_ordered, index) executes one op. Exceptions propagate
/// after every lane has joined.
using OpFn = std::function<void(std::size_t lane, bool ordered,
                                 std::size_t index)>;
PhaseResult run_phase(const PhaseSpec& spec, const OpFn& run);

/// Keep `threads` threads busy for `seconds`. Virtualized hosts clock idle
/// vCPUs down: after a few seconds idle, the first second of load runs
/// several times slower. Ramping first keeps that out of every timing.
void ramp_cpus(std::size_t threads, double seconds);

// ---------------------------------------------------------------- spans

/// One traced call: name (static string), request id, parent span index in
/// the same lane buffer (-1 for a root), and start/end in ns from the
/// tracer's origin.
struct Span {
  const char* name = nullptr;
  std::uint64_t request = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-lane in-memory span buffers; disabled tracers record nothing and
/// cost one branch per call. Each lane writes only its own buffer.
class Tracer {
 public:
  Tracer(bool enabled, std::size_t lanes);

  /// Open a span; returns its index (or -1 when disabled).
  std::int32_t begin(std::size_t lane, const char* name, std::uint64_t request,
                     std::int32_t parent);
  void end(std::size_t lane, std::int32_t index);

  const std::vector<std::vector<Span>>& lanes() const { return lanes_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<std::vector<Span>> lanes_;
};

/// RAII span on one lane.
class Scope {
 public:
  Scope(Tracer& tracer, std::size_t lane, const char* name,
        std::uint64_t request, std::int32_t parent = -1)
      : tracer_(tracer), lane_(lane),
        index_(tracer.begin(lane, name, request, parent)) {}
  ~Scope() { tracer_.end(lane_, index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::size_t lane_;
  std::int32_t index_;
};

struct SpanTotals {
  std::size_t calls = 0;
  double total_ns = 0.0;  ///< summed durations
  double self_ns = 0.0;   ///< durations minus the time children cover
};

/// Self time of every span of one lane buffer: its duration minus the
/// measure of the union of its children's intervals clipped to it.
std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Per-name call counts, total and self time over every lane.
std::map<std::string, SpanTotals> span_totals(
    const std::vector<std::vector<Span>>& lanes);

// ---------------------------------------------------------------- resources

struct Usage {
  double cpu_s = 0.0;  ///< user + system, all threads of the process
  long ctx_switches = 0;
  double max_rss_mb = 0.0;
};
Usage process_usage();

// ---------------------------------------------------------------- results

/// Ordered metric sink. Values keep every digit they were measured with.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  /// Human-readable "metric <name> <value> <unit>" lines, one per metric.
  std::string lines() const;
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string json_number(double value);

}  // namespace perfbench
