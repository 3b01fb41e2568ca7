#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

namespace {
// An open-loop lane waiting for its next op naps kNapNs at a time and
// spins for the last kSpinNs before the op is due.
constexpr std::int64_t kNapNs = 20'000;
constexpr std::int64_t kSpinNs = 100'000;
}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * double(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

double highest_supported_quantile(std::size_t n) {
  double best = 0.0;
  for (const double q : kPercentileLadder)
    if (samples_beyond(n, q) >= 10) best = q;
  return best;
}

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(std::ceil(q * double(sorted.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Summary summarize(std::vector<double> samples, double tail_q) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = nearest_rank(samples, 0.5);
  s.tail_q = tail_q;
  s.tail = nearest_rank(samples, tail_q);
  s.tail_supported = samples_beyond(s.n, tail_q) >= 10;
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double windowed_rate(const std::vector<std::int64_t>& end_ns,
                     std::int64_t span_ns, std::size_t windows) {
  std::vector<double> counts(windows, 0.0);
  for (const std::int64_t t : end_ns)
    if (t >= 0 && t < span_ns)
      counts[static_cast<std::size_t>(t * std::int64_t(windows) / span_ns)] += 1;
  const double window_s = double(span_ns) / double(windows) / 1e9;
  for (double& c : counts) c /= window_s;
  return median(counts);
}

std::size_t PhaseResult::completed() const {
  std::size_t count = 0;
  for (const auto* ops : {&ordered, &shared})
    for (const OpTiming& t : *ops) count += t.started ? 1 : 0;
  return count;
}

std::size_t PhaseResult::unstarted() const {
  return ordered.size() + shared.size() - completed();
}

PhaseResult run_phase(const PhaseSpec& spec, const OpFn& run) {
  PhaseResult result;
  result.ordered.resize(spec.ordered_keys.size());
  result.shared.resize(spec.shared_keys.size());
  std::atomic<std::size_t> next_shared{0};
  std::atomic<bool> abort{false};
  std::mutex error_mu;
  std::exception_ptr error;
  const Clock::time_point start = Clock::now();
  const auto now_ns = [&] { return ns_between(start, Clock::now()); };

  // Runs op i of one queue; false when the phase is over for this lane.
  const auto execute = [&](std::size_t lane, bool ordered, std::size_t i) {
    OpTiming& t = ordered ? result.ordered[i] : result.shared[i];
    const std::int64_t key = ordered ? spec.ordered_keys[i] : spec.shared_keys[i];
    if (spec.open_loop) {
      if (key >= spec.deadline_ns) return false;
      t.due_ns = key;
      // Nap in short slices, then spin through the last stretch: a long
      // sleep lets the host deschedule the idle vCPU, and waking it (or
      // the lane) late would be the harness's delay, not the program's.
      for (std::int64_t now = now_ns(); now < key; now = now_ns()) {
        if (key - now > kSpinNs)
          std::this_thread::sleep_for(std::chrono::nanoseconds(kNapNs));
        else
          std::this_thread::yield();
      }
    }
    const std::int64_t begin = now_ns();
    if (begin >= spec.deadline_ns) return false;
    if (!spec.open_loop) t.due_ns = begin;
    t.start_ns = begin;
    t.started = true;
    run(lane, ordered, i);
    t.end_ns = now_ns();
    return true;
  };

  const auto lane_main = [&](std::size_t lane) {
    try {
      std::size_t w = 0;
      while (!abort.load(std::memory_order_relaxed)) {
        std::size_t i = next_shared.load(std::memory_order_relaxed);
        const bool have_shared = i < spec.shared_keys.size();
        const bool have_ordered = lane == 0 && w < spec.ordered_keys.size();
        if (!have_shared && !have_ordered) return;
        if (have_ordered &&
            (!have_shared || spec.ordered_keys[w] <= spec.shared_keys[i])) {
          if (!execute(lane, true, w)) return;
          ++w;
          continue;
        }
        if (!next_shared.compare_exchange_weak(i, i + 1,
                                               std::memory_order_relaxed))
          continue;
        if (!execute(lane, false, i)) return;
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      abort.store(true);
    }
  };

  {
    std::vector<std::thread> lanes;
    for (std::size_t lane = 1; lane < spec.lanes; ++lane)
      lanes.emplace_back(lane_main, lane);
    lane_main(0);
    for (std::thread& t : lanes) t.join();
  }
  if (error) std::rethrow_exception(error);
  return result;
}

void ramp_cpus(std::size_t threads, double seconds) {
  const Clock::time_point until =
      Clock::now() + std::chrono::nanoseconds(std::int64_t(seconds * 1e9));
  const auto spin = [until] {
    volatile std::uint64_t sink = 0;
    while (Clock::now() < until)
      for (int i = 0; i < 1000; ++i) sink = sink + 1;
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(spin);
  spin();
  for (std::thread& t : pool) t.join();
}

Tracer::Tracer(bool enabled, std::size_t lanes)
    : enabled_(enabled), origin_(Clock::now()), lanes_(lanes) {
  if (enabled_)
    for (auto& lane : lanes_) lane.reserve(1 << 14);
}

std::int32_t Tracer::begin(std::size_t lane, const char* name,
                           std::uint64_t request, std::int32_t parent) {
  if (!enabled_) return -1;
  std::vector<Span>& spans = lanes_[lane];
  const std::int64_t now = ns_between(origin_, Clock::now());
  spans.push_back(Span{name, request, parent, now, now});
  return static_cast<std::int32_t>(spans.size() - 1);
}

void Tracer::end(std::size_t lane, std::int32_t index) {
  if (!enabled_ || index < 0) return;
  lanes_[lane][static_cast<std::size_t>(index)].end_ns =
      ns_between(origin_, Clock::now());
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

  std::vector<double> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (run_hi < lo) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = double(span.end_ns - span.start_ns - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> span_totals(
    const std::vector<std::vector<Span>>& lanes) {
  std::map<std::string, SpanTotals> totals;
  for (const std::vector<Span>& spans : lanes) {
    const std::vector<double> self = self_times_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[spans[i].name];
      ++t.calls;
      t.total_ns += double(spans[i].end_ns - spans[i].start_ns);
      t.self_ns += self[i];
    }
  }
  return totals;
}

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) / 1e6 +
            double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) / 1e6;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.max_rss_mb = double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
  return u;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  for (Entry& e : entries_)
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  entries_.push_back(Entry{name, value, unit});
}

bool Metrics::has(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return true;
  return false;
}

double Metrics::get(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return e.value;
  throw std::runtime_error("no metric " + name);
}

std::string json_number(double value) {
  // Shortest text that reads back as the same double.
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc()) throw std::runtime_error("unprintable metric value");
  return std::string(buf, end);
}

std::string Metrics::lines() const {
  std::string out;
  for (const Entry& e : entries_)
    out += "metric " + e.name + " " + json_number(e.value) + " " + e.unit + "\n";
  return out;
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " +
           json_number(e.value) + ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
