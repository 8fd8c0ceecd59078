// Outside-in tracing for the benchmark's traced runs. The spans are opened
// by the benchmark around its own calls into each layer's public API;
// nothing inside the library carries a timer.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Layer self times and named counters of one traced pass. Spans nest on
/// one thread; a span's self time is its duration minus the durations of
/// the spans opened inside it, booked to the span's layer. Time booked to
/// kReference is work the traced run adds for its own checks: it is
/// neither program time nor a layer's.
class Tracer {
 public:
  static constexpr const char* kReference = "ref";

  void begin(const char* layer) { stack_.push_back({layer, Clock::now(), 0.0}); }

  /// Ends the innermost span and returns its duration. A non-null `layer`
  /// re-labels the span before its self time is booked.
  double end(const char* layer = nullptr) {
    if (stack_.empty()) {
      throw std::logic_error("tracer: end() without an open span");
    }
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double duration = seconds_since(frame.start);
    self_s_[layer != nullptr ? layer : frame.layer] += duration - frame.child_s;
    if (!stack_.empty()) {
      stack_.back().child_s += duration;
    }
    return duration;
  }

  /// Moves booked self time from one layer to another.
  void move_self(const std::string& from, const std::string& to, double seconds) {
    self_s_[from] -= seconds;
    self_s_[to] += seconds;
  }

  void add(const std::string& metric, double amount) { metrics_[metric] += amount; }

  [[nodiscard]] const std::map<std::string, double>& self_s() const { return self_s_; }
  [[nodiscard]] const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  struct Frame {
    const char* layer;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Frame> stack_;
  std::map<std::string, double> self_s_;
  std::map<std::string, double> metrics_;
};

/// A span that ends when it leaves scope, unless close() ended it first.
class Span {
 public:
  Span(Tracer& tracer, const char* layer) : tracer_(tracer) { tracer_.begin(layer); }
  ~Span() {
    if (open_) {
      tracer_.end();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span now and returns its duration (see Tracer::end).
  double close(const char* layer = nullptr) {
    open_ = false;
    return tracer_.end(layer);
  }

 private:
  Tracer& tracer_;
  bool open_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
