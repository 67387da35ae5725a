// The benchmark's own span recorder.
//
// Spans are recorded around calls into the program's public entry points,
// from the benchmark's files only (nothing inside libnlarm is touched). Each
// recording thread owns one SpanBuffer, so recording takes no lock; the
// buffers are merged and written out once the run has ended. A span names
// its layer, the id it shares with the rest of its tick's journey or its
// request, and the span on the same thread that caused it (its parent).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace nlarm::e2e {

/// Monotonic nanoseconds; the time base of every timestamp in the run.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Milliseconds from one now_ns() instant to another.
inline double ms_between(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) * 1e-6;
}

struct Span {
  const char* layer = "";   ///< static string, e.g. "monitor.assemble"
  std::uint64_t id = 0;     ///< tick index or request id
  std::int32_t parent = -1; ///< index of the causing span in this buffer
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// One thread's spans. Disabled buffers record nothing and cost one branch.
class SpanBuffer {
 public:
  SpanBuffer(std::string thread, bool enabled, std::size_t capacity);

  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Opens a span; returns its index (-1 when disabled or full).
  std::int32_t open(const char* layer, std::uint64_t id,
                    std::int32_t parent = -1);
  void close(std::int32_t index);
  /// Records an already-measured interval; returns its index like open().
  std::int32_t add(const char* layer, std::uint64_t id, std::int32_t parent,
           std::int64_t t0, std::int64_t t1);

 private:
  std::string thread_;
  bool enabled_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span over one call.
class Scoped {
 public:
  Scoped(SpanBuffer& buffer, const char* layer, std::uint64_t id,
         std::int32_t parent = -1)
      : buffer_(buffer), index_(buffer.open(layer, id, parent)) {}
  ~Scoped() { buffer_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  std::int32_t index() const { return index_; }

 private:
  SpanBuffer& buffer_;
  std::int32_t index_;
};

/// Per-layer sample lists: total and self milliseconds of every span. Self
/// time is a span's duration minus that of its direct children (children on
/// one thread run inside their parent and never overlap).
struct LayerTimes {
  std::string layer;
  std::vector<double> total_ms;
  std::vector<double> self_ms;
};
std::vector<LayerTimes> layer_times(const std::vector<const SpanBuffer*>& buffers);
/// Median total milliseconds of one layer's spans (0 when it has none).
double median_total_ms(const std::vector<LayerTimes>& layers,
                       const std::string& layer);

/// The per-layer table of a traced run as a JSON object: span count, median
/// total and median self milliseconds of each layer, and spans dropped.
std::string layers_json(const std::vector<const SpanBuffer*>& buffers);

/// Writes every span as CSV (thread,layer,id,parent,t0_ns,t1_ns).
bool write_spans_csv(const std::string& path,
                     const std::vector<const SpanBuffer*>& buffers);

}  // namespace nlarm::e2e
