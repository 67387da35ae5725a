#include "spans.h"

#include <cstdio>
#include <map>

#include "stats.h"

namespace nlarm::e2e {

SpanBuffer::SpanBuffer(std::string thread, bool enabled, std::size_t capacity)
    : thread_(std::move(thread)), enabled_(enabled), capacity_(capacity) {
  if (enabled_) spans_.reserve(capacity_);
}

std::int32_t SpanBuffer::open(const char* layer, std::uint64_t id,
                              std::int32_t parent) {
  if (!enabled_) return -1;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{layer, id, parent, now_ns(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanBuffer::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].t1 = now_ns();
}

std::int32_t SpanBuffer::add(const char* layer, std::uint64_t id,
                             std::int32_t parent, std::int64_t t0,
                             std::int64_t t1) {
  const std::int32_t index = open(layer, id, parent);
  if (index >= 0) {
    spans_[static_cast<std::size_t>(index)].t0 = t0;
    spans_[static_cast<std::size_t>(index)].t1 = t1;
  }
  return index;
}

namespace {

// Child durations summed per parent index, in one pass over the buffer.
std::vector<std::int64_t> child_ns(const SpanBuffer& buffer) {
  const std::vector<Span>& spans = buffer.spans();
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.t1 > 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
  }
  return covered;
}

}  // namespace

std::vector<LayerTimes> layer_times(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<std::string, LayerTimes> by_layer;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<std::int64_t> covered = child_ns(*buffer);
    const std::vector<Span>& spans = buffer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.t1 <= 0) continue;  // still open when the run ended
      LayerTimes& lt = by_layer[s.layer];
      lt.layer = s.layer;
      lt.total_ms.push_back(ms_between(s.t0, s.t1));
      lt.self_ms.push_back(ms_between(s.t0, s.t1 - covered[i]));
    }
  }
  std::vector<LayerTimes> out;
  for (auto& [name, lt] : by_layer) out.push_back(std::move(lt));
  return out;
}

double median_total_ms(const std::vector<LayerTimes>& layers,
                       const std::string& layer) {
  for (const LayerTimes& lt : layers) {
    if (lt.layer == layer) return median(lt.total_ms);
  }
  return 0.0;
}

std::string layers_json(const std::vector<const SpanBuffer*>& buffers) {
  std::uint64_t dropped = 0;
  for (const SpanBuffer* buffer : buffers) dropped += buffer->dropped();
  std::string out = "{\"dropped_spans\": " + std::to_string(dropped);
  for (const LayerTimes& lt : layer_times(buffers)) {
    out += ", " + json_string(lt.layer) +
           ": {\"spans\": " + std::to_string(lt.total_ms.size()) +
           ", \"total_ms\": " + json_number(median(lt.total_ms)) +
           ", \"self_ms\": " + json_number(median(lt.self_ms)) + "}";
  }
  return out + "}";
}

bool write_spans_csv(const std::string& path,
                     const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,layer,id,parent,t0_ns,t1_ns\n");
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& s : buffer->spans()) {
      std::fprintf(f, "%s,%s,%llu,%d,%lld,%lld\n", buffer->thread().c_str(),
                   s.layer, static_cast<unsigned long long>(s.id), s.parent,
                   static_cast<long long>(s.t0), static_cast<long long>(s.t1));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace nlarm::e2e
