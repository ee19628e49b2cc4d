#include "obs/export.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "obs/wide_event.h"

namespace m2g::obs {
namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

std::string Num(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

/// `serve.stage.encode.ms` -> `m2g_serve_stage_encode_ms`.
std::string PromName(const std::string& name) {
  std::string out = "m2g_";
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out;
}

void AppendJsonKey(std::string* out, const std::string& key) {
  out->push_back('"');
  *out += key;  // registry names never need escaping
  *out += "\":";
}

void AppendSpanJson(std::string* out, const std::vector<TraceEvent>& spans,
                    const std::vector<std::vector<size_t>>& children,
                    size_t index, int depth) {
  const TraceEvent& e = spans[index];
  *out += "{\"stage\": \"";
  *out += JsonEscape(e.stage != nullptr ? e.stage : "");
  *out += "\", \"span_id\": " + Num(e.span_id);
  *out += ", \"parent_span_id\": " + Num(e.parent_span_id);
  *out += ", \"start_ms\": " + Num(e.start_ms);
  *out += ", \"duration_ms\": " + Num(e.duration_ms);
  *out += ", \"thread_slot\": " + Num(static_cast<double>(e.thread_slot));
  *out += ", \"children\": [";
  // Depth guard: trace trees are a few levels deep by construction; a
  // corrupted parent chain must not blow the stack.
  if (depth < 32) {
    bool first = true;
    for (size_t child : children[index]) {
      if (!first) *out += ", ";
      first = false;
      AppendSpanJson(out, spans, children, child, depth + 1);
    }
  }
  *out += "]}";
}

}  // namespace

std::string ExportPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    std::string prom = PromName(name);
    if (prom.size() < 6 || prom.compare(prom.size() - 6, 6, "_total") != 0) {
      prom += "_total";
    }
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + Num(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + Num(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string prom = PromName(name);
    out += "# TYPE " + prom + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      out += prom + "_bucket{le=\"" + Num(h.bounds[i]) + "\"} " +
             Num(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + Num(h.count) + "\n";
    out += prom + "_sum " + Num(h.sum) + "\n";
    out += prom + "_count " + Num(h.count) + "\n";
  }
  return out;
}

std::string ExportJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += " " + Num(value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += " " + Num(value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += " {\"count\": " + Num(h.count) + ", \"sum\": " + Num(h.sum) +
           ", \"min\": " + Num(h.min) + ", \"max\": " + Num(h.max) +
           ", \"mean\": " + Num(h.mean()) +
           ", \"p50\": " + Num(h.Quantile(0.50)) +
           ", \"p95\": " + Num(h.Quantile(0.95)) +
           ", \"p99\": " + Num(h.Quantile(0.99)) + ", \"buckets\": [";
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      out += i < h.bounds.size() ? Num(h.bounds[i]) : "\"+Inf\"";
      out += ", \"count\": " + Num(h.counts[i]) + "}";
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string ExportPrometheus() {
  return ExportPrometheus(MetricsRegistry::Global().Snapshot());
}

std::string ExportJson() {
  return ExportJson(MetricsRegistry::Global().Snapshot());
}

std::string ExportTracesJson() {
  const std::vector<WideEvent> events = WideEventSink::Global().Recent();
  std::string out = "[";
  bool first_tree = true;
  for (const WideEvent& event : events) {
    // Events recorded outside a RequestTrace carry no tree.
    if (event.trace_id == 0) continue;
    out += first_tree ? "\n  " : ",\n  ";
    first_tree = false;
    out += "{\"trace_id\": " + Num(event.trace_id) + ", \"tag\": \"" +
           JsonEscape(event.tag) + "\", \"spans\": [";
    // Index spans by id to build parent -> children edges; spans whose
    // parent is 0 or absent render as roots.
    const std::vector<TraceEvent>& spans = event.spans;
    std::vector<std::vector<size_t>> children(spans.size());
    std::vector<bool> is_root(spans.size(), true);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent_span_id == 0) continue;
      for (size_t j = 0; j < spans.size(); ++j) {
        if (j != i && spans[j].span_id == spans[i].parent_span_id) {
          children[j].push_back(i);
          is_root[i] = false;
          break;
        }
      }
    }
    bool first_span = true;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (!is_root[i]) continue;
      if (!first_span) out += ", ";
      first_span = false;
      AppendSpanJson(&out, spans, children, i, 0);
    }
    out += "]}";
  }
  out += "\n]\n";
  return out;
}

std::string ExportWideEventsJson() {
  const std::vector<WideEvent> events = WideEventSink::Global().Recent();
  std::string out = "[";
  bool first = true;
  for (const WideEvent& e : events) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += WideEventSink::ToJsonLine(e);
  }
  out += "\n]\n";
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonNum(double v) { return Num(v); }

bool WriteFileAtomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flushed = std::fclose(f) == 0 && written == text.size();
  if (!flushed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool WriteMetricsFile(const std::string& path) {
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return WriteFileAtomic(path, json ? ExportJson() : ExportPrometheus());
}

}  // namespace m2g::obs
