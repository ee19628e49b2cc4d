#ifndef M2G_OBS_EXPORT_H_
#define M2G_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace m2g::obs {

/// Prometheus text exposition (# TYPE lines, `_total` counters,
/// cumulative `_bucket{le=...}` histogram series plus `_sum`/`_count`).
/// Registry names map to `m2g_` + name with '.' -> '_'.
std::string ExportPrometheus(const MetricsSnapshot& snapshot);

/// JSON snapshot: {"counters": {...}, "gauges": {...}, "histograms":
/// {name: {count, sum, min, max, mean, p50, p95, p99, buckets: [...]}}}.
/// Names keep their dotted registry form.
std::string ExportJson(const MetricsSnapshot& snapshot);

/// Convenience overloads over MetricsRegistry::Global().Snapshot().
std::string ExportPrometheus();
std::string ExportJson();

/// The span trees of the recent wide-event ring as a JSON array of
/// nested trees: [{"trace_id", "tag", "spans": [{stage, span_id,
/// parent_span_id, start_ms, duration_ms, thread_slot, children:
/// [...]}]}]. Orphaned spans (parent missing from the tree) surface as
/// extra roots rather than being dropped.
std::string ExportTracesJson();

/// The recent wide-event ring as a JSON array (same objects as the
/// JSONL lines, wrapped in [...]).
std::string ExportWideEventsJson();

/// RFC 8259 string escaping: quotes, backslash, and control characters
/// (as \uXXXX). Returns the escaped body without surrounding quotes.
std::string JsonEscape(const std::string& s);

/// Shortest-faithful number formatting shared by all obs JSON output:
/// integral values print bare ("42"), everything else up to 9
/// significant digits; NaN/Inf (not valid JSON) print as null.
std::string JsonNum(double v);

/// Writes `text` to `path` atomically: writes `path` + ".tmp" then
/// renames over `path`, so a concurrent reader sees either the old or
/// the new content, never a half-written file. Returns false on I/O
/// failure (the tmp file is removed on a failed write).
bool WriteFileAtomic(const std::string& path, const std::string& text);

/// Writes the global registry snapshot to `path`: JSON when the path
/// ends in ".json", Prometheus text otherwise. Atomic (tmp + rename).
/// Returns false on I/O failure.
bool WriteMetricsFile(const std::string& path);

}  // namespace m2g::obs

#endif  // M2G_OBS_EXPORT_H_
