#include "obs/benchdiff.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

namespace qmb::obs {

namespace {

/// The document's points by key. A key twice would let a doctored copy
/// hide behind the first entry, so it is an error, not a delta.
std::map<std::string, const JsonValue*> points_of(const JsonValue& doc, const char* which) {
  if (!doc.is_object()) {
    throw std::runtime_error(std::string(which) + ": not a JSON object");
  }
  const auto schema = doc.string_or("schema", "");
  if (schema.rfind("qmb-bench-suite/", 0) != 0) {
    throw std::runtime_error(std::string(which) + ": unknown schema '" +
                             std::string(schema) + "'");
  }
  const JsonValue* pts = doc.find("points");
  if (!pts || !pts->is_array()) {
    throw std::runtime_error(std::string(which) + ": missing 'points' array");
  }
  std::map<std::string, const JsonValue*> by_key;
  for (const JsonValue& p : pts->array) {
    std::string key(p.string_or("key", ""));
    if (!by_key.emplace(key, &p).second) {
      throw std::runtime_error(std::string(which) + ": duplicate key '" + key + "'");
    }
  }
  return by_key;
}

}  // namespace

BenchDiffReport diff_bench_suites(const JsonValue& baseline, const JsonValue& current,
                                  const BenchDiffOptions& opts) {
  const auto old_by_key = points_of(baseline, "baseline");
  const auto new_by_key = points_of(current, "current");

  BenchDiffReport rep;
  char line[256];
  std::string table;

  for (const JsonValue& op : baseline.find("points")->array) {
    const std::string key(op.string_or("key", ""));
    const auto it = new_by_key.find(key);
    if (it == new_by_key.end()) {
      rep.removed.push_back(key);
      continue;
    }
    const JsonValue& np = *it->second;

    BenchPointDelta d;
    d.key = key;
    d.old_us = op.number_or("mean_us", 0.0);
    d.new_us = np.number_or("mean_us", 0.0);
    d.delta_pct = d.old_us > 0.0 ? (d.new_us - d.old_us) / d.old_us * 100.0 : 0.0;
    d.regression = d.delta_pct > opts.threshold_pct;
    d.improvement = d.delta_pct < -opts.threshold_pct;
    d.fingerprint_changed = op.string_or("fingerprint", "") != np.string_or("fingerprint", "");
    if (d.regression) ++rep.regressions;
    if (d.improvement) ++rep.improvements;
    if (d.fingerprint_changed) ++rep.fingerprint_changes;

    if (d.regression || d.improvement || d.fingerprint_changed) {
      std::snprintf(line, sizeof line, "  %-44s %10.2f -> %10.2f us  %+7.2f%%%s%s\n",
                    d.key.c_str(), d.old_us, d.new_us, d.delta_pct,
                    d.regression ? "  REGRESSION" : (d.improvement ? "  improved" : ""),
                    d.fingerprint_changed ? "  [fingerprint changed]" : "");
      table += line;
    }
    rep.deltas.push_back(std::move(d));
  }
  for (const JsonValue& np : current.find("points")->array) {
    const std::string key(np.string_or("key", ""));
    if (!old_by_key.contains(key)) rep.added.push_back(key);
  }

  std::snprintf(line, sizeof line,
                "benchdiff: %zu common points, %d regression(s), %d improvement(s), "
                "%d fingerprint change(s), %zu added, %zu removed "
                "(threshold %.1f%%)\n",
                rep.deltas.size(), rep.regressions, rep.improvements,
                rep.fingerprint_changes, rep.added.size(), rep.removed.size(),
                opts.threshold_pct);
  rep.text = line + table;
  for (const std::string& k : rep.added) rep.text += "  added:   " + k + "\n";
  for (const std::string& k : rep.removed) rep.text += "  removed: " + k + "\n";
  return rep;
}

}  // namespace qmb::obs
