// Regression diffing between two bench-suite JSON documents.
//
// A suite document ("qmb-bench-suite/1", written by bench_suite and
// consumable straight from CI artifacts) carries one point per experiment
// with a stable key, latency stats, protocol counters, and the determinism
// fingerprint. diff() aligns points by key and classifies each: latency
// regression/improvement beyond a threshold, counter drift, fingerprint
// change (the simulation computed different events — either a real
// behavioural change or lost determinism). The CLI in tools/benchdiff.cpp
// is a thin wrapper; tests drive this engine directly.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace qmb::obs {

struct BenchDiffOptions {
  /// Mean-latency growth beyond this (percent) is a regression.
  double threshold_pct = 5.0;
  /// When true, a fingerprint change alone fails the diff.
  bool fail_on_fingerprint = false;
};

struct BenchPointDelta {
  std::string key;
  double old_us = 0.0;
  double new_us = 0.0;
  double delta_pct = 0.0;
  bool regression = false;
  bool improvement = false;
  bool fingerprint_changed = false;
};

struct BenchDiffReport {
  std::vector<BenchPointDelta> deltas;    // common keys, baseline order
  std::vector<std::string> added;         // keys only in the new suite
  std::vector<std::string> removed;       // keys only in the baseline
  int regressions = 0;
  int improvements = 0;
  int fingerprint_changes = 0;
  std::string text;  // human-readable summary table

  /// 0 = clean, 1 = regression, a removed key, or a fingerprint change
  /// when configured to fail on it.
  [[nodiscard]] int exit_code(const BenchDiffOptions& opts) const {
    if (regressions > 0 || !removed.empty()) return 1;
    if (opts.fail_on_fingerprint && fingerprint_changes > 0) return 1;
    return 0;
  }
};

/// Diffs two parsed suite documents. Throws std::runtime_error when either
/// document is not a qmb-bench-suite object or holds a key twice; the
/// message names the document and the key.
[[nodiscard]] BenchDiffReport diff_bench_suites(const JsonValue& baseline,
                                                const JsonValue& current,
                                                const BenchDiffOptions& opts = {});

}  // namespace qmb::obs
