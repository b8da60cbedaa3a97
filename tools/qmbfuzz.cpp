// qmbfuzz — schedule-space protocol fuzzer driver.
//
// Fans seeds across SweepRunner threads; every failing case is delta-
// debugged down to a minimal spec and written as a replayable JSON repro
// artifact next to the exact command line that re-runs it.
//
//   qmbfuzz --seed 1 --runs 200                 # fixed range: bit-deterministic
//   qmbfuzz --seed 1 --runs 64 --threads 8      # same verdicts, any thread count
//   qmbfuzz --budget 120 --out repros/          # keep fuzzing ~120 wall seconds
//   qmbfuzz --replay repros/repro-1234.json     # re-run one artifact
//   qmbfuzz --seed 1 --runs 200 --inject-bug    # plant the skip-retransmit bug;
//                                               # the invariants must catch it
//
// Determinism: for a fixed (--seed, --runs) the verdicts, the repro
// artifacts, and the final digest are bit-identical across reruns and
// --threads values. --budget mode trades that away (the batch count
// depends on wall-clock speed) and says so on stdout.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "cli.hpp"
#include "fuzz/fuzzer.hpp"

using namespace qmb;

namespace {

struct Options {
  std::uint64_t seed = 1;
  std::size_t runs = 100;
  unsigned threads = 0;         // 0 = default_sweep_threads()
  long budget_seconds = 0;      // 0 = fixed --runs mode
  std::string out_dir = "fuzz-repros";
  std::string replay_path;      // --replay mode when non-empty
  std::vector<net::FaultSpec> extra_faults;  // appended to a replayed spec
  fuzz::FuzzOptions fuzz;
  int shrink_budget = 200;
  bool json = false;
  bool coverage = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --seed S            base seed of the fuzz stream (default 1)\n"
      "  --runs N            cases to run (default 100)\n"
      "  --threads T         worker threads (default: all cores)\n"
      "  --budget SECONDS    keep launching batches of --runs until the wall-clock\n"
      "                      budget is spent (seed range advances per batch;\n"
      "                      verdicts stay per-case deterministic, but the batch\n"
      "                      count is machine-dependent)\n"
      "  --out DIR           where repro artifacts go (default fuzz-repros/)\n"
      "  --replay FILE       re-run one repro artifact (or bare spec JSON) and\n"
      "                      re-check every invariant; exit 1 if it still fails\n"
      "  --fault SPEC        append a fault rule to the replayed spec; same\n"
      "                      grammar as qmbsim (drop:nth=3,src=2 ...)\n"
      "  --engine-threads T  run every derived case on the conservative-PDES\n"
      "                      engine with T workers (default 1 = sequential).\n"
      "                      Verdicts and the digest are invariant under this\n"
      "                      knob; cases the engine cannot shard fall back to\n"
      "                      the sequential engine automatically\n"
      "  --inject-bug        plant the deliberate skip-retransmission bug in\n"
      "                      every Myrinet and IB NIC case (fuzzer self-check:\n"
      "                      the invariants must catch it)\n"
      "  --max-nodes N       cap derived cluster sizes (default 12)\n"
      "  --max-iters K       cap derived timed iterations (default 10)\n"
      "  --horizon-ms H      per-case simulated-time watchdog (default 10000)\n"
      "  --shrink-budget B   candidate runs per failure (default 200; 0 = off)\n"
      "  --coverage          also print how many derived cases drew each barrier\n"
      "                      algorithm (and split-phase overlap) over the seed\n"
      "                      range, plus every (value op, algorithm) pair, so CI\n"
      "                      can assert every capability pair appears\n"
      "  --json              machine-readable verdict lines\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed") {
      o.seed = std::strtoull(cli::require_value(argc, argv, i, "--seed"), nullptr, 10);
    } else if (a == "--runs") {
      o.runs = std::strtoull(cli::require_value(argc, argv, i, "--runs"), nullptr, 10);
    } else if (a == "--threads") {
      o.threads = static_cast<unsigned>(
          std::atoi(cli::require_value(argc, argv, i, "--threads")));
    } else if (a == "--budget") {
      o.budget_seconds = std::atol(cli::require_value(argc, argv, i, "--budget"));
    } else if (a == "--out") {
      o.out_dir = cli::require_value(argc, argv, i, "--out");
    } else if (a == "--replay") {
      o.replay_path = cli::require_value(argc, argv, i, "--replay");
    } else if (a == "--fault") {
      net::FaultSpec f;
      if (const std::string err =
              cli::parse_fault(cli::require_value(argc, argv, i, "--fault"), f);
          !err.empty()) {
        std::fprintf(stderr, "--fault: %s\n", err.c_str());
        usage(argv[0]);
      }
      o.extra_faults.push_back(f);
    } else if (a == "--engine-threads") {
      o.fuzz.engine_threads =
          std::atoi(cli::require_value(argc, argv, i, "--engine-threads"));
      if (o.fuzz.engine_threads < 1) {
        std::fprintf(stderr, "--engine-threads must be >= 1\n");
        usage(argv[0]);
      }
    } else if (a == "--inject-bug") {
      o.fuzz.inject_bug = true;
    } else if (a == "--max-nodes") {
      o.fuzz.max_nodes = std::atoi(cli::require_value(argc, argv, i, "--max-nodes"));
    } else if (a == "--max-iters") {
      o.fuzz.max_iters = std::atoi(cli::require_value(argc, argv, i, "--max-iters"));
    } else if (a == "--horizon-ms") {
      o.fuzz.horizon_ms = std::atol(cli::require_value(argc, argv, i, "--horizon-ms"));
    } else if (a == "--shrink-budget") {
      o.shrink_budget = std::atoi(cli::require_value(argc, argv, i, "--shrink-budget"));
    } else if (a == "--coverage") {
      o.coverage = true;
    } else if (a == "--json") {
      o.json = true;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      usage(argv[0]);
    }
  }
  if (o.runs == 0) {
    std::fprintf(stderr, "--runs must be >= 1\n");
    std::exit(2);
  }
  if (!o.replay_path.empty() && (o.budget_seconds > 0)) {
    std::fprintf(stderr, "--replay and --budget are mutually exclusive\n");
    std::exit(2);
  }
  return o;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(2);
  }
  std::fputs(text.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

void print_violations(const std::vector<fuzz::Violation>& violations) {
  for (const fuzz::Violation& v : violations) {
    std::printf("  violated %-20s %s\n", v.invariant.c_str(), v.detail.c_str());
  }
}

int run_replay(const Options& o) {
  run::ExperimentSpec spec = fuzz::replay_spec_from_json(read_file(o.replay_path));
  for (const net::FaultSpec& f : o.extra_faults) spec.faults.push_back(f);
  const fuzz::CaseResult c = fuzz::run_case(spec);
  if (o.json) {
    std::printf("{\"replay\":\"%s\",\"failed\":%s,\"violations\":%zu,"
                "\"fingerprint\":\"%016llx\"}\n",
                o.replay_path.c_str(), c.failed() ? "true" : "false",
                c.violations.size(), static_cast<unsigned long long>(c.fingerprint));
  } else {
    std::printf("replay %s: %s (fingerprint %016llx)\n", o.replay_path.c_str(),
                c.failed() ? "STILL FAILING" : "clean",
                static_cast<unsigned long long>(c.fingerprint));
    print_violations(c.violations);
  }
  return c.failed() ? 1 : 0;
}

/// Re-derives the seed range's specs (derive_case is a pure function of
/// the seed, so this costs microseconds per case, not a simulation) and
/// prints one draw count per barrier algorithm plus the split-phase
/// overlap count, then one count per advertised (value kind, algorithm)
/// pair. CI greps both lines to prove the smoke range exercises every
/// algorithm in the zoo and every capability pair.
void print_coverage(const Options& o, std::uint64_t base_seed) {
  constexpr std::size_t kAlgos = std::size(coll::kBarrierAlgorithms);
  constexpr coll::OpKind kValueKinds[] = {
      coll::OpKind::kBcast, coll::OpKind::kAllreduce, coll::OpKind::kAllgather,
      coll::OpKind::kAlltoall};
  std::size_t counts[kAlgos] = {};
  std::size_t pair_counts[std::size(kValueKinds)][kAlgos] = {};
  std::size_t overlap_cases = 0;
  for (std::size_t i = 0; i < o.runs; ++i) {
    const run::ExperimentSpec s = fuzz::derive_case(run::seed_for(base_seed, i), o.fuzz);
    for (std::size_t k = 0; k < kAlgos; ++k) {
      if (s.algorithm == coll::kBarrierAlgorithms[k]) ++counts[k];
    }
    for (std::size_t v = 0; v < std::size(kValueKinds); ++v) {
      if (s.op != kValueKinds[v]) continue;
      for (std::size_t k = 0; k < kAlgos; ++k) {
        if (s.algorithm == coll::kBarrierAlgorithms[k]) ++pair_counts[v][k];
      }
    }
    if (s.overlap_us >= 0.0) ++overlap_cases;
  }
  std::printf("algorithm coverage:");
  for (std::size_t k = 0; k < kAlgos; ++k) {
    const std::string name{run::algorithm_cli_name(coll::kBarrierAlgorithms[k])};
    std::printf(" %s=%zu", name.c_str(), counts[k]);
  }
  std::printf(" overlap=%zu\n", overlap_cases);
  // One token per advertised (kind, algorithm) capability pair, so CI can
  // assert every pair the substrates advertise was actually drawn.
  std::printf("collective coverage:");
  for (std::size_t v = 0; v < std::size(kValueKinds); ++v) {
    const std::string op{run::to_string(kValueKinds[v])};
    for (const coll::Algorithm a : coll::collective_algorithms_for(kValueKinds[v])) {
      std::size_t c = 0;
      for (std::size_t k = 0; k < kAlgos; ++k) {
        if (coll::kBarrierAlgorithms[k] == a) c = pair_counts[v][k];
      }
      std::printf(" %s:%s=%zu", op.c_str(),
                  std::string(run::algorithm_cli_name(a)).c_str(), c);
    }
  }
  std::printf("\n");
}

/// Runs one fixed seed range and writes artifacts. Returns the report.
fuzz::FuzzReport run_batch(const Options& o, std::uint64_t base_seed) {
  fuzz::FuzzReport rep =
      fuzz::fuzz_range(base_seed, o.runs, o.threads, o.fuzz, o.shrink_budget);
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    const fuzz::CaseResult& found = rep.failures[i];
    const fuzz::ShrinkOutcome& min = rep.shrunk[i];
    std::filesystem::create_directories(o.out_dir);
    const std::string path =
        o.out_dir + "/repro-" + std::to_string(found.seed) + ".json";
    write_file(path, fuzz::repro_to_json(found, min, path));
    if (o.json) {
      std::printf("{\"seed\":\"%llu\",\"artifact\":\"%s\",\"rules\":%zu,"
                  "\"shrink_attempts\":%d}\n",
                  static_cast<unsigned long long>(found.seed), path.c_str(),
                  min.minimal.faults.size(), min.attempts);
    } else {
      std::printf("FAIL seed %llu -> %s (shrunk to %d nodes, %d iters, %zu fault "
                  "rules in %d runs)\n",
                  static_cast<unsigned long long>(found.seed), path.c_str(),
                  min.minimal.nodes, min.minimal.iters, min.minimal.faults.size(),
                  min.attempts);
      print_violations(min.violations);
      std::printf("  replay: qmbfuzz --replay %s\n", path.c_str());
    }
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (!o.replay_path.empty()) return run_replay(o);

    std::size_t total_runs = 0;
    std::size_t total_failed = 0;
    std::uint64_t digest = 0;
    if (o.budget_seconds > 0) {
      // Budget mode: launch batches until the wall clock runs out. Each
      // batch b covers the same seeds on every machine; only how many
      // batches fit is machine-dependent.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::seconds(o.budget_seconds);
      std::uint64_t batch = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        const fuzz::FuzzReport rep = run_batch(o, o.seed + batch);
        total_runs += rep.runs;
        total_failed += rep.failed;
        digest ^= rep.verdict_digest;
        ++batch;
      }
      std::printf("budget spent: %zu cases in %llu batches, %zu failing\n", total_runs,
                  static_cast<unsigned long long>(batch), total_failed);
    } else {
      const fuzz::FuzzReport rep = run_batch(o, o.seed);
      total_runs = rep.runs;
      total_failed = rep.failed;
      digest = rep.verdict_digest;
      if (o.json) {
        std::printf("{\"seed\":\"%llu\",\"runs\":%zu,\"failed\":%zu,"
                    "\"digest\":\"%016llx\"}\n",
                    static_cast<unsigned long long>(o.seed), total_runs, total_failed,
                    static_cast<unsigned long long>(digest));
      } else {
        std::printf("%zu cases from seed %llu: %zu failing, verdict digest %016llx\n",
                    total_runs, static_cast<unsigned long long>(o.seed), total_failed,
                    static_cast<unsigned long long>(digest));
      }
    }
    if (o.coverage) print_coverage(o, o.seed);
    return total_failed > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
