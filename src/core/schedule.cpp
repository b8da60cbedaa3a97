#include "core/schedule.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/group_window.hpp"

namespace qmb::coll {
namespace {

/// The largest power of f that is at most n.
[[nodiscard]] int floor_pow(int n, int f) {
  long long m = 1;
  while (m * f <= n) m *= f;
  return static_cast<int>(m);
}

/// f-way dissemination rounds among ranks [0, n): round k sends to the
/// distances j * f^k (j = 1..f-1) and waits on their mirrors. A round's
/// distances are distinct mod n up to the first that is 0 mod n, and every
/// later one repeats an earlier one, so the round ends there.
void dissemination_rounds(ScheduleWriter& w, int i, int n, int f) {
  std::uint32_t round = 0;
  for (long long unit = 1; unit < n; unit *= f, ++round) {
    for (int j = 1; j < f; ++j) {
      const int d = static_cast<int>(j * unit % n);
      if (d == 0) break;
      w.send((i + d) % n, round);
      w.wait((i - d + n) % n, round);
    }
    w.end_step();
  }
}

/// XOR exchange rounds among ranks [0, m), m a power of two.
void xor_rounds(ScheduleWriter& w, int i, int m) {
  std::uint32_t round = 0;
  for (int dist = 1; dist < m; dist *= 2, ++round) {
    w.send(i ^ dist, round);
    w.wait(i ^ dist, round);
    w.end_step();
  }
}

/// The extra-rank fold: ranks at or above the block size m register with
/// rank i mod m (kTagPre) and wait for its release (kTagPost); `core` runs
/// the exchange among ranks [0, m).
template <typename Core>
GroupSchedule folded(int n, int m, Core core) {
  return ScheduleWriter::build(n, [n, m, &core](ScheduleWriter& w, int i) {
    if (i >= m) {
      w.send(i % m, kTagPre);
      w.end_step();
      w.wait(i % m, kTagPost);
      w.end_step();
      return;
    }
    const bool partners = i + m < n;
    if (partners) {
      for (int e = i + m; e < n; e += m) w.wait(e, kTagPre);
      w.end_step();
    }
    core(w, i, m);
    if (partners) {
      for (int e = i + m; e < n; e += m) w.send(e, kTagPost);
      w.end_step();
    }
  });
}

enum class TreeOrder {
  kBarrier,  // gather from the children, send up, wait for the release, release
  kBcast,    // wait for the payload, forward it, gather the ACKs, ACK up
};

/// One rooted tree over virtual ranks v = (r - root) mod n: d-ary for
/// degree >= 2, binomial for degree 0 (v's parent is v minus its lowest set
/// bit, its children v + 2^k for every 2^k below that bit). The bcast order
/// keeps consecutive broadcasts pipelined by at most one operation: without
/// the ACKs the root completes at once and races arbitrarily far ahead of
/// the leaves, which no fixed-depth operation window could absorb.
GroupSchedule tree(int n, int root, int degree, TreeOrder order) {
  return ScheduleWriter::build(n, [n, root, degree, order](ScheduleWriter& w, int r) {
    const auto real = [n, root](long long v) { return static_cast<int>((v + root) % n); };
    const long long v = (r - root + n) % n;
    long long parent = -1;
    if (v > 0) parent = degree > 0 ? (v - 1) / degree : v - (v & -v);
    const auto each_child = [&](auto&& fn) {
      if (degree > 0) {
        const long long first = static_cast<long long>(degree) * v + 1;
        for (long long c = first; c < first + degree && c < n; ++c) fn(real(c));
      } else {
        for (long long m = 1; m < n && (v & m) == 0; m *= 2) {
          if (v + m < n) fn(real(v + m));
        }
      }
    };
    int children = 0;
    each_child([&children](int) { ++children; });
    const auto gather = [&] {  // the children's kTagUp edges
      each_child([&w](int c) { w.wait(c, kTagUp); });
      w.end_step();
    };
    const auto release = [&] {  // the children's kTagDown edges
      each_child([&w](int c) { w.send(c, kTagDown); });
      w.end_step();
    };
    if (order == TreeOrder::kBarrier) {
      if (children > 0) gather();
      if (parent >= 0) {
        w.send(real(parent), kTagUp);
        w.wait(real(parent), kTagDown);
        w.end_step();
      }
      if (children > 0) release();
    } else {
      if (parent >= 0) {
        w.wait(real(parent), kTagDown);
        w.end_step();
      }
      if (children > 0) {
        release();
        gather();
      }
      if (parent >= 0) {
        w.send(real(parent), kTagUp);
        w.end_step();
      }
    }
  });
}

GroupSchedule tournament(int n, int, int) {
  // Mellor-Crummey/Scott tournament with statically determined winners:
  // rank i loses at round k = ctz(i) (it signals i - 2^k and blocks for a
  // wakeup), winning every earlier round against i + 2^k where that loser
  // exists. Rank 0 is the champion; wakeups fan back out in reverse round
  // order. Same edges as the binomial tree, but each round is its own
  // sequenced step — the timing signature the tournament is known for.
  return ScheduleWriter::build(n, [n](ScheduleWriter& w, int i) {
    int lose_round = -1;  // champion never loses
    int lose_dist = 0;
    for (int k = 0, m = 1; m < n; ++k, m *= 2) {
      if (i != 0 && (i & m) != 0) {
        lose_round = k;
        lose_dist = m;
        break;
      }
      if (i + m < n) {
        w.wait(i + m, static_cast<std::uint32_t>(k));
        w.end_step();
      }
    }
    if (lose_round >= 0) {
      w.send(i - lose_dist, static_cast<std::uint32_t>(lose_round));
      w.wait(i - lose_dist, kTagWake);
      w.end_step();
    }
    // Wakeup fan-out: every round this rank won, in reverse order. The
    // champion's top is the next power of two >= n (its last win round may
    // pair it beyond the largest rank when n is not a power of two).
    int top = lose_dist;
    if (lose_round < 0) {
      top = 1;
      while (top < n) top *= 2;
    }
    for (int m = top / 2; m >= 1; m /= 2) {
      if (i + m >= n) continue;
      w.send(i + m, kTagWake);
      w.end_step();
    }
  });
}

/// All-to-all personalized exchange as a rotation ring: round r sends this
/// rank's word for peer (i+r) mod n directly to it. n-1 rounds, one direct
/// message per ordered pair — the pattern the paper's Sec. 9 asks about.
GroupSchedule rotation(int n, int, int) {
  return ScheduleWriter::build(n, [n](ScheduleWriter& w, int i) {
    for (int r = 1; r < n; ++r) {
      w.send((i + r) % n, static_cast<std::uint32_t>(r - 1));
      w.wait((i - r + n) % n, static_cast<std::uint32_t>(r - 1));
      w.end_step();
    }
  });
}

constexpr int kBinomial = 0;  // tree degree of the binomial tree

// The table's builders: (ranks, bcast root, radix with its default applied).
GroupSchedule fway(int n, int, int f) {
  return ScheduleWriter::build(
      n, [n, f](ScheduleWriter& w, int i) { dissemination_rounds(w, i, n, f); });
}
GroupSchedule ds(int n, int, int) { return fway(n, 0, 2); }
GroupSchedule pe(int n, int, int) { return folded(n, floor_pow(n, 2), xor_rounds); }
GroupSchedule gb(int n, int, int d) { return tree(n, 0, d, TreeOrder::kBarrier); }
GroupSchedule binomial(int n, int, int) { return tree(n, 0, kBinomial, TreeOrder::kBarrier); }
GroupSchedule gb_bcast(int n, int root, int d) { return tree(n, root, d, TreeOrder::kBcast); }
GroupSchedule binary_bcast(int n, int root, int) { return tree(n, root, 2, TreeOrder::kBcast); }
GroupSchedule binomial_bcast(int n, int root, int) {
  return tree(n, root, kBinomial, TreeOrder::kBcast);
}

/// Allreduce over radix-f dissemination rounds. Plain dissemination's
/// skip-distances double-count contributions under a non-idempotent
/// reduction, so the exchange runs on the largest power-of-f block m: after
/// round k every block rank holds the sum of the f^(k+1) contiguous ranks
/// ending at itself, and those blocks tile with no overlap.
GroupSchedule fway_allreduce(int n, int, int f) {
  return folded(n, floor_pow(n, f), [f](ScheduleWriter& w, int i, int m) {
    dissemination_rounds(w, i, m, f);
  });
}

/// One (op kind, algorithm) pair: its builder and the radix it defaults to.
struct Pattern {
  OpKind kind;
  Algorithm algorithm;
  GroupSchedule (*build)(int n, int root, int radix);
  int default_radix = 0;  // 0: the builder takes no radix
};

// Rows in each kind's legal-list order. Bcast trees must push the payload
// down before combining ACKs up; sum-reductions need exchange rounds whose
// partial blocks tile without overlap (hence recursive doubling for the
// allreduce default, and the power-of-f block for f-way); combine-up /
// result-down patterns sum on non-result tags and replace on kTagDown and
// kTagWake; allgather's union is idempotent, so every knowledge-complete
// barrier pattern qualifies.
using K = OpKind;
using A = Algorithm;
constexpr Pattern kPatterns[] = {
    {K::kBarrier, A::kDissemination, ds},
    {K::kBarrier, A::kPairwiseExchange, pe},
    {K::kBarrier, A::kGatherBroadcast, gb, 2},
    {K::kBarrier, A::kTree, binomial},
    {K::kBarrier, A::kTournament, tournament},
    {K::kBarrier, A::kFwayDissemination, fway, 4},
    {K::kBcast, A::kGatherBroadcast, gb_bcast, 2},
    {K::kBcast, A::kDissemination, binary_bcast},
    {K::kBcast, A::kTree, binomial_bcast},
    {K::kAllreduce, A::kGatherBroadcast, gb, 2},
    {K::kAllreduce, A::kPairwiseExchange, pe},
    {K::kAllreduce, A::kDissemination, pe},
    {K::kAllreduce, A::kTree, binomial},
    {K::kAllreduce, A::kTournament, tournament},
    {K::kAllreduce, A::kFwayDissemination, fway_allreduce, 4},
    {K::kAllgather, A::kGatherBroadcast, gb, 2},
    {K::kAllgather, A::kPairwiseExchange, pe},
    {K::kAllgather, A::kDissemination, ds},
    {K::kAllgather, A::kTree, binomial},
    {K::kAllgather, A::kTournament, tournament},
    {K::kAllgather, A::kFwayDissemination, fway, 4},
    {K::kAlltoall, A::kDissemination, rotation},
};

}  // namespace

std::string_view to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kGatherBroadcast: return "gather-broadcast";
    case Algorithm::kPairwiseExchange: return "pairwise-exchange";
    case Algorithm::kDissemination: return "dissemination";
    case Algorithm::kTree: return "tree";
    case Algorithm::kTournament: return "tournament";
    case Algorithm::kFwayDissemination: return "fway-dissemination";
  }
  return "?";
}

std::optional<Algorithm> parse_algorithm(std::string_view s) {
  for (Algorithm a : kBarrierAlgorithms) {
    if (s == to_string(a)) return a;
  }
  return std::nullopt;
}

std::string_view to_string(OpKind k) {
  switch (k) {
    case OpKind::kBarrier: return "barrier";
    case OpKind::kBcast: return "bcast";
    case OpKind::kAllreduce: return "allreduce";
    case OpKind::kAllgather: return "allgather";
    case OpKind::kAlltoall: return "alltoall";
  }
  return "?";
}

std::optional<OpKind> parse_op_kind(std::string_view s) {
  if (s == "barrier") return OpKind::kBarrier;
  if (s == "bcast") return OpKind::kBcast;
  if (s == "allreduce") return OpKind::kAllreduce;
  if (s == "reduce") return OpKind::kAllreduce;  // MPI-style CLI alias
  if (s == "allgather") return OpKind::kAllgather;
  if (s == "alltoall") return OpKind::kAlltoall;
  return std::nullopt;
}

int RankSchedule::total_sends() const {
  int n = 0;
  for (std::size_t s = 0; s < steps_; ++s) n += static_cast<int>(sends(s).size());
  return n;
}

int RankSchedule::total_waits() const {
  int n = 0;
  for (std::size_t s = 0; s < steps_; ++s) n += static_cast<int>(waits(s).size());
  return n;
}

int GroupSchedule::total_messages() const {
  int n = 0;
  for (const RankSchedule& r : ranks) n += r.total_sends();
  return n;
}

int GroupSchedule::max_steps() const {
  std::size_t n = 0;
  for (const RankSchedule& r : ranks) n = std::max(n, r.step_count());
  return static_cast<int>(n);
}

EdgeId RankSchedule::find_edge(int peer, std::uint32_t tag) const {
  // Branch-free lower bound: arrivals come in no order a predictor learns.
  const std::uint64_t key = edge_key(peer, tag);
  std::size_t n = keys_;
  if (n == 0) return kNoEdge;
  const std::uint64_t* const first = keys();
  const std::uint64_t* base = first;
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half - 1] < key ? base + half : base;
    n -= half;
  }
  if (*base != key) return kNoEdge;
  return static_cast<EdgeId>(base - first);
}

void ScheduleWriter::end_step() {
  bounds_.push_back(static_cast<std::uint32_t>(edges_.size()));
  edges_.insert(edges_.end(), waits_.begin(), waits_.end());
  bounds_.push_back(static_cast<std::uint32_t>(edges_.size()));
  waits_.clear();
}

RankSchedule ScheduleWriter::end_rank() {
  assert(waits_.empty() && edges_.size() == bounds_.back() &&
         "a rank's last step must be closed with end_step()");
  keys_.clear();
  for (const Edge& e : edges_) keys_.push_back(RankSchedule::edge_key(e.peer, e.tag));
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  for (Edge& e : edges_) {
    const auto key = std::lower_bound(keys_.begin(), keys_.end(),
                                      RankSchedule::edge_key(e.peer, e.tag));
    e.id = static_cast<EdgeId>(key - keys_.begin());
  }

  // memcpy creates the arrays' objects in the block (operator new storage
  // is suitably aligned for each); RankSchedule's readers launder their
  // pointers into it.
  static_assert(std::is_trivially_copyable_v<Edge> && alignof(Edge) <= alignof(std::uint32_t));
  RankSchedule rs;
  rs.keys_ = static_cast<std::uint32_t>(keys_.size());
  rs.steps_ = static_cast<std::uint32_t>(bounds_.size() / 2);
  const std::size_t key_bytes = keys_.size() * sizeof(std::uint64_t);
  const std::size_t bound_bytes = bounds_.size() * sizeof(std::uint32_t);
  const std::size_t edge_bytes = edges_.size() * sizeof(Edge);
  rs.block_.reset(static_cast<std::byte*>(::operator new(key_bytes + bound_bytes + edge_bytes)));
  std::byte* const p = rs.block_.get();
  if (key_bytes > 0) std::memcpy(p, keys_.data(), key_bytes);
  std::memcpy(p + key_bytes, bounds_.data(), bound_bytes);
  if (edge_bytes > 0) std::memcpy(p + key_bytes + bound_bytes, edges_.data(), edge_bytes);

  edges_.clear();
  bounds_.resize(1);
  return rs;
}

namespace {

/// The table row for (kind, algorithm), or nullptr for an illegal pair.
[[nodiscard]] const Pattern* find_pattern(OpKind kind, Algorithm algorithm) {
  for (const Pattern& p : kPatterns) {
    if (p.kind == kind && p.algorithm == algorithm) return &p;
  }
  return nullptr;
}

}  // namespace

GroupSchedule make_collective_schedule(OpKind kind, int n, int root, Algorithm algorithm,
                                       int radix) {
  if (n < 1) throw std::invalid_argument("collective group needs >= 1 rank");
  if (radix == 1) {
    // Degree-1 trees degenerate to O(n) chains; callers always mean either
    // "the default" (0) or a real fan-out (>= 2).
    throw std::invalid_argument("radix must be 0 (default) or >= 2");
  }
  if (kind == OpKind::kBcast && (root < 0 || root >= n)) {
    throw std::invalid_argument("bcast root out of range");
  }
  const Pattern* p = find_pattern(kind, algorithm);
  if (p == nullptr) {
    throw std::invalid_argument(std::string(to_string(kind)) +
                                " has no value-correct schedule for algorithm " +
                                std::string(to_string(algorithm)));
  }
  // A radix above n + 1 builds the n + 1 schedule; clamping keeps the
  // tree's child indices and the dissemination rounds bounded.
  return p->build(n, root, std::min(radix > 0 ? radix : p->default_radix, n + 1));
}

const std::vector<Algorithm>& collective_algorithms_for(OpKind kind) {
  static const auto lists = [] {
    std::array<std::vector<Algorithm>, 5> by_kind;
    for (const Pattern& p : kPatterns) {
      by_kind[static_cast<std::size_t>(p.kind)].push_back(p.algorithm);
    }
    return by_kind;
  }();
  return lists.at(static_cast<std::size_t>(kind));
}

bool takes_radix(OpKind kind, Algorithm algorithm) {
  const Pattern* p = find_pattern(kind, algorithm);
  return p != nullptr && p->default_radix > 0;
}

std::int64_t combine_value(OpKind kind, ReduceOp op, std::uint32_t tag,
                           std::int64_t acc, std::int64_t incoming) {
  switch (kind) {
    case OpKind::kBarrier:
      return acc;
    case OpKind::kBcast:
      return incoming;
    case OpKind::kAllgather:
    case OpKind::kAlltoall:
      return acc | incoming;  // idempotent mask union
    case OpKind::kAllreduce:
      if (is_result_tag(tag)) return incoming;
      switch (op) {
        case ReduceOp::kSum: return acc + incoming;
        case ReduceOp::kMin: return incoming < acc ? incoming : acc;
        case ReduceOp::kMax: return incoming > acc ? incoming : acc;
      }
      return acc;
  }
  return acc;
}

int value_words(OpKind kind, std::int64_t value) {
  if (kind != OpKind::kAllgather) return 1;  // alltoall ships one word per pair
  int words = 0;
  auto v = static_cast<std::uint64_t>(value);
  while (v != 0) {
    words += static_cast<int>(v & 1);
    v >>= 1;
  }
  return words > 0 ? words : 1;
}

bool schedule_is_correct_barrier(const GroupSchedule& g) {
  // Virtual execution with knowledge propagation: every message carries the
  // sender's current knowledge set; a correct barrier ends with every rank
  // knowing every other rank and every rank's operation complete.
  const int n = g.size;
  std::vector<std::vector<bool>> knows(static_cast<std::size_t>(n),
                                       std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int i = 0; i < n; ++i) knows[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = true;

  struct Msg {
    int src, dst;
    std::uint32_t tag;
    std::vector<bool> carried;
  };
  std::deque<Msg> wire;

  std::deque<GroupWindow<>> ranks;
  for (int i = 0; i < n; ++i) {
    ranks.emplace_back(g.ranks[static_cast<std::size_t>(i)], OpKind::kBarrier, ReduceOp::kSum,
                       GroupWindow<>::Hooks{
                           .send =
                               [&, i](GroupWindow<>::Slot&, const Edge& e) {
                                 wire.push_back(Msg{i, e.peer, e.tag,
                                                    knows[static_cast<std::size_t>(i)]});
                               },
                           .complete = [](GroupWindow<>::Slot&) {},
                       });
  }
  for (auto& w : ranks) w.start();

  while (!wire.empty()) {
    Msg m = std::move(wire.front());
    wire.pop_front();
    if (m.dst < 0 || m.dst >= n) return false;
    auto& dst_knows = knows[static_cast<std::size_t>(m.dst)];
    for (int r = 0; r < n; ++r) {
      if (m.carried[static_cast<std::size_t>(r)]) dst_knows[static_cast<std::size_t>(r)] = true;
    }
    ranks[static_cast<std::size_t>(m.dst)].on_arrival(0, m.src, m.tag);
  }

  for (int i = 0; i < n; ++i) {
    if (!ranks[static_cast<std::size_t>(i)].find(0)->complete) return false;
    for (int r = 0; r < n; ++r) {
      if (!knows[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)]) return false;
    }
  }
  return true;
}

}  // namespace qmb::coll
