#include "core/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <stdexcept>

namespace qmb::coll {
namespace {

[[nodiscard]] int floor_pow2(int n) {
  int m = 1;
  while (m * 2 <= n) m *= 2;
  return m;
}

GroupSchedule make_dissemination(int n) {
  GroupSchedule g;
  g.algorithm = Algorithm::kDissemination;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    for (int m = 0, dist = 1; dist < n; ++m, dist *= 2) {
      Step st;
      st.sends.push_back({(i + dist) % n, static_cast<std::uint32_t>(m)});
      st.waits.push_back({(i - dist + n) % n, static_cast<std::uint32_t>(m)});
      rs.steps.push_back(std::move(st));
    }
  }
  return g;
}

GroupSchedule make_pairwise_exchange(int n) {
  GroupSchedule g;
  g.algorithm = Algorithm::kPairwiseExchange;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  const int m = floor_pow2(n);

  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    if (i >= m) {
      // Extra rank: register with partner i-m up front, wait for release.
      Step pre;
      pre.sends.push_back({i - m, kTagPre});
      rs.steps.push_back(std::move(pre));
      Step post;
      post.waits.push_back({i - m, kTagPost});
      rs.steps.push_back(std::move(post));
      continue;
    }
    if (i + m < n) {
      // Partner of an extra rank: absorb its registration first.
      Step pre;
      pre.waits.push_back({i + m, kTagPre});
      rs.steps.push_back(std::move(pre));
    }
    for (int s = 0, dist = 1; dist < m; ++s, dist *= 2) {
      Step st;
      const int peer = i ^ dist;
      st.sends.push_back({peer, static_cast<std::uint32_t>(s)});
      st.waits.push_back({peer, static_cast<std::uint32_t>(s)});
      rs.steps.push_back(std::move(st));
    }
    if (i + m < n) {
      Step post;
      post.sends.push_back({i + m, kTagPost});
      rs.steps.push_back(std::move(post));
    }
  }
  return g;
}

GroupSchedule make_gather_broadcast(int n, int d) {
  if (d < 1) throw std::invalid_argument("tree degree must be >= 1");
  GroupSchedule g;
  g.algorithm = Algorithm::kGatherBroadcast;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    std::vector<int> children;
    for (int c = d * i + 1; c <= d * i + d && c < n; ++c) children.push_back(c);
    const int parent = (i - 1) / d;

    if (i == 0) {
      if (!children.empty()) {
        Step gather;
        for (int c : children) gather.waits.push_back({c, kTagUp});
        rs.steps.push_back(std::move(gather));
        Step release;
        for (int c : children) release.sends.push_back({c, kTagDown});
        rs.steps.push_back(std::move(release));
      }
      continue;
    }
    if (!children.empty()) {
      Step gather;
      for (int c : children) gather.waits.push_back({c, kTagUp});
      rs.steps.push_back(std::move(gather));
    }
    Step up_then_wait;
    up_then_wait.sends.push_back({parent, kTagUp});
    up_then_wait.waits.push_back({parent, kTagDown});
    rs.steps.push_back(std::move(up_then_wait));
    if (!children.empty()) {
      Step release;
      for (int c : children) release.sends.push_back({c, kTagDown});
      rs.steps.push_back(std::move(release));
    }
  }
  return g;
}

GroupSchedule make_binomial_tree(int n) {
  GroupSchedule g;
  g.algorithm = Algorithm::kTree;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    // Binomial structure: rank i's parent is i minus its lowest set bit;
    // its children are i + 2^k for every 2^k below that bit (and < n).
    int parent = -1;
    std::vector<int> children;
    for (int m = 1; m < n; m *= 2) {
      if ((i & m) != 0) {
        parent = i - m;
        break;
      }
      if (i + m < n) children.push_back(i + m);
    }
    if (!children.empty()) {
      Step gather;
      for (int c : children) gather.waits.push_back({c, kTagUp});
      rs.steps.push_back(std::move(gather));
    }
    if (parent >= 0) {
      Step up_then_wait;
      up_then_wait.sends.push_back({parent, kTagUp});
      up_then_wait.waits.push_back({parent, kTagDown});
      rs.steps.push_back(std::move(up_then_wait));
    }
    if (!children.empty()) {
      Step release;
      for (int c : children) release.sends.push_back({c, kTagDown});
      rs.steps.push_back(std::move(release));
    }
  }
  return g;
}

GroupSchedule make_tournament(int n) {
  // Mellor-Crummey/Scott tournament with statically determined winners:
  // rank i loses at round k = ctz(i) (it signals i - 2^k and blocks for a
  // wakeup), winning every earlier round against i + 2^k where that loser
  // exists. Rank 0 is the champion; wakeups fan back out in reverse round
  // order. Same edges as the binomial tree, but each round is its own
  // sequenced step — the timing signature the tournament is known for.
  GroupSchedule g;
  g.algorithm = Algorithm::kTournament;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    int lose_round = -1;  // champion never loses
    int lose_dist = 0;
    for (int k = 0, m = 1; m < n; ++k, m *= 2) {
      if (i != 0 && (i & m) != 0) {
        lose_round = k;
        lose_dist = m;
        break;
      }
      if (i + m < n) {
        Step win;
        win.waits.push_back({i + m, static_cast<std::uint32_t>(k)});
        rs.steps.push_back(std::move(win));
      }
    }
    if (lose_round >= 0) {
      Step lose;
      lose.sends.push_back({i - lose_dist, static_cast<std::uint32_t>(lose_round)});
      lose.waits.push_back({i - lose_dist, kTagWake});
      rs.steps.push_back(std::move(lose));
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
      Step wake;
      wake.sends.push_back({i + m, kTagWake});
      rs.steps.push_back(std::move(wake));
    }
  }
  return g;
}

GroupSchedule make_fway_dissemination(int n, int f) {
  if (f < 2) throw std::invalid_argument("f-way dissemination needs radix >= 2");
  GroupSchedule g;
  g.algorithm = Algorithm::kFwayDissemination;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    int round = 0;
    for (long long unit = 1; unit < n; unit *= f, ++round) {
      Step st;
      // Round k covers distances j * f^k for j = 1..f-1. Distances that
      // collapse to 0 mod n (or repeat within the round) are skipped: the
      // knowledge they would carry is already covered.
      std::vector<bool> used(static_cast<std::size_t>(n), false);
      for (int j = 1; j < f; ++j) {
        const int d = static_cast<int>((static_cast<long long>(j) * unit) % n);
        if (d == 0 || used[static_cast<std::size_t>(d)]) continue;
        used[static_cast<std::size_t>(d)] = true;
        st.sends.push_back({(i + d) % n, static_cast<std::uint32_t>(round)});
        st.waits.push_back({(i - d + n) % n, static_cast<std::uint32_t>(round)});
      }
      rs.steps.push_back(std::move(st));
    }
  }
  return g;
}

}  // namespace

std::string_view to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kGatherBroadcast: return "gather-broadcast";
    case Algorithm::kPairwiseExchange: return "pairwise-exchange";
    case Algorithm::kDissemination: return "dissemination";
    case Algorithm::kTree: return "tree";
    case Algorithm::kTournament: return "tournament";
    case Algorithm::kFwayDissemination: return "fway-dissemination";
    case Algorithm::kRemoteAtomic: return "remote-atomic";
    case Algorithm::kRotation: return "rotation";
  }
  return "?";
}

std::optional<Algorithm> parse_algorithm(std::string_view s) {
  for (Algorithm a : kBarrierAlgorithms) {
    if (s == to_string(a)) return a;
  }
  if (s == to_string(Algorithm::kRotation)) return Algorithm::kRotation;
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
  for (const Step& s : steps) n += static_cast<int>(s.sends.size());
  return n;
}

int RankSchedule::total_waits() const {
  int n = 0;
  for (const Step& s : steps) n += static_cast<int>(s.waits.size());
  return n;
}

int GroupSchedule::total_messages() const {
  int n = 0;
  for (const RankSchedule& r : ranks) n += r.total_sends();
  return n;
}

int GroupSchedule::max_steps() const {
  std::size_t n = 0;
  for (const RankSchedule& r : ranks) n = std::max(n, r.steps.size());
  return static_cast<int>(n);
}

void RankSchedule::number_edges() {
  edge_keys.clear();
  edge_keys.reserve(static_cast<std::size_t>(total_sends() + total_waits()));
  for (const Step& st : steps) {
    for (const Edge& e : st.sends) edge_keys.push_back(edge_key(e.peer, e.tag));
    for (const Edge& e : st.waits) edge_keys.push_back(edge_key(e.peer, e.tag));
  }
  std::sort(edge_keys.begin(), edge_keys.end());
  edge_keys.erase(std::unique(edge_keys.begin(), edge_keys.end()), edge_keys.end());
  for (Step& st : steps) {
    for (Edge& e : st.sends) e.id = find_edge(e.peer, e.tag);
    for (Edge& e : st.waits) e.id = find_edge(e.peer, e.tag);
  }
}

bool RankSchedule::numbered() const {
  const auto valid = [this](const Edge& e) { return e.id < edge_keys.size(); };
  return std::all_of(steps.begin(), steps.end(), [&valid](const Step& st) {
    return std::all_of(st.sends.begin(), st.sends.end(), valid) &&
           std::all_of(st.waits.begin(), st.waits.end(), valid);
  });
}

EdgeId RankSchedule::find_edge(int peer, std::uint32_t tag) const {
  // Branch-free lower bound: arrivals come in no order a predictor learns.
  const std::uint64_t key = edge_key(peer, tag);
  std::size_t n = edge_keys.size();
  if (n == 0) return kNoEdge;
  const std::uint64_t* base = edge_keys.data();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half - 1] < key ? base + half : base;
    n -= half;
  }
  if (*base != key) return kNoEdge;
  return static_cast<EdgeId>(base - edge_keys.data());
}

namespace {

[[nodiscard]] GroupSchedule numbered(GroupSchedule g) {
  for (RankSchedule& r : g.ranks) r.number_edges();
  return g;
}

}  // namespace

GroupSchedule make_barrier_schedule(Algorithm algorithm, int n, int radix) {
  if (n < 1) throw std::invalid_argument("barrier group needs >= 1 rank");
  if (algorithm == Algorithm::kRotation) {
    throw std::invalid_argument(
        "rotation labels the alltoall ring; it is not a barrier algorithm");
  }
  if (radix == 1) {
    // Degree-1 trees degenerate to O(n) chains; callers always mean either
    // "the default" (0) or a real fan-out (>= 2).
    throw std::invalid_argument("barrier radix must be 0 (default) or >= 2");
  }
  if (n == 1) {
    GroupSchedule g;
    g.algorithm = algorithm;
    g.size = 1;
    g.ranks.resize(1);
    return g;
  }
  switch (algorithm) {
    case Algorithm::kDissemination: return numbered(make_dissemination(n));
    case Algorithm::kPairwiseExchange: return numbered(make_pairwise_exchange(n));
    case Algorithm::kGatherBroadcast:
      return numbered(make_gather_broadcast(n, radix > 0 ? radix : 2));
    case Algorithm::kTree: return numbered(make_binomial_tree(n));
    case Algorithm::kTournament: return numbered(make_tournament(n));
    case Algorithm::kFwayDissemination:
      return numbered(make_fway_dissemination(n, radix > 0 ? radix : 4));
    case Algorithm::kRemoteAtomic: {
      // The central-counter barrier of verbs MPI libraries: every rank
      // bumps a counter on rank 0, whose last arrival releases them all.
      // As a schedule that is the gather-broadcast star.
      GroupSchedule g = make_gather_broadcast(n, std::max(2, n - 1));
      g.algorithm = Algorithm::kRemoteAtomic;
      return numbered(std::move(g));
    }
    case Algorithm::kRotation: break;  // rejected above
  }
  throw std::invalid_argument("unknown algorithm");
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

GroupSchedule make_bcast_schedule(int n, int root, int tree_degree) {
  if (n < 1) throw std::invalid_argument("bcast group needs >= 1 rank");
  if (root < 0 || root >= n) throw std::invalid_argument("bcast root out of range");
  if (tree_degree < 1) throw std::invalid_argument("tree degree must be >= 1");
  GroupSchedule g;
  g.algorithm = Algorithm::kGatherBroadcast;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  // Tree on virtual ranks v = (r - root) mod n, so `root` is virtual rank 0.
  //
  // The payload fans out on kTagDown edges; an ACK phase combines back up
  // on kTagUp edges (as in the paper's NIC-multicast companion work). The
  // ACK phase is what keeps consecutive broadcasts pipelined by at most one
  // operation: without it the root completes instantly and can race
  // arbitrarily far ahead of the leaves, which no fixed-depth operation
  // window could absorb.
  const auto real = [&](int v) { return (v + root) % n; };
  for (int v = 0; v < n; ++v) {
    auto& rs = g.ranks[static_cast<std::size_t>(real(v))];
    std::vector<int> children;
    for (int c = tree_degree * v + 1; c <= tree_degree * v + tree_degree && c < n; ++c) {
      children.push_back(c);
    }
    if (v == 0) {
      if (!children.empty()) {
        Step release;
        for (int c : children) release.sends.push_back({real(c), kTagDown});
        rs.steps.push_back(std::move(release));
        Step gather;
        for (int c : children) gather.waits.push_back({real(c), kTagUp});
        rs.steps.push_back(std::move(gather));
      }
      continue;
    }
    const int parent = (v - 1) / tree_degree;
    Step recv;
    recv.waits.push_back({real(parent), kTagDown});
    rs.steps.push_back(std::move(recv));
    if (!children.empty()) {
      Step fwd;
      for (int c : children) fwd.sends.push_back({real(c), kTagDown});
      rs.steps.push_back(std::move(fwd));
      Step gather;
      for (int c : children) gather.waits.push_back({real(c), kTagUp});
      rs.steps.push_back(std::move(gather));
    }
    Step ack;
    ack.sends.push_back({real(parent), kTagUp});
    rs.steps.push_back(std::move(ack));
  }
  return numbered(std::move(g));
}

GroupSchedule make_binomial_bcast_schedule(int n, int root) {
  if (n < 1) throw std::invalid_argument("bcast group needs >= 1 rank");
  if (root < 0 || root >= n) throw std::invalid_argument("bcast root out of range");
  GroupSchedule g;
  g.algorithm = Algorithm::kTree;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  // Binomial tree on virtual ranks v = (r - root) mod n: v's parent is v
  // minus its lowest set bit, its children are v + 2^k for every 2^k below
  // that bit (and < n). Phase order matches make_bcast_schedule — payload
  // down first, ACKs combine back up — so the root cannot race ahead of
  // the leaves by more than one operation.
  const auto real = [&](int v) { return (v + root) % n; };
  for (int v = 0; v < n; ++v) {
    auto& rs = g.ranks[static_cast<std::size_t>(real(v))];
    int parent = -1;
    std::vector<int> children;
    for (int m = 1; m < n; m *= 2) {
      if ((v & m) != 0) {
        parent = v - m;
        break;
      }
      if (v + m < n) children.push_back(v + m);
    }
    if (parent >= 0) {
      Step recv;
      recv.waits.push_back({real(parent), kTagDown});
      rs.steps.push_back(std::move(recv));
    }
    if (!children.empty()) {
      Step fwd;
      for (int c : children) fwd.sends.push_back({real(c), kTagDown});
      rs.steps.push_back(std::move(fwd));
      Step gather;
      for (int c : children) gather.waits.push_back({real(c), kTagUp});
      rs.steps.push_back(std::move(gather));
    }
    if (parent >= 0) {
      Step ack;
      ack.sends.push_back({real(parent), kTagUp});
      rs.steps.push_back(std::move(ack));
    }
  }
  return numbered(std::move(g));
}

GroupSchedule make_allreduce_schedule(int n) {
  // Recursive doubling: exchange partials, then release the extra ranks
  // with the final result. The pairwise-exchange barrier schedule already
  // has exactly this structure; only the payload semantics differ.
  return make_barrier_schedule(Algorithm::kPairwiseExchange, n);
}

GroupSchedule make_fway_allreduce_schedule(int n, int f) {
  if (n < 1) throw std::invalid_argument("allreduce group needs >= 1 rank");
  if (f <= 0) f = 4;
  if (f < 2) throw std::invalid_argument("f-way allreduce needs radix >= 2");
  GroupSchedule g;
  g.algorithm = Algorithm::kFwayDissemination;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  if (n == 1) return g;
  // The dissemination barrier's skip-distances double-count contributions
  // under a non-idempotent reduction on arbitrary n, so the value-carrying
  // variant restricts the exchange rounds to the largest power-of-f block
  // m: after round k every block rank holds the sum of the f^(k+1)
  // contiguous ranks ending at itself, and those source blocks tile with no
  // overlap. Ranks >= m register with base i mod m up front (kTagPre,
  // summed) and wait for the final result (kTagPost, replaces).
  long long m = 1;
  while (m * static_cast<long long>(f) <= n) m *= f;
  const int base_count = static_cast<int>(m);
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    if (i >= base_count) {
      Step pre;
      pre.sends.push_back({i % base_count, kTagPre});
      rs.steps.push_back(std::move(pre));
      Step post;
      post.waits.push_back({i % base_count, kTagPost});
      rs.steps.push_back(std::move(post));
      continue;
    }
    std::vector<int> extras;
    for (int e = i + base_count; e < n; e += base_count) extras.push_back(e);
    if (!extras.empty()) {
      Step pre;
      for (int e : extras) pre.waits.push_back({e, kTagPre});
      rs.steps.push_back(std::move(pre));
    }
    int round = 0;
    for (long long unit = 1; unit < base_count; unit *= f, ++round) {
      Step st;
      for (int j = 1; j < f; ++j) {
        const int d = static_cast<int>((static_cast<long long>(j) * unit) % base_count);
        st.sends.push_back({(i + d) % base_count, static_cast<std::uint32_t>(round)});
        st.waits.push_back({(i - d + base_count) % base_count,
                            static_cast<std::uint32_t>(round)});
      }
      rs.steps.push_back(std::move(st));
    }
    if (!extras.empty()) {
      Step post;
      for (int e : extras) post.sends.push_back({e, kTagPost});
      rs.steps.push_back(std::move(post));
    }
  }
  return numbered(std::move(g));
}

GroupSchedule make_allgather_schedule(int n) {
  return make_barrier_schedule(Algorithm::kDissemination, n);
}

GroupSchedule make_alltoall_schedule(int n) {
  if (n < 1) throw std::invalid_argument("alltoall group needs >= 1 rank");
  GroupSchedule g;
  g.algorithm = Algorithm::kRotation;
  g.size = n;
  g.ranks.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& rs = g.ranks[static_cast<std::size_t>(i)];
    for (int r = 1; r < n; ++r) {
      Step st;
      st.sends.push_back({(i + r) % n, static_cast<std::uint32_t>(r - 1)});
      st.waits.push_back({(i - r + n) % n, static_cast<std::uint32_t>(r - 1)});
      rs.steps.push_back(std::move(st));
    }
  }
  return numbered(std::move(g));
}

bool schedule_is_correct_barrier(const GroupSchedule& schedule) {
  // Virtual execution with knowledge propagation: every message carries the
  // sender's current knowledge set; a correct barrier ends with every rank
  // knowing every other rank and every executor complete. Hand-built
  // schedules arrive unnumbered; the executors walk a numbered copy.
  const GroupSchedule g = numbered(schedule);
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

  std::vector<std::unique_ptr<ScheduleExecutor>> exec(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    exec[static_cast<std::size_t>(i)] = std::make_unique<ScheduleExecutor>(
        g.ranks[static_cast<std::size_t>(i)],
        [&, i](const Edge& e) {
          wire.push_back(Msg{i, e.peer, e.tag, knows[static_cast<std::size_t>(i)]});
        },
        [] {});
  }
  for (auto& e : exec) e->start();

  while (!wire.empty()) {
    Msg m = std::move(wire.front());
    wire.pop_front();
    if (m.dst < 0 || m.dst >= n) return false;
    auto& dst_knows = knows[static_cast<std::size_t>(m.dst)];
    for (int r = 0; r < n; ++r) {
      if (m.carried[static_cast<std::size_t>(r)]) dst_knows[static_cast<std::size_t>(r)] = true;
    }
    exec[static_cast<std::size_t>(m.dst)]->on_arrival(m.src, m.tag);
  }

  for (int i = 0; i < n; ++i) {
    if (!exec[static_cast<std::size_t>(i)]->complete()) return false;
    for (int r = 0; r < n; ++r) {
      if (!knows[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)]) return false;
    }
  }
  return true;
}

ScheduleExecutor::ScheduleExecutor(const RankSchedule& schedule, SendFn send,
                                   CompleteFn complete)
    : schedule_(&schedule),
      send_(std::move(send)),
      complete_(std::move(complete)),
      sent_(schedule.edge_count()),
      arrived_(schedule.edge_count()) {
  if (!schedule.numbered()) {
    throw std::invalid_argument("schedule executor needs numbered edges (number_edges)");
  }
}

void ScheduleExecutor::start() {
  assert(!started_ && "start() on a running executor; reset() first");
  started_ = true;
  step_ = 0;
  advance();
}

bool ScheduleExecutor::on_arrival(int peer, std::uint32_t tag) {
  const EdgeId id = schedule_->find_edge(peer, tag);
  if (id != kNoEdge) return on_arrival(id);
  // On no schedule edge: remembered once, so a repeat reads as a duplicate,
  // but it satisfies no wait and never advances a step.
  const std::uint64_t key = RankSchedule::edge_key(peer, tag);
  if (std::find(stray_.begin(), stray_.end(), key) != stray_.end()) return false;
  stray_.push_back(key);
  return true;
}

bool ScheduleExecutor::on_arrival(EdgeId id) {
  if (!arrived_.set(id)) return false;  // duplicate
  if (started_ && !complete()) advance();
  return true;
}

void ScheduleExecutor::reset() {
  arrived_.clear();
  sent_.clear();
  stray_.clear();
  step_ = 0;
  started_ = false;
}

std::vector<Edge> ScheduleExecutor::missing_current_waits() const {
  std::vector<Edge> missing;
  if (!started_ || complete()) return missing;
  for (const Edge& w : schedule_->steps[step_].waits) {
    if (!arrived_.test(w.id)) missing.push_back(w);
  }
  return missing;
}

bool ScheduleExecutor::has_sent(int peer, std::uint32_t tag) const {
  const EdgeId id = schedule_->find_edge(peer, tag);
  return id != kNoEdge && sent_.test(id);
}

void ScheduleExecutor::advance() {
  // Issue sends of each newly entered step, then stop at the first step
  // whose waits are not yet satisfied. Step entry is detected by whether its
  // sends were issued (the sent bits act as the entry marker; a key repeated
  // across steps is sent once).
  while (step_ < schedule_->steps.size()) {
    const Step& st = schedule_->steps[step_];
    for (const Edge& s : st.sends) {
      if (sent_.set(s.id)) send_(s);
    }
    for (const Edge& w : st.waits) {
      if (!arrived_.test(w.id)) return;
    }
    if (consume_ && !st.waits.empty()) consume_(st);
    ++step_;
  }
  complete_();
}

}  // namespace qmb::coll
