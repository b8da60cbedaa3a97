// Barrier communication schedules (paper Sec. 5, Figs. 2-4).
//
// A GroupSchedule is the full message pattern of one collective operation:
// for every rank, an ordered list of steps, each step issuing sends on entry
// and blocking until its expected receives arrive. The barrier algorithms:
//
//  * gather-broadcast   — d-ary tree, combine to root, fan back out
//                         (2 log_d N steps); at degree N-1 it is the
//                         central-counter star of verbs MPI libraries
//  * pairwise-exchange  — MPICH recursive doubling (log2 N steps, +2 for
//                         non-powers of two)
//  * dissemination      — Mellor-Crummey/Scott (ceil(log2 N) steps always)
//  * tree               — binomial tree: rank-dependent fan-in (rank 0 has
//                         log2 N children), combine up, release down
//  * tournament         — Mellor-Crummey/Scott tournament: statically
//                         paired rounds, losers signal winners, the
//                         champion wakes its losers in reverse round order
//  * fway-dissemination — radix-f dissemination: ceil(log_f N) rounds of
//                         f-1 sends each (f = the radix parameter)
//
// Four shared builders make every schedule but the tournament and the
// alltoall rotation ring: f-way dissemination rounds, XOR exchange rounds,
// the extra-rank fold and one rooted tree. One table beside them picks the
// builder for each (op kind, algorithm) pair, and the legal-algorithm lists
// are read off that table.
//
// The schedule is *data*: the same GroupSchedule drives the host-based GM
// barrier, the direct NIC scheme, the NIC collective protocol, and the
// Quadrics chained-RDMA barrier, each walked step by step by a
// coll::GroupWindow (group_window.hpp). Every builder, and every hand-built
// test schedule, writes through ScheduleWriter, which numbers each rank's
// distinct (peer, tag) edges as the rank ends and stores the rank in one
// block: its sorted edge keys, its step bounds and its step edges. A
// window's bookkeeping is bit vectors over those edge ids, not hash sets of
// messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace qmb::coll {

enum class Algorithm {
  kGatherBroadcast,
  kPairwiseExchange,
  kDissemination,
  kTree,
  kTournament,
  kFwayDissemination,
};

/// Every Algorithm value, in a fixed order shared by tests, the fuzzer's
/// coverage accounting, and the spec JSON codec.
inline constexpr Algorithm kBarrierAlgorithms[] = {
    Algorithm::kGatherBroadcast, Algorithm::kPairwiseExchange,
    Algorithm::kDissemination,   Algorithm::kTree,
    Algorithm::kTournament,      Algorithm::kFwayDissemination,
};

/// Immutable rank -> fabric-node map shared by every NIC-side group
/// descriptor of one collective. A per-NIC copy is O(N) ints, which across
/// N NICs is O(N^2) — 64 MB of placement tables at 4096 nodes. One shared
/// table keeps per-node group state O(1) in the placement.
using Placement = std::shared_ptr<const std::vector<int>>;

[[nodiscard]] inline Placement make_placement(std::vector<int> rank_to_node) {
  return std::make_shared<const std::vector<int>>(std::move(rank_to_node));
}

[[nodiscard]] std::string_view to_string(Algorithm a);

/// Parses the names to_string(Algorithm) emits ("dissemination",
/// "gather-broadcast", ...).
[[nodiscard]] std::optional<Algorithm> parse_algorithm(std::string_view s);

// Tag namespaces. Plain exchange rounds use small step indices; the named
// sentinels mark the pre/post steps of the extra-rank fold and the two
// phases of the rooted tree. Value-carrying collectives use the
// distinction: messages with a *result* tag carry a final value (replace),
// everything else carries a partial (combine).
inline constexpr std::uint32_t kTagPre = 0x100;   // fold: extra rank registers with partner
inline constexpr std::uint32_t kTagPost = 0x101;  // fold: partner releases extra rank
inline constexpr std::uint32_t kTagUp = 0x200;    // tree: combine (or ACK) toward the root
inline constexpr std::uint32_t kTagDown = 0x201;  // tree: release (or payload) from the root
inline constexpr std::uint32_t kTagWake = 0x202;  // tournament: champion-derived wakeup

/// True for tags whose payload is a completed result rather than a partial.
[[nodiscard]] constexpr bool is_result_tag(std::uint32_t tag) {
  return tag == kTagPost || tag == kTagDown || tag == kTagWake;
}

/// What a collective operation computes over its one-word payloads.
enum class OpKind : std::uint8_t { kBarrier, kBcast, kAllreduce, kAllgather, kAlltoall };

[[nodiscard]] std::string_view to_string(OpKind k);

/// Parses the names to_string(OpKind) emits ("barrier", "bcast", ...),
/// plus the CLI alias "reduce" for kAllreduce.
[[nodiscard]] std::optional<OpKind> parse_op_kind(std::string_view s);

enum class ReduceOp : std::uint8_t { kSum, kMin, kMax };

/// Payload folding rule shared by the NIC engine and host-level executors:
/// barrier payloads are ignored, bcast and result-tagged edges replace,
/// allgather unions bit masks, allreduce applies the reduction.
[[nodiscard]] std::int64_t combine_value(OpKind kind, ReduceOp op, std::uint32_t tag,
                                         std::int64_t acc, std::int64_t incoming);

/// Words of payload a message carries (allgather messages grow with the
/// number of gathered contributions; everything else is one integer).
[[nodiscard]] int value_words(OpKind kind, std::int64_t value);

/// Payload words for a specific schedule edge: broadcast ACKs (kTagUp) are
/// pure notifications and carry no data.
[[nodiscard]] inline int edge_payload_words(OpKind kind, std::uint32_t tag,
                                            std::int64_t value) {
  if (kind == OpKind::kBcast && tag == kTagUp) return 0;
  return value_words(kind, value);
}

/// Number of one distinct (peer, tag) pair in a rank's schedule: its bit
/// in a GroupWindow slot's sent/arrived vectors and its slot in the
/// per-edge value arrays (paper Sec. 6.3's bit vector of expected messages).
using EdgeId = std::uint32_t;
inline constexpr EdgeId kNoEdge = ~EdgeId{0};

/// One directed barrier message: this rank -> `peer`, labeled `tag`.
struct Edge {
  int peer = -1;
  std::uint32_t tag = 0;
  EdgeId id = kNoEdge;  // numbered when ScheduleWriter ends the rank
  friend bool operator==(const Edge&, const Edge&) = default;
};

/// One rank's numbered schedule, in one heap block:
///
///   keys   edge_count() x u64   every distinct (peer, tag) key, ascending;
///                               an edge's id is its key's index
///   bounds 2 x steps + 1 x u32  step s sends edges [b[2s], b[2s+1]) and
///                               waits on edges [b[2s+1], b[2s+2])
///   edges  b[2 x steps] x Edge  every step's sends, then its waits
///
/// Entering a step issues its sends; the step completes when every wait has
/// arrived. A send and a wait with the same key (a pairwise exchange) share
/// one id. Only ScheduleWriter builds one, so every rank is numbered.
class RankSchedule {
 public:
  [[nodiscard]] std::size_t step_count() const { return steps_; }
  [[nodiscard]] std::span<const Edge> sends(std::size_t step) const {
    return {edges() + bounds()[2 * step], edges() + bounds()[2 * step + 1]};
  }
  [[nodiscard]] std::span<const Edge> waits(std::size_t step) const {
    return {edges() + bounds()[2 * step + 1], edges() + bounds()[2 * step + 2]};
  }
  [[nodiscard]] std::span<const std::uint64_t> edge_keys() const { return {keys(), keys_}; }
  [[nodiscard]] std::size_t edge_count() const { return keys_; }

  [[nodiscard]] int total_sends() const;
  [[nodiscard]] int total_waits() const;

  /// The id of (peer, tag), or kNoEdge when no send or wait carries it.
  [[nodiscard]] EdgeId find_edge(int peer, std::uint32_t tag) const;

  [[nodiscard]] static std::uint64_t edge_key(int peer, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer)) << 32) | tag;
  }

 private:
  friend class ScheduleWriter;
  RankSchedule() = default;

  // The three arrays were constructed in block_ by ScheduleWriter.
  [[nodiscard]] const std::uint64_t* keys() const {
    return std::launder(reinterpret_cast<const std::uint64_t*>(block_.get()));
  }
  [[nodiscard]] const std::uint32_t* bounds() const {
    return std::launder(
        reinterpret_cast<const std::uint32_t*>(block_.get() + keys_ * sizeof(std::uint64_t)));
  }
  [[nodiscard]] const Edge* edges() const {
    return std::launder(reinterpret_cast<const Edge*>(
        block_.get() + keys_ * sizeof(std::uint64_t) + (2 * steps_ + 1) * sizeof(std::uint32_t)));
  }

  struct Release {
    void operator()(std::byte* block) const { ::operator delete(block); }
  };
  std::unique_ptr<std::byte, Release> block_;  // from ::operator new
  std::uint32_t keys_ = 0;
  std::uint32_t steps_ = 0;
};

struct GroupSchedule {
  int size = 0;
  std::vector<RankSchedule> ranks;

  [[nodiscard]] int total_messages() const;
  [[nodiscard]] int max_steps() const;
};

/// The one way to write a schedule: every builder and every hand-built test
/// schedule appends each rank's steps through it. Sends and waits go to the
/// open step, end_step() closes it, and once a rank's steps are written the
/// writer numbers its edges and copies them into the rank's block. Its
/// buffers are reused from rank to rank, so a schedule costs one
/// allocation per rank.
class ScheduleWriter {
 public:
  void send(int peer, std::uint32_t tag) { edges_.push_back({peer, tag}); }
  void wait(int peer, std::uint32_t tag) { waits_.push_back({peer, tag}); }
  /// Closes the open step, which may be empty.
  void end_step();

  /// The n-rank schedule whose rank i's steps `write_rank(writer, i)`
  /// writes, for i = 0 .. n - 1 in order. Each rank must close its last
  /// step.
  template <typename WriteRank>
  [[nodiscard]] static GroupSchedule build(int n, WriteRank&& write_rank) {
    GroupSchedule g;
    g.size = n;
    g.ranks.reserve(static_cast<std::size_t>(n));
    ScheduleWriter w;
    for (int i = 0; i < n; ++i) {
      write_rank(w, i);
      g.ranks.push_back(w.end_rank());
    }
    return g;
  }

 private:
  ScheduleWriter() = default;
  /// Numbers the rank's edges, moves it into one block and clears the
  /// buffers for the next rank.
  RankSchedule end_rank();

  std::vector<Edge> edges_;                // the rank's closed steps, then the open step's sends
  std::vector<Edge> waits_;                // the open step's waits
  std::vector<std::uint32_t> bounds_{0};   // the layout's bounds of the closed steps
  std::vector<std::uint64_t> keys_;        // numbering scratch
};

/// One collective's schedule, built (and numbered) once and shared
/// read-only by every member's group descriptor. Nothing writes it after
/// construction, so NICs in different PDES domains read it freely.
using SharedSchedule = std::shared_ptr<const GroupSchedule>;

/// Builds the schedule for an N-rank operation of `kind`. `algorithm`
/// selects the pattern (kDissemination is each kind's canonical default),
/// `radix` the tree degree or dissemination fan-out (<= 0: the pattern's own
/// default, degree 2 or radix 4; any radix above N + 1 builds the N + 1
/// schedule), and `root` the bcast root. Throws std::invalid_argument for
/// N < 1, radix 1, a bcast root outside [0, N), and (kind, algorithm) pairs
/// with no value-correct schedule — the pairs collective_algorithms_for
/// does not list.
[[nodiscard]] GroupSchedule make_collective_schedule(
    OpKind kind, int n, int root, Algorithm algorithm = Algorithm::kDissemination,
    int radix = 0);

/// make_collective_schedule for a barrier.
[[nodiscard]] inline GroupSchedule make_barrier_schedule(Algorithm algorithm, int n,
                                                         int radix = 0) {
  return make_collective_schedule(OpKind::kBarrier, n, 0, algorithm, radix);
}

/// The algorithms make_collective_schedule accepts for `kind`, in its
/// table's order: the single source of every legal-algorithm list
/// (run::caps_algorithms, validate()'s error text, the fuzzer's case
/// space). Value kinds only list algorithms whose schedule provably
/// combines that kind's payloads (plain dissemination double-counts a sum,
/// so allreduce maps its kDissemination default to recursive doubling).
[[nodiscard]] const std::vector<Algorithm>& collective_algorithms_for(OpKind kind);

/// Whether the (kind, algorithm) schedule has a radix to set: the tree
/// degree of gather-broadcast, the fan-out of f-way dissemination. False
/// for every other pair, legal or not.
[[nodiscard]] bool takes_radix(OpKind kind, Algorithm algorithm);

/// Verifies the "full information" barrier property: following schedule
/// edges in step order, every rank's exit transitively depends on every
/// rank's entry. Returns true when the schedule is a correct barrier.
[[nodiscard]] bool schedule_is_correct_barrier(const GroupSchedule& s);

}  // namespace qmb::coll
