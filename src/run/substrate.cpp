#include "run/substrate.hpp"

#include <algorithm>
#include <stdexcept>

#include "run/substrate_internal.hpp"

namespace qmb::run {
namespace {

const std::vector<Impl>& legal_impls(const SubstrateCaps& caps, coll::OpKind op) {
  // Value collectives run on the nic and host engines everywhere.
  static const std::vector<Impl> collective_impls = {Impl::kNic, Impl::kHost};
  return op == coll::OpKind::kBarrier ? caps.barrier_impls : collective_impls;
}

}  // namespace

const std::vector<const Substrate*>& substrates() {
  // Explicit registration in a fixed order — no static-initialization or
  // dead-stripping surprises, and the order is the one users see.
  static const std::vector<const Substrate*> all = {
      &detail::myrinet_xp_substrate(),
      &detail::myrinet_l9_substrate(),
      &detail::quadrics_substrate(),
      &detail::ib_substrate(),
  };
  return all;
}

const Substrate& substrate_for(Network n) {
  for (const Substrate* s : substrates()) {
    if (s->network() == n) return *s;
  }
  throw std::logic_error("network enumerator has no registered substrate");
}

const Substrate* find_substrate(std::string_view name) {
  for (const Substrate* s : substrates()) {
    if (s->name() == name) return s;
  }
  return nullptr;
}

std::string substrate_names(std::string_view sep) {
  std::string out;
  for (const Substrate* s : substrates()) {
    if (!out.empty()) out += sep;
    out += s->name();
  }
  return out;
}

std::string loss_capable_names(std::string_view sep) {
  std::string out;
  for (const Substrate* s : substrates()) {
    if (!s->caps().loss_recovery) continue;
    if (!out.empty()) out += sep;
    out += s->name();
  }
  return out;
}

bool caps_allow(const SubstrateCaps& caps, coll::OpKind op, Impl impl) {
  const std::vector<Impl>& legal = legal_impls(caps, op);
  return std::find(legal.begin(), legal.end(), impl) != legal.end();
}

std::string caps_impl_list(const SubstrateCaps& caps, coll::OpKind op) {
  std::string out;
  for (const Impl i : legal_impls(caps, op)) {
    if (!out.empty()) out += ", ";
    out += to_string(i);
  }
  return out;
}

const std::vector<coll::Algorithm>& caps_algorithms(coll::OpKind op) {
  return coll::collective_algorithms_for(op);
}

bool caps_allow_algorithm(coll::OpKind op, coll::Algorithm a) {
  const std::vector<coll::Algorithm>& legal = caps_algorithms(op);
  return std::find(legal.begin(), legal.end(), a) != legal.end();
}

std::string caps_algorithm_list(coll::OpKind op) {
  std::string out;
  for (const coll::Algorithm a : caps_algorithms(op)) {
    if (!out.empty()) out += ", ";
    out += algorithm_cli_name(a);
  }
  return out;
}

coll::CollSpec coll_spec_of(const ExperimentSpec& spec, std::vector<int> placement) {
  return {.op = spec.op,
          .engine = spec.impl == Impl::kHost ? coll::Engine::kHost : coll::Engine::kNic,
          .algorithm = spec.algorithm,
          .radix = spec.radix,
          .rank_to_node = std::move(placement)};
}

}  // namespace qmb::run
