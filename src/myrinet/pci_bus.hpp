// Host I/O bus model (PCI / PCI-X).
//
// The bus is a shared half-duplex resource: programmed-I/O doorbell writes
// and DMA transfers in either direction serialize on it. Every DMA pays a
// per-transaction overhead (arbitration, address phase, first data) plus
// bytes at the bus bandwidth. This is the resource whose round trips the
// NIC-based barrier removes from the critical path (Sec. 1-3 of the paper).
#pragma once

#include <cstdint>

#include "myrinet/config.hpp"
#include "sim/resource.hpp"

namespace qmb::myri {

class PciBus {
 public:
  PciBus(sim::Engine& engine, PciConfig config)
      : bus_(engine), config_(config) {}

  /// Posted doorbell/register write host -> NIC. `fn` runs when the write
  /// reaches the NIC.
  sim::SimTime pio_write(sim::EventCallback&& fn) {
    ++pio_writes_;
    return bus_.exec(config_.pio_write, std::move(fn));
  }

  /// DMA of `bytes` (either direction; the bus does not care). `fn` runs at
  /// transfer completion.
  sim::SimTime dma(std::uint32_t bytes, sim::EventCallback&& fn) {
    ++dmas_;
    dma_bytes_ += bytes;
    return bus_.exec(config_.dma_overhead + transfer_time(bytes), std::move(fn));
  }

  [[nodiscard]] sim::SimDuration transfer_time(std::uint32_t bytes) const {
    const double picos = static_cast<double>(bytes) / config_.bytes_per_second * 1e12;
    return sim::SimDuration(static_cast<std::int64_t>(picos + 0.5));
  }

  [[nodiscard]] std::uint64_t pio_writes() const { return pio_writes_; }
  [[nodiscard]] std::uint64_t dmas() const { return dmas_; }
  [[nodiscard]] std::uint64_t dma_bytes() const { return dma_bytes_; }
  [[nodiscard]] sim::SimDuration total_busy() const { return bus_.total_busy(); }

 private:
  sim::Resource bus_;
  PciConfig config_;
  std::uint64_t pio_writes_ = 0;
  std::uint64_t dmas_ = 0;
  std::uint64_t dma_bytes_ = 0;
};

}  // namespace qmb::myri
