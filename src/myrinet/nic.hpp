// LANai NIC model: a single firmware processor (serialized Resource) attached
// to one fabric port and one host PCI bus.
//
// All protocol work — MCP point-to-point processing and the collective
// protocol — executes on this processor at cycle costs from LanaiConfig, so
// firmware occupancy is shared between paths exactly as on the real card:
// a NIC busy acknowledging point-to-point traffic delays barrier triggering,
// and vice versa.
#pragma once

#include <cstdint>
#include <functional>

#include "myrinet/config.hpp"
#include "myrinet/pci_bus.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "sim/resource.hpp"
#include "sim/trace.hpp"

namespace qmb::myri {

class Nic {
 public:
  using PacketHandler = std::function<void(net::Packet&&)>;

  Nic(sim::Engine& engine, net::Fabric& fabric, PciBus& pci,
      const MyrinetConfig& config, int node_index, sim::Tracer* tracer);

  /// Runs `fn` after the firmware processor spends `cyc` cycles, FIFO after
  /// any work already queued on it.
  void exec(std::uint32_t cyc, sim::EventCallback&& fn) {
    cpu_.exec(config_->lanai.cycles(cyc), std::move(fn));
  }

  /// Injects a packet into the fabric (wire timing handled by the fabric);
  /// returns the fabric-assigned flow id for trace correlation.
  std::uint64_t inject(net::Packet&& p) { return fabric_->send(std::move(p)); }

  /// Installs the packet dispatcher (one per NIC; typically set by the node
  /// wiring to fan out between MCP and the collective engine).
  void set_packet_handler(PacketHandler h) { handler_ = std::move(h); }

  [[nodiscard]] net::NicAddr addr() const { return addr_; }
  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] const MyrinetConfig& config() const { return *config_; }
  [[nodiscard]] const LanaiConfig& lanai() const { return config_->lanai; }
  [[nodiscard]] PciBus& pci() { return *pci_; }
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] sim::Resource& cpu() { return cpu_; }
  [[nodiscard]] sim::Tracer* tracer() { return tracer_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }

  /// Records a protocol trace event; `flow` (when non-zero) correlates it
  /// with the fabric packet carrying this protocol step.
  void trace(std::string_view event, std::int64_t a = 0, std::int64_t b = 0,
             std::int64_t flow = 0);

 private:
  sim::Engine* engine_;
  net::Fabric* fabric_;
  PciBus* pci_;
  const MyrinetConfig* config_;
  int node_;
  sim::Tracer* tracer_;
  std::uint16_t trace_comp_ = 0;  // interned "nic"
  sim::Resource cpu_;
  net::NicAddr addr_;
  PacketHandler handler_;
  // Packets discarded by the inbound CRC check (fault-injected corruption);
  // registered as "nic.crc_dropped" so runs can account for every corrupt
  // action the injector fired.
  obs::Counter crc_dropped_;
};

}  // namespace qmb::myri
