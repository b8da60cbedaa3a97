#include "myrinet/pci_bus.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "move_counter.hpp"

namespace qmb::myri {
namespace {

using namespace qmb::sim::literals;
using sim::Engine;
using sim::SimTime;

PciConfig pci66() {
  PciConfig c;
  c.bytes_per_second = 528e6;
  c.pio_write = 450_ns;
  c.dma_overhead = 900_ns;
  return c;
}

TEST(PciBus, PioWriteTakesConfiguredTime) {
  Engine e;
  PciBus bus(e, pci66());
  SimTime done;
  bus.pio_write([&] { done = e.now(); });
  e.run();
  EXPECT_EQ(done, SimTime(450'000));
  EXPECT_EQ(bus.pio_writes(), 1u);
}

TEST(PciBus, DmaPaysOverheadPlusBandwidth) {
  Engine e;
  PciBus bus(e, pci66());
  SimTime done;
  bus.dma(528, [&] { done = e.now(); });  // 528B at 528MB/s = 1us
  e.run();
  EXPECT_EQ(done, SimTime(900'000 + 1'000'000));
  EXPECT_EQ(bus.dmas(), 1u);
  EXPECT_EQ(bus.dma_bytes(), 528u);
}

TEST(PciBus, TransactionsMoveCallbackOnceInOnceOut) {
  // pio_write and dma forward by rvalue reference into Resource::exec: the
  // callback costs the event path's three moves (functor into Callback,
  // Callback into its queue slot, slot into the fired event) and no more.
  using testutil::MoveCounter;
  EXPECT_EQ(testutil::moves_until_fired([](Engine& e, MoveCounter&& fn) {
              PciBus(e, pci66()).pio_write(std::move(fn));
            }),
            3);
  EXPECT_EQ(testutil::moves_until_fired([](Engine& e, MoveCounter&& fn) {
              PciBus(e, pci66()).dma(528, std::move(fn));
            }),
            3);
}

TEST(PciBus, TransactionsSerialize) {
  Engine e;
  PciBus bus(e, pci66());
  std::vector<std::int64_t> done;
  bus.dma(528, [&] { done.push_back(e.now().picos()); });
  bus.pio_write([&] { done.push_back(e.now().picos()); });
  e.run();
  // The PIO waits for the DMA: 1.9us + 0.45us.
  EXPECT_EQ(done, (std::vector<std::int64_t>{1'900'000, 2'350'000}));
}

TEST(PciBus, ZeroByteDmaStillPaysOverhead) {
  Engine e;
  PciBus bus(e, pci66());
  SimTime done;
  bus.dma(0, [&] { done = e.now(); });
  e.run();
  EXPECT_EQ(done, SimTime(900'000));
}

TEST(PciBus, PciXIsFasterThanPci) {
  Engine e;
  PciBus slow(e, pci66());
  PciConfig fast_cfg;
  fast_cfg.bytes_per_second = 1064e6;
  fast_cfg.dma_overhead = 500_ns;
  fast_cfg.pio_write = 250_ns;
  PciBus fast(e, fast_cfg);
  EXPECT_GT(slow.transfer_time(4096).picos(), fast.transfer_time(4096).picos());
}

TEST(PciBus, TracksBusyTime) {
  Engine e;
  PciBus bus(e, pci66());
  bus.pio_write(nullptr);
  bus.pio_write(nullptr);
  e.run();
  EXPECT_EQ(bus.total_busy(), 900_ns);
}

}  // namespace
}  // namespace qmb::myri
