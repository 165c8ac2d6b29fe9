#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "net/fabric_model.hpp"
#include "net/framing.hpp"
#include "net/machine.hpp"
#include "support/clock.hpp"
#include "support/error.hpp"

namespace sage::net {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string string_of(std::span<const std::byte> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// --- fabric model -----------------------------------------------------------

TEST(FabricModelTest, BoardTopology) {
  FabricModel m = myrinet_fabric();
  ASSERT_EQ(m.nodes_per_board, 4);
  EXPECT_TRUE(m.same_board(0, 3));
  EXPECT_FALSE(m.same_board(3, 4));
  EXPECT_LT(m.latency_s(0, 1), m.latency_s(0, 4));
}

TEST(FabricModelTest, TransferCostScalesWithBytes) {
  FabricModel m = myrinet_fabric();
  const double small = m.transfer_seconds(0, 5, 1024);
  const double large = m.transfer_seconds(0, 5, 1024 * 1024);
  EXPECT_GT(large, small);
  // 160 MB/s: 1 MiB takes ~6.25 ms + latency.
  EXPECT_NEAR(large, 1024.0 * 1024 / (160.0 * 1024 * 1024) + 10e-6, 1e-6);
}

TEST(FabricModelTest, PresetsDiffer) {
  EXPECT_GT(raceway_fabric().intra_board_bandwidth_Bps,
            myrinet_fabric().intra_board_bandwidth_Bps);
  EXPECT_LT(ideal_fabric().transfer_seconds(0, 9, 1 << 20), 1e-9);
}

// --- fabric ------------------------------------------------------------------

TEST(FabricTest, DeliversPayloadByTag) {
  Fabric fabric(2, ideal_fabric());
  fabric.send(0, 1, 7, bytes_of("hello"), 0.0);
  fabric.send(0, 1, 8, bytes_of("world"), 0.0);
  // Receive out of order by tag.
  Message m8 = fabric.recv(1, 0, 8);
  Message m7 = fabric.recv(1, 0, 7);
  EXPECT_EQ(string_of(m8.payload), "world");
  EXPECT_EQ(string_of(m7.payload), "hello");
}

TEST(FabricTest, WildcardsMatchAnything) {
  Fabric fabric(3, ideal_fabric());
  fabric.send(2, 1, 5, bytes_of("x"), 0.0);
  Message m = fabric.recv(1, kAnySource, kAnyTag);
  EXPECT_EQ(m.src, 2);
  EXPECT_EQ(m.tag, 5);
}

TEST(FabricTest, FifoPerSourceAndTag) {
  Fabric fabric(2, ideal_fabric());
  fabric.send(0, 1, 3, bytes_of("first"), 0.0);
  fabric.send(0, 1, 3, bytes_of("second"), 0.0);
  EXPECT_EQ(string_of(fabric.recv(1, 0, 3).payload), "first");
  EXPECT_EQ(string_of(fabric.recv(1, 0, 3).payload), "second");
}

TEST(FabricTest, ArrivalTimeIncludesTransferCost) {
  FabricModel model = myrinet_fabric();
  Fabric fabric(8, model);
  const double sent_vt = 1.0;
  fabric.send(0, 5, 1, bytes_of(std::string(1024, 'a')), sent_vt);
  Message m = fabric.recv(5, 0, 1);
  const double expected = sent_vt + model.send_overhead_s +
                          model.transfer_seconds(0, 5, 1024) +
                          model.recv_overhead_s;
  EXPECT_NEAR(m.arrival_vt, expected, 1e-12);
}

TEST(FabricTest, VendorBulkReducesOverhead) {
  FabricModel model = myrinet_fabric();
  Fabric fabric(8, model);
  fabric.send(0, 5, 1, bytes_of("x"), 0.0, {.vendor_bulk = false});
  fabric.send(0, 5, 2, bytes_of("x"), 0.0, {.vendor_bulk = true});
  const double normal = fabric.recv(5, 0, 1).arrival_vt;
  const double bulk = fabric.recv(5, 0, 2).arrival_vt;
  EXPECT_LT(bulk, normal);
}

TEST(FabricTest, RecvTimesOutIntoCommError) {
  Fabric fabric(2, ideal_fabric());
  EXPECT_THROW(fabric.recv(0, kAnySource, kAnyTag, /*timeout_wall_s=*/0.05),
               CommError);
}

TEST(FabricTest, StatsAccumulate) {
  Fabric fabric(2, ideal_fabric());
  fabric.send(0, 1, 1, bytes_of("abcd"), 0.0);
  fabric.send(1, 0, 1, bytes_of("ef"), 0.0);
  EXPECT_EQ(fabric.total_messages(), 2u);
  EXPECT_EQ(fabric.total_bytes(), 6u);
  EXPECT_EQ(fabric.pending(1), 1u);
}

TEST(FabricTest, BadRanksRejected) {
  Fabric fabric(2, ideal_fabric());
  EXPECT_THROW(fabric.send(0, 5, 1, bytes_of("x"), 0.0), CommError);
  EXPECT_THROW(fabric.recv(-1), CommError);
}

// --- machine ------------------------------------------------------------------

TEST(MachineTest, RunsProgramOnEveryNode) {
  Machine machine(4, ideal_fabric());
  std::vector<int> visited(4, 0);
  machine.run([&](NodeContext& node) {
    visited[static_cast<std::size_t>(node.rank())] = 1;
    EXPECT_EQ(node.size(), 4);
  });
  for (int v : visited) EXPECT_EQ(v, 1);
}

TEST(MachineTest, NodeExceptionPropagates) {
  Machine machine(3, ideal_fabric());
  EXPECT_THROW(machine.run([&](NodeContext& node) {
                 if (node.rank() == 2) raise<CommError>("boom");
               }),
               CommError);
}

TEST(MachineTest, VirtualTimePropagatesThroughMessages) {
  // Rank 0 computes 10ms (modeled), sends to rank 1; rank 1's clock must
  // land at least at 10ms + transfer.
  Machine machine(2, myrinet_fabric());
  std::vector<double> finish(2, 0.0);
  machine.run([&](NodeContext& node) {
    if (node.rank() == 0) {
      node.clock().advance(0.010);
      std::byte token{};
      const auto after = node.fabric().send(
          0, 1, 1, std::span<const std::byte>(&token, 1), node.now());
      node.clock().join(after);
    } else {
      Message m = node.fabric().recv(1, 0, 1);
      node.clock().join(m.arrival_vt);
    }
    finish[static_cast<std::size_t>(node.rank())] = node.now();
  });
  EXPECT_GT(finish[1], 0.010);
  EXPECT_GT(machine.run([](NodeContext&) {}).makespan(), -1.0);  // no throw
}

TEST(MachineTest, MakespanIsMaxOfNodeTimes) {
  Machine machine(3, ideal_fabric());
  const MachineReport report = machine.run([](NodeContext& node) {
    node.clock().advance(0.001 * (node.rank() + 1));
  });
  EXPECT_NEAR(report.makespan(), 0.003, 1e-12);
}

TEST(MachineTest, HeterogeneousScales) {
  Machine machine(ideal_fabric(), {1.0, 4.0});
  EXPECT_EQ(machine.node_count(), 2);
  EXPECT_DOUBLE_EQ(machine.cpu_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(machine.cpu_scale(1), 4.0);
  machine.run([&](NodeContext& node) {
    EXPECT_DOUBLE_EQ(node.cpu_scale(), node.rank() == 0 ? 1.0 : 4.0);
  });
}

TEST(FabricTest, ContentionSerializesSharedLinks) {
  FabricModel model = myrinet_fabric();
  model.model_contention = true;
  Fabric fabric(8, model);
  const std::size_t bytes = 1 << 20;
  const std::vector<std::byte> payload(bytes);

  // Two inter-board messages issued at vt=0 on the same board pair:
  // the second must queue behind the first.
  fabric.send(0, 4, 1, payload, 0.0);
  fabric.send(1, 5, 1, payload, 0.0);
  const double first = fabric.recv(4, 0, 1).arrival_vt;
  const double second = fabric.recv(5, 1, 1).arrival_vt;
  const double serialization = bytes / model.inter_board_bandwidth_Bps;
  EXPECT_GT(second, first + serialization * 0.9);

  // Intra-board traffic does not touch the link.
  fabric.send(0, 1, 2, payload, 0.0);
  fabric.send(2, 3, 2, payload, 0.0);
  const double intra_a = fabric.recv(1, 0, 2).arrival_vt;
  const double intra_b = fabric.recv(3, 2, 2).arrival_vt;
  EXPECT_NEAR(intra_a, intra_b, 1e-9);
}

TEST(FabricTest, ContentionOffKeepsTransfersIndependent) {
  Fabric fabric(8, myrinet_fabric());  // contention off by default
  const std::vector<std::byte> payload(1 << 20);
  fabric.send(0, 4, 1, payload, 0.0);
  fabric.send(1, 5, 1, payload, 0.0);
  const double first = fabric.recv(4, 0, 1).arrival_vt;
  const double second = fabric.recv(5, 1, 1).arrival_vt;
  EXPECT_NEAR(first, second, 1e-9);
}

TEST(MachineTest, RejectsBadConfig) {
  EXPECT_THROW(Machine(0, ideal_fabric()), CommError);
  EXPECT_THROW(Machine(2, ideal_fabric(), -1.0), CommError);
}

TEST(FabricTest, ResetDrainsMailboxesAndZeroesStats) {
  Fabric fabric(2, ideal_fabric());
  fabric.send(0, 1, 1, bytes_of("abcd"), 0.0);
  fabric.send(1, 0, 2, bytes_of("ef"), 0.0);
  ASSERT_EQ(fabric.pending(1), 1u);

  fabric.reset();
  EXPECT_EQ(fabric.pending(0), 0u);
  EXPECT_EQ(fabric.pending(1), 0u);
  EXPECT_EQ(fabric.total_messages(), 0u);
  EXPECT_EQ(fabric.total_bytes(), 0u);
  // The fabric stays usable after a reset.
  fabric.send(0, 1, 1, bytes_of("xy"), 0.0);
  EXPECT_EQ(fabric.recv(1, 0, 1).payload.size(), 2u);
  EXPECT_EQ(fabric.total_messages(), 1u);
}

TEST(FabricTest, ResetClearsLinkContentionHistory) {
  FabricModel model = myrinet_fabric();
  model.model_contention = true;
  Fabric fabric(8, model);
  const std::vector<std::byte> payload(1 << 20);

  fabric.send(0, 4, 1, payload, 0.0);
  const double first = fabric.recv(4, 0, 1).arrival_vt;
  fabric.reset();
  // Without the reset this message would queue behind the first one's
  // link reservation; after it, arrival matches a fresh fabric.
  fabric.send(0, 4, 1, payload, 0.0);
  EXPECT_NEAR(fabric.recv(4, 0, 1).arrival_vt, first, 1e-9);
}

TEST(MachineTest, ParkedWorkersServeRepeatedRuns) {
  Machine machine(3, ideal_fabric());
  EXPECT_FALSE(machine.started());
  machine.start();
  EXPECT_TRUE(machine.started());
  machine.start();  // idempotent

  std::vector<int> runs_by_rank(3, 0);
  for (int run = 0; run < 5; ++run) {
    machine.run([&](NodeContext& node) {
      ++runs_by_rank[static_cast<std::size_t>(node.rank())];
      // Each run gets a fresh clock.
      EXPECT_DOUBLE_EQ(node.now(), 0.0);
      node.clock().advance(0.001);
    });
  }
  EXPECT_EQ(machine.runs_completed(), 5u);
  for (int count : runs_by_rank) EXPECT_EQ(count, 5);
}

TEST(MachineTest, RecoversAfterNodeException) {
  Machine machine(2, ideal_fabric());
  EXPECT_THROW(machine.run([&](NodeContext& node) {
                 if (node.rank() == 1) raise<CommError>("boom");
               }),
               CommError);
  // The parked pool survives a failed run and serves the next one.
  const MachineReport report = machine.run(
      [](NodeContext& node) { node.clock().advance(0.002); });
  EXPECT_NEAR(report.makespan(), 0.002, 1e-12);
}


// --- frame checksum and framing ---------------------------------------------

std::uint64_t checksum_of(const std::string& s) {
  return checksum64(reinterpret_cast<const std::byte*>(s.data()), s.size());
}

/// `n` deterministic, non-repeating-looking bytes.
std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 131 + 7) ^ (i >> 3));
  }
  return out;
}

/// XXH64 written independently of checksum64: words are assembled one
/// byte at a time (little-endian, no memcpy loads) and every stage is
/// index-driven, so a slip in the production stripe or tail handling
/// shows up as a mismatch.
std::uint64_t reference_xxh64(const std::vector<std::byte>& in,
                              std::uint64_t seed) {
  constexpr std::uint64_t p1 = 0x9E3779B185EBCA87ull;
  constexpr std::uint64_t p2 = 0xC2B2AE3D27D4EB4Full;
  constexpr std::uint64_t p3 = 0x165667B19E3779F9ull;
  constexpr std::uint64_t p4 = 0x85EBCA77C2B2AE63ull;
  constexpr std::uint64_t p5 = 0x27D4EB2F165667C5ull;
  const auto word = [&](std::size_t at, int width) {
    std::uint64_t v = 0;
    for (int b = width - 1; b >= 0; --b) {
      v = (v << 8) | std::to_integer<std::uint64_t>(in[at + b]);
    }
    return v;
  };
  const auto round = [](std::uint64_t acc, std::uint64_t lane) {
    acc += lane * p2;
    acc = std::rotl(acc, 31);
    return acc * p1;
  };
  const std::size_t n = in.size();
  std::size_t i = 0;
  std::uint64_t h = 0;
  if (n >= 32) {
    std::uint64_t v[4] = {seed + p1 + p2, seed + p2, seed, seed - p1};
    for (; i + 32 <= n; i += 32) {
      for (int lane = 0; lane < 4; ++lane) {
        v[lane] = round(v[lane], word(i + 8 * lane, 8));
      }
    }
    h = std::rotl(v[0], 1) + std::rotl(v[1], 7) + std::rotl(v[2], 12) +
        std::rotl(v[3], 18);
    for (const std::uint64_t acc : v) {
      h ^= round(0, acc);
      h = h * p1 + p4;
    }
  } else {
    h = seed + p5;
  }
  h += n;
  for (; i + 8 <= n; i += 8) {
    h ^= round(0, word(i, 8));
    h = std::rotl(h, 27) * p1 + p4;
  }
  if (i + 4 <= n) {
    h ^= word(i, 4) * p1;
    h = std::rotl(h, 23) * p2 + p3;
    i += 4;
  }
  for (; i < n; ++i) {
    h ^= std::to_integer<std::uint64_t>(in[i]) * p5;
    h = std::rotl(h, 11) * p1;
  }
  h ^= h >> 33;
  h *= p2;
  h ^= h >> 29;
  h *= p3;
  h ^= h >> 32;
  return h;
}


TEST(ChecksumTest, KnownAnswers) {
  EXPECT_EQ(checksum_of(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(checksum_of("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(checksum_of("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(checksum_of("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
}

TEST(ChecksumTest, MatchesByteAtATimeReferenceForEveryLength) {
  const std::vector<std::byte> all = pattern(100);
  for (const std::uint64_t seed : {0ull, 0x9E3779B97F4A7C15ull}) {
    for (std::size_t len = 0; len <= all.size(); ++len) {
      const std::vector<std::byte> in(all.begin(),
                                      all.begin() + static_cast<long>(len));
      EXPECT_EQ(checksum64(in.data(), len, seed), reference_xxh64(in, seed))
          << "len " << len << " seed " << seed;
    }
  }
}

TEST(ChecksumTest, UnalignedInputHashesLikeAnAlignedCopy) {
  const std::vector<std::byte> buf = pattern(200);
  for (std::size_t off = 0; off < 8; ++off) {
    const std::vector<std::byte> copy(buf.begin() + static_cast<long>(off),
                                      buf.begin() + static_cast<long>(off) +
                                          150);
    EXPECT_EQ(checksum64(buf.data() + off, 150),
              checksum64(copy.data(), copy.size()))
        << "offset " << off;
  }
}

// --- NodeContext::send / recv ------------------------------------------------

/// An active plan that never faults a link (one zero stall rule).
std::shared_ptr<FaultPlan> quiet_plan() {
  auto plan = std::make_shared<FaultPlan>();
  plan->stall_rules.push_back({});
  return plan;
}

/// Node 0 sends to node 1 over one fabric, both driven from the test
/// thread: a reliable send enqueues every attempt at once, so the
/// receive that follows never blocks.
class NodeTransferTest : public ::testing::Test {
 protected:
  /// Attaches a plan faulting the first message on 0->1 with `kind`,
  /// or (kNone) an active plan that never faults a link.
  void plan(FaultKind kind, std::size_t corrupt_bytes = 1) {
    auto plan = quiet_plan();
    if (kind != FaultKind::kNone) {
      plan->link_rules.push_back(
          {0, 1, kind, 0.0, /*at_index=*/0, /*delay_vt=*/1e-3, corrupt_bytes});
    }
    fabric_.set_fault_plan(plan);
  }
  Payload copy(const std::vector<std::byte>& bytes) {
    return fabric_.pool().copy_of(bytes);
  }
  /// Receives on tag 1 and checks the one fault met on the way.
  void expect_one_fault(FaultKind kind, const std::vector<std::byte>& body,
                        std::size_t fault_bytes) {
    const Delivery delivery = receiver_.recv(0, 1, 10.0);
    ASSERT_EQ(delivery.faults.size(), 1u);
    EXPECT_EQ(delivery.faults[0].kind, kind);
    EXPECT_EQ(delivery.faults[0].bytes, fault_bytes);
    EXPECT_GE(delivery.faults[0].end_vt, delivery.faults[0].start_vt);
    EXPECT_EQ(delivery.payload, body);
  }

  Fabric fabric_{2, myrinet_fabric()};
  NodeContext sender_{0, 2, fabric_, 1.0};
  NodeContext receiver_{1, 2, fabric_, 1.0};
  const std::vector<std::byte> body_ = pattern(257);
};

TEST_F(NodeTransferTest, CleanPathMatchesBareFabricCalls) {
  Fabric bare(2, myrinet_fabric());
  NodeContext bare_sender(0, 2, bare, 1.0);
  NodeContext bare_receiver(1, 2, bare, 1.0);
  sender_.clock().advance(1e-3);
  bare_sender.clock().advance(1e-3);
  for (int tag = 0; tag < 3; ++tag) {
    EXPECT_EQ(sender_.send(1, tag, copy(body_)), 1);
    bare_sender.clock().join(
        bare.send(0, 1, tag, copy(body_), bare_sender.now()));
    const Delivery delivery = receiver_.recv(0, tag, 10.0);
    EXPECT_TRUE(delivery.faults.empty());
    EXPECT_EQ(delivery.payload, body_);
    bare_receiver.clock().join(bare.recv(1, 0, tag, 10.0).arrival_vt);
  }
  EXPECT_EQ(sender_.now(), bare_sender.now());
  EXPECT_EQ(receiver_.now(), bare_receiver.now());
  EXPECT_EQ(fabric_.total_messages(), bare.total_messages());
  EXPECT_EQ(fabric_.total_bytes(), 3 * body_.size());  // no frame
  EXPECT_EQ(bare.total_bytes(), 3 * body_.size());
}

TEST_F(NodeTransferTest, TombstoneIsSkippedAndReportedAsATimeout) {
  plan(FaultKind::kDrop);
  EXPECT_EQ(sender_.send(1, 1, copy(body_)), 2);
  expect_one_fault(FaultKind::kDrop, body_, 0);
  EXPECT_EQ(fabric_.pending(1), 0u);
  // The body travels alone; each attempt is modeled as a framed parcel.
  EXPECT_EQ(fabric_.total_bytes(), 2 * (body_.size() + kFrameHeaderBytes));
}

TEST_F(NodeTransferTest, DelayedDeliveryIsAcceptedAndReported) {
  plan(FaultKind::kDelay);
  EXPECT_EQ(sender_.send(1, 1, copy(body_)), 1);
  expect_one_fault(FaultKind::kDelay, body_, body_.size());
  EXPECT_GE(receiver_.now(), 1e-3);  // the latency spike was waited out
}

TEST_F(NodeTransferTest, CorruptedCreditSizedPayloadIsRejected) {
  plan(FaultKind::kCorrupt);
  const std::vector<std::byte> credit{std::byte{0}};
  EXPECT_EQ(sender_.send(1, 1, copy(credit)), 2);
  expect_one_fault(FaultKind::kCorrupt, credit, 1);
}

TEST_F(NodeTransferTest, RejectsEverySingleByteFlipOfABody) {
  // Fabric::deliverable_ corrupts by XOR-ing 0xFF into chosen bytes; a
  // flip anywhere in the body must fail the out-of-band checksum. Each
  // flipped copy carries the intact body's checksum, and the intact
  // body follows it.
  plan(FaultKind::kNone);
  const std::uint64_t sum = checksum64(body_.data(), body_.size());
  for (std::size_t pos = 0; pos < body_.size(); ++pos) {
    std::vector<std::byte> bad = body_;
    bad[pos] ^= std::byte{0xFF};
    fabric_.send_reliable(0, 1, 1, copy(bad), sum, 0.0);
    fabric_.send_reliable(0, 1, 1, copy(body_), sum, 0.0);
    SCOPED_TRACE(pos);
    expect_one_fault(FaultKind::kCorrupt, body_, body_.size());
  }
}

TEST_F(NodeTransferTest, CancelledFlipsDoNotShiftTheStream) {
  // Two flips on a 1-byte body land on the same byte and cancel: the
  // corrupted first attempt passes its checksum and is accepted, and
  // the clean retransmit queued behind it must not be taken for the
  // next transfer. An empty body cannot be flipped at all.
  plan(FaultKind::kCorrupt, 2);
  const std::vector<std::byte> second = bytes_of("second");
  for (const std::size_t size : {1, 0}) {
    const std::vector<std::byte> first(size, std::byte{0x41});
    EXPECT_EQ(sender_.send(1, 1, copy(first)), 2);
    EXPECT_EQ(sender_.send(1, 1, copy(second)), 1);
    const Delivery a = receiver_.recv(0, 1, 10.0);
    EXPECT_TRUE(a.faults.empty());
    EXPECT_EQ(a.payload, first) << size;
    EXPECT_EQ(receiver_.recv(0, 1, 10.0).payload, second) << size;
    EXPECT_EQ(fabric_.pending(1), 0u) << size;
    fabric_.reset();  // the next size's first send is link message 0 again
  }
}

TEST_F(NodeTransferTest, FanOutCopiesReuseTheLeadersChecksum) {
  // A payload resent by handle is hashed once: on a very slow modeled
  // CPU the leader's send is charged the checksum pass, the copy none.
  Fabric fabric(3, ideal_fabric());  // free sends
  fabric.set_fault_plan(quiet_plan());
  NodeContext sender(0, 3, fabric, 1e6);
  const Payload payload = fabric.pool().copy_of(pattern(1 << 20));
  sender.send(1, 1, payload);
  const support::VirtualSeconds after_leader = sender.now();
  EXPECT_GT(after_leader, 0.0);
  sender.send(2, 1, payload);
  EXPECT_EQ(sender.now(), after_leader);
}

class NodeTransferTransportTest
    : public ::testing::TestWithParam<TransportKind> {};

TEST_P(NodeTransferTransportTest, ChecksumCrossesTheProcessBoundary) {
  // The meta block carries the sender's checksum verbatim, so the
  // receiver still rejects a corrupted attempt after the bytes crossed
  // a real process boundary.
  Fabric fabric(2, myrinet_fabric(), TransportOptions{GetParam()});
  fabric.set_fault_plan(std::make_shared<FaultPlan>(
      FaultPlan::parse("fault-plan 1\ncorrupt link=0->1 at=1\n")));
  const std::vector<std::byte> body = pattern(300);
  fabric.send_reliable(0, 1, 6, fabric.pool().copy_of(body), 0x1234abcdull,
                       0.0);
  EXPECT_EQ(fabric.recv(1, 0, 6, 10.0).checksum, 0x1234abcdull);

  NodeContext sender(0, 2, fabric, 1.0);
  NodeContext receiver(1, 2, fabric, 1.0);
  EXPECT_EQ(sender.send(1, 8, fabric.pool().copy_of(body)), 2);
  const Delivery delivery = receiver.recv(0, 8, 10.0);
  ASSERT_EQ(delivery.faults.size(), 1u);
  EXPECT_EQ(delivery.faults[0].kind, FaultKind::kCorrupt);
  EXPECT_EQ(delivery.payload, body);
}

INSTANTIATE_TEST_SUITE_P(Backends, NodeTransferTransportTest,
                         ::testing::Values(TransportKind::kShmem,
                                           TransportKind::kTcp),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FabricTest, AbortFailsWaitingReceivesUntilReset) {
  Fabric fabric(2, ideal_fabric());
  std::thread blocked(
      [&] { EXPECT_THROW(fabric.recv(1, 0, 1, 30.0), CommError); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double start = support::wall_seconds();
  fabric.abort();
  blocked.join();
  // A message already queued is still delivered; a receive that would
  // wait fails at once instead of after its timeout.
  fabric.send(0, 1, 1, bytes_of("queued"), 0.0);
  EXPECT_EQ(string_of(fabric.recv(1, 0, 1, 30.0).payload), "queued");
  EXPECT_THROW(fabric.recv(1, 0, 1, 30.0), CommError);
  EXPECT_LT(support::wall_seconds() - start, 5.0);

  fabric.reset();
  fabric.send(0, 1, 1, bytes_of("again"), 0.0);
  EXPECT_EQ(string_of(fabric.recv(1, 0, 1, 30.0).payload), "again");
}

}  // namespace
}  // namespace sage::net
