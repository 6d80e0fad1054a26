// Unit tests for the machine model: FIFO servers, topology/routing,
// network contention, node CPU model, stable storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "des/process.hpp"
#include "des/simulator.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "xplorer/machine.hpp"
#include "xplorer/storage_fault.hpp"

namespace chk::xplorer {
namespace {

using des::Duration;
using des::Process;
using des::Simulator;
using des::TimePoint;

TEST(FifoServer, ServiceTimeIsLatencyPlusTransfer) {
  Simulator sim;
  FifoServer server(sim, /*bytes_per_sec=*/1'000'000, Duration::millis(10));
  EXPECT_DOUBLE_EQ(server.service_time(500'000).to_seconds(), 0.51);
  EXPECT_DOUBLE_EQ(server.service_time(0).to_seconds(), 0.01);
}

TEST(FifoServer, JobsServeFifoAndAccumulateStats) {
  Simulator sim;
  FifoServer server(sim, 1'000'000, Duration::zero());
  std::vector<double> completions;
  server.submit(1'000'000, [&] { completions.push_back(sim.now().to_seconds()); });
  server.submit(500'000, [&] { completions.push_back(sim.now().to_seconds()); });
  server.submit(500'000, [&] { completions.push_back(sim.now().to_seconds()); });
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 1.5);
  EXPECT_DOUBLE_EQ(completions[2], 2.0);
  EXPECT_DOUBLE_EQ(server.busy_time().to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(server.wait_time().to_seconds(), 2.5);  // 0 + 1 + 1.5
  // Drained, the server is idle again: a later job starts at once.
  server.submit(1'000'000, [&] { completions.push_back(sim.now().to_seconds()); });
  sim.run();
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_DOUBLE_EQ(completions[3], 3.0);
  EXPECT_DOUBLE_EQ(server.busy_time().to_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(server.wait_time().to_seconds(), 2.5);
}

TEST(FifoServer, CompletionMaySubmitMore) {
  Simulator sim;
  FifoServer server(sim, 1'000'000, Duration::zero());
  int chained = 0;
  server.submit(1000, [&] {
    ++chained;
    server.submit(1000, [&] { ++chained; });
  });
  sim.run();
  EXPECT_EQ(chained, 2);
}

TEST(FifoServer, CallbackCapturesAreReleasedAfterTheJob) {
  // One capture that fits InlineFn's inline buffer, one that is boxed.
  Simulator sim;
  FifoServer server(sim, 1'000'000, Duration::millis(1));
  auto token = std::make_shared<int>(0);
  std::array<std::byte, 2 * des::InlineFn::kInlineBytes> ballast{};
  server.submit(100, [token] { ++*token; });
  server.submit(100, [token, ballast] { *token += 1 + static_cast<int>(ballast[0]); });
  sim.run();
  EXPECT_EQ(*token, 2);
  EXPECT_EQ(token.use_count(), 1);
}

// The oracle for Topology's per-hop rule: BFS from src over neighbours in
// ascending id, parent links walked back from dst.
std::vector<std::vector<LinkId>> reference_routes(const Topology& topo) {
  const std::size_t n = topo.num_nodes();
  std::vector<std::vector<std::pair<NodeId, LinkId>>> adjacency(n);
  for (std::size_t link = 0; link < topo.num_links(); ++link) {
    adjacency[topo.edge(link).from].emplace_back(topo.edge(link).to,
                                                 static_cast<LinkId>(link));
  }
  for (auto& out : adjacency) std::sort(out.begin(), out.end());
  std::vector<std::vector<LinkId>> routes(n * n);
  for (NodeId src = 0; src < n; ++src) {
    std::vector<LinkId> parent_link(n);
    std::vector<bool> seen(n, false);
    seen[src] = true;
    std::deque<NodeId> frontier{src};
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (const auto& [v, link] : adjacency[u]) {
        if (!seen[v]) {
          seen[v] = true;
          parent_link[v] = link;
          frontier.push_back(v);
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      std::vector<LinkId>& route = routes[src * n + dst];
      for (NodeId v = dst; v != src; v = topo.edge(parent_link[v]).from) {
        route.push_back(parent_link[v]);
      }
      std::reverse(route.begin(), route.end());
    }
  }
  return routes;
}

TEST(Topology, RoutesMatchTheReferenceOnEveryKind) {
  constexpr std::array<std::size_t, 12> kSizes{1, 2, 3, 4, 5, 6, 8, 9, 16, 64, 255, 256};
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(util::format("mesh with {} nodes", n));
    const auto topo = Topology::build(n);
    const auto reference = reference_routes(topo);
    std::vector<LinkId> route{7, 7, 7};  // stale contents must be replaced
    for (NodeId src = 0; src < n; ++src) {
      for (NodeId dst = 0; dst < n; ++dst) {
        topo.route(src, dst, route);
        ASSERT_EQ(route, reference[src * n + dst]) << src << " -> " << dst;
        ASSERT_EQ(route.size(), topo.distance(src, dst));
        NodeId at = src;
        for (const LinkId link : route) {
          ASSERT_EQ(topo.edge(link).from, at);
          at = topo.edge(link).to;
        }
        ASSERT_EQ(at, dst);
      }
    }
  }
}

TEST(Topology, TwoThousandNodeMeshBuilds) {
  const auto topo = Topology::build(2048);
  EXPECT_EQ(topo.distance(0, 2047), 1024u);  // 1023 columns and one row
  std::vector<LinkId> route;
  topo.route(2047, 0, route);
  EXPECT_EQ(route.size(), 1024u);
  EXPECT_EQ(topo.edge(route.front()).from, 2047u);
  EXPECT_EQ(topo.edge(route.back()).to, 0u);
  // A 2 x 1024 mesh: every route is a shortest one, |d row| + |d col| hops.
  auto manhattan = [](NodeId a, NodeId b) {
    const auto gap = [](std::size_t x, std::size_t y) { return x > y ? x - y : y - x; };
    return gap(a / 1024, b / 1024) + gap(a % 1024, b % 1024);
  };
  constexpr std::array<std::pair<NodeId, NodeId>, 6> kPairs{
      {{1024, 1023}, {1023, 1024}, {5, 1029}, {1500, 1600}, {700, 1800}, {1999, 3}}};
  for (const auto& [src, dst] : kPairs) {
    EXPECT_EQ(topo.distance(src, dst), manhattan(src, dst)) << src << " -> " << dst;
  }
}

TEST(Topology, Mesh2x4Routes) {
  const auto topo = Topology::build(8);
  // 2x4 mesh: nodes 0..3 top row, 4..7 bottom row.
  EXPECT_EQ(topo.distance(0, 0), 0u);
  EXPECT_EQ(topo.distance(0, 1), 1u);
  EXPECT_EQ(topo.distance(0, 3), 3u);
  EXPECT_EQ(topo.distance(0, 7), 4u);
  EXPECT_EQ(topo.distance(4, 0), 1u);
  // route continuity: consecutive edges share endpoints
  std::vector<LinkId> route;
  topo.route(0, 7, route);
  NodeId at = 0;
  for (std::size_t link : route) {
    EXPECT_EQ(topo.edge(link).from, at);
    at = topo.edge(link).to;
  }
  EXPECT_EQ(at, 7u);
}

TEST(Topology, SingleNodeHasNoLinks) {
  const auto topo = Topology::build(1);
  EXPECT_EQ(topo.num_links(), 0u);
  EXPECT_EQ(topo.distance(0, 0), 0u);
}

MachineConfig test_config(std::size_t nodes = 8) {
  MachineConfig config;
  config.num_nodes = nodes;
  return config;
}

/// One full packet's service time on a mesh link: the link latency plus
/// the packet's transmission time, in seconds.
double packet_hop_s() {
  return kMeshLinkLatency.to_seconds() + static_cast<double>(kPacketBytes) / kMeshLinkBandwidth;
}

/// Link service times are rounded to whole nanoseconds, so a delivery
/// after `services` back-to-back services can sit up to half a nanosecond
/// per service from the real-valued formula.
double ns_slack(int services) { return services * 0.5e-9; }

TEST(Network, DeliversWithLatencyAndBandwidth) {
  Simulator sim;
  Network net(sim, test_config());
  double delivered = -1;
  net.transfer(0, 1, kPacketBytes, Traffic::kApplication,
               [&] { delivered = sim.now().to_seconds(); });
  sim.run();
  // One packet over one hop: latency plus transmission time.
  EXPECT_NEAR(delivered, packet_hop_s(), ns_slack(1));
  EXPECT_EQ(net.bytes_sent(Traffic::kApplication), kPacketBytes);
  EXPECT_EQ(net.transfers(Traffic::kApplication), 1u);
}

TEST(Network, MultiHopAccumulates) {
  Simulator sim;
  Network net(sim, test_config());
  double delivered = -1;
  // 0 -> 3 is 3 hops in the 2x4 mesh; one packet pays every hop in full.
  net.transfer(0, 3, kPacketBytes, Traffic::kApplication,
               [&] { delivered = sim.now().to_seconds(); });
  sim.run();
  EXPECT_NEAR(delivered, 3 * packet_hop_s(), ns_slack(3));
}

TEST(Network, PacketizationPipelinesHops) {
  Simulator sim;
  Network net(sim, test_config());
  double delivered = -1;
  net.transfer(0, 3, 10 * kPacketBytes, Traffic::kApplication,
               [&] { delivered = sim.now().to_seconds(); });
  sim.run();
  // Pipelined store-and-forward: (packets + hops - 1) packet times =
  // (10 + 3 - 1), not packets * hops = 30.
  EXPECT_NEAR(delivered, 12 * packet_hop_s(), ns_slack(12));
}

TEST(Network, ContentionSlowsConcurrentTransfers) {
  Simulator sim;
  Network net(sim, test_config());
  std::vector<double> done;
  // Two 25-packet transfers sharing the 0->1 link.
  net.transfer(0, 1, 25 * kPacketBytes, Traffic::kApplication,
               [&] { done.push_back(sim.now().to_seconds()); });
  net.transfer(0, 1, 25 * kPacketBytes, Traffic::kCheckpoint,
               [&] { done.push_back(sim.now().to_seconds()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // The link serves all 50 packets back to back; the last finisher waits
  // for every one of them.
  EXPECT_NEAR(done.back(), 50 * packet_hop_s(), ns_slack(50));
}

TEST(Network, SelfTransferBypassesLinks) {
  Simulator sim;
  Network net(sim, test_config());
  bool delivered = false;
  net.transfer(2, 2, 1'000'000, Traffic::kApplication, [&] { delivered = true; });
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.total_link_busy(), Duration::zero());
}

TEST(Network, ZeroByteTransferStillDelivers) {
  Simulator sim;
  Network net(sim, test_config());
  bool delivered = false;
  net.transfer(0, 5, 0, Traffic::kControl, [&] { delivered = true; });
  sim.run();
  EXPECT_TRUE(delivered);
}

TEST(Network, DeliveryCapturesAreReleasedAfterDelivery) {
  // One capture that fits InlineFn's inline buffer, one that is boxed.
  Simulator sim;
  Network net(sim, test_config());
  auto token = std::make_shared<int>(0);
  std::array<std::byte, 2 * des::InlineFn::kInlineBytes> ballast{};
  net.transfer(0, 7, 10'000, Traffic::kApplication, [token] { ++*token; });
  net.transfer(7, 0, 10'000, Traffic::kCheckpoint,
               [token, ballast] { *token += 1 + static_cast<int>(ballast[0]); });
  sim.run();
  EXPECT_EQ(*token, 2);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Network, DeliveryMayStartATransferThatReusesItsRecord) {
  // With one transfer in flight the pool holds one record; it is free again
  // when the callback runs, so the nested transfer takes it over while the
  // first callback (and its captures) is still running.
  Simulator sim;
  Network net(sim, test_config());
  int first = 0;
  int second = 0;
  std::vector<std::size_t> witness{1, 2, 3, 4, 5};
  net.transfer(1, 6, 9'000, Traffic::kApplication, [&, witness] {
    ++first;
    net.transfer(6, 1, 9'000, Traffic::kApplication, [&] { ++second; });
    EXPECT_EQ(witness, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
  });
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(net.transfers(Traffic::kApplication), 2u);
}

TEST(Network, ManyPacketTransferDeliversOnce) {
  Simulator sim;
  Network net(sim, test_config());
  int delivered = 0;
  double at = -1;
  net.transfer(0, 7, 10 * kPacketBytes, Traffic::kCheckpoint, [&] {
    ++delivered;
    at = sim.now().to_seconds();
  });
  sim.run();
  EXPECT_EQ(delivered, 1);
  // The callback fires at the last packet's arrival, after the pipeline:
  // 10 packets over the 4 hops from 0 to 7 take (10 + 4 - 1) packet times.
  EXPECT_NEAR(at, net.min_transfer_time(0, 7, 10 * kPacketBytes).to_seconds(), 1e-12);
  EXPECT_NEAR(at, 13 * packet_hop_s(), ns_slack(13));
}

/// All-to-all on a 2x8 mesh: at t = 0 every node starts one transfer to
/// every other node (240 transfers, sizes cycling through 0, 32, 4 096 and
/// 10 000 bytes), so up to 28 packets wait on one link and 316 in all;
/// each of the first 16 transfers sends the same size back on delivery,
/// while the queues are still deep.
struct AllToAll {
  static constexpr std::size_t kNodes = 16;
  static constexpr std::array<std::size_t, 4> kSizes{0, 32, 4096, 10'000};

  Simulator sim;
  Network net{sim, test_config(kNodes)};
  std::size_t started = 0;
  /// (transfer index, delivery time in ns), in delivery order.
  std::vector<std::pair<std::size_t, std::int64_t>> deliveries;

  void start(NodeId src, NodeId dst, std::size_t bytes) {
    const std::size_t index = started++;
    net.transfer(src, dst, bytes, Traffic::kApplication, [this, index, src, dst, bytes] {
      deliveries.emplace_back(index, sim.now().to_nanos());
      if (index < kNodes) start(dst, src, bytes);
    });
  }

  void run() {
    for (NodeId src = 0; src < kNodes; ++src) {
      for (NodeId dst = 0; dst < kNodes; ++dst) {
        if (dst != src) start(src, dst, kSizes[started % kSizes.size()]);
      }
    }
    sim.run();
  }
};

TEST(Network, DeepQueuesKeepTheirHopSchedule) {
  // (transfer index, delivery time in ns) in delivery order; replies are
  // transfers 240-255. Captured before the mesh links had a packet queue
  // of their own, which must not move a hop.
  constexpr std::array<std::pair<std::size_t, std::int64_t>, 256> kDeliveries{{
    {0, 8000}, {16, 8000}, {32, 8000}, {48, 8000},
    {64, 8000}, {80, 8000}, {96, 8000}, {120, 8000},
    {128, 8000}, {144, 8000}, {160, 8000}, {176, 8000},
    {192, 8000}, {208, 8000}, {224, 8000}, {81, 61648},
    {193, 61648}, {209, 61648}, {65, 96472}, {177, 2479060},
    {49, 4931296}, {7, 5906353}, {15, 5906353}, {23, 5906353},
    {39, 5906353}, {55, 5906353}, {71, 5906353}, {87, 5906353},
    {103, 5906353}, {119, 5906353}, {143, 5906353}, {72, 5914353},
    {88, 5914353}, {104, 5914353}, {136, 5914353}, {73, 5941177},
    {89, 5941177}, {66, 7287060}, {194, 7287060}, {178, 7313884},
    {158, 8323765}, {31, 8323765}, {159, 8323765}, {240, 8331765},
    {152, 8331765}, {47, 8350589}, {175, 8350589}, {63, 8358589},
    {191, 8358589}, {168, 8358589}, {184, 8366589}, {56, 8374589},
    {173, 8377413}, {40, 8382589}, {161, 8385413}, {145, 8393413},
    {24, 8409413}, {129, 8420237}, {50, 9766120}, {22, 10741177},
    {30, 10749177}, {174, 10768001}, {188, 10784001}, {190, 10802825},
    {189, 10802825}, {74, 12156708}, {38, 13185413}, {8, 13193413},
    {54, 13220237}, {162, 13220237}, {185, 13308709}, {57, 13308709},
    {79, 14264942}, {207, 14264942}, {200, 14272942}, {46, 15629649},
    {179, 15637649}, {62, 15699297}, {201, 15699297}, {135, 16655530},
    {95, 16682354}, {223, 16682354}, {216, 16690354}, {111, 16709178},
    {239, 16709178}, {45, 16709178}, {37, 16709178}, {206, 16717178},
    {232, 16717178}, {33, 16744002}, {205, 16744002}, {17, 16760002},
    {1, 16813650}, {51, 18089885}, {217, 18116709}, {150, 19126590},
    {70, 19134590}, {146, 19134590}, {243, 19134590}, {204, 19134590},
    {130, 19169414}, {58, 20560945}, {151, 21536002}, {203, 21544002},
    {163, 21544002}, {164, 21560002}, {52, 21560002}, {60, 21586826},
    {53, 21597650}, {167, 21605650}, {61, 21632474}, {165, 21632474},
    {121, 21648474}, {137, 21675298}, {241, 22623531}, {186, 22978357},
    {202, 22978357}, {166, 24049886}, {244, 24103534}, {222, 25040943},
    {221, 25075767}, {169, 25102591}, {153, 25110591}, {25, 25199063},
    {218, 26386826}, {86, 27458355}, {147, 27458355}, {220, 27466355},
    {148, 27474355}, {238, 27485179}, {41, 27485179}, {149, 27546827},
    {69, 27573651}, {219, 29875767}, {102, 29902591}, {233, 29929415},
    {118, 29937415}, {68, 29999063}, {181, 30025887}, {131, 30982120},
    {132, 30998120}, {133, 31070592}, {78, 32362827}, {34, 32373651},
    {242, 32389651}, {180, 32408475}, {182, 32416475}, {9, 32504947},
    {237, 33426356}, {183, 33434356}, {234, 34737415}, {67, 34817887},
    {245, 34887535}, {236, 35816944}, {77, 35940240}, {187, 37208475},
    {59, 37208475}, {235, 38226356}, {76, 38330828}, {134, 40686592},
    {35, 40697416}, {170, 40705416}, {36, 40713416}, {75, 40740240},
    {85, 41819769}, {18, 44210357}, {231, 44229181}, {84, 44280005},
    {2, 44306829}, {42, 45540240}, {82, 45609888}, {94, 46592945},
    {110, 49064005}, {83, 49098829}, {199, 50081886}, {90, 51524241},
    {138, 51559065}, {122, 51612713}, {154, 52568946}, {246, 53941653},
    {215, 54970358}, {171, 56281417}, {172, 56297417}, {44, 57384946},
    {26, 57403770}, {197, 57465418}, {198, 58483299}, {101, 58494123},
    {93, 58510123}, {43, 58698829}, {196, 59856006}, {19, 60857887},
    {20, 60873887}, {21, 60946359}, {92, 60962359}, {195, 62265418},
    {91, 63371771}, {117, 63390595}, {97, 63452243}, {10, 64752478},
    {100, 66876712}, {98, 68241419}, {105, 69393420}, {155, 71633888},
    {156, 71649888}, {157, 71722360}, {99, 71730360}, {28, 72764241},
    {3, 72775065}, {4, 72791065}, {29, 72855537}, {5, 72863537},
    {27, 74051300}, {230, 74166596}, {109, 75211301}, {247, 76592008},
    {214, 77628713}, {106, 79009420}, {210, 79009420}, {123, 80123773},
    {139, 81133654}, {140, 81149654}, {141, 82506361}, {6, 84896949},
    {116, 86011302}, {213, 89484243}, {108, 89492243}, {12, 89516243},
    {13, 90891774}, {11, 91909655}, {124, 91952479}, {212, 93247538},
    {142, 93255538}, {211, 94311067}, {107, 94319067}, {229, 94380715},
    {125, 94388715}, {113, 94407539}, {248, 94585421}, {112, 94601421},
    {225, 97958128}, {114, 99188715}, {126, 99231539}, {115, 100268244},
    {14, 101614127}, {226, 105129892}, {127, 107555304}, {228, 108626833},
    {227, 111036245}, {249, 114807540}, {250, 114834364}, {252, 114842364},
    {251, 120756717}, {253, 120783541}, {254, 121855070}, {255, 124272482},
  }};
  AllToAll all;
  all.run();
  ASSERT_EQ(all.deliveries.size(), kDeliveries.size());
  for (std::size_t i = 0; i < kDeliveries.size(); ++i) {
    EXPECT_EQ(all.deliveries[i], kDeliveries[i]) << "delivery " << i;
  }
  EXPECT_EQ(all.net.total_link_busy().to_nanos(), 1'734'943'707);
  EXPECT_EQ(all.sim.trace_hash(), 0xe33ccdfcea21fa64ULL);
}

TEST(Node, ComputeAdvancesByFlopRate) {
  Simulator sim;
  Node node(sim, 0, NodeConfig{});
  // Two seconds' worth of work at the node's flop rate.
  sim.spawn("p", [&](Process& self) { node.compute(self, 2 * kCpuFlopRate); });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(node.compute_time().to_seconds(), 2.0);
  EXPECT_EQ(node.interference_time(), Duration::zero());
}

TEST(Node, BackgroundIoStealsCpu) {
  Simulator sim;
  NodeConfig config;
  config.background_io_cpu_steal = 0.2;
  Node node(sim, 0, config);
  // Two one-second pieces of work, the first during a background write.
  sim.spawn("p", [&](Process& self) {
    node.begin_background_io();
    node.compute(self, kCpuFlopRate);
    node.end_background_io();
    node.compute(self, kCpuFlopRate);
  });
  sim.run();
  // first second of work takes 1/(1-0.2) = 1.25s, second takes 1s
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 2.25);
  EXPECT_DOUBLE_EQ(node.interference_time().to_seconds(), 0.25);
}

TEST(Node, MemCopyUsesCopyBandwidth) {
  Simulator sim;
  NodeConfig config;
  config.mem_copy_bw = 10e6;
  Node node(sim, 0, config);
  sim.spawn("p", [&](Process& self) { node.mem_copy(self, 5'000'000); });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 0.5);
}

FileId image(NodeId rank, std::uint32_t index) { return {FileKind::kImage, rank, index}; }

TEST(Storage, WriteRoundTripsBytes) {
  Simulator sim;
  Machine machine(sim, test_config());
  std::vector<std::byte> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::byte>(i & 0xff);
  std::vector<std::byte> readback;
  sim.spawn("p", [&](Process& self) {
    machine.storage().write_blocking(self, 3, image(3, 1), payload);
    EXPECT_TRUE(machine.storage().files().contains(image(3, 1)));
    readback = machine.storage().read_blocking(self, 3, image(3, 1));
  });
  const auto result = sim.run();
  EXPECT_EQ(result.reason, des::StopReason::kIdle);
  EXPECT_EQ(readback, payload);
  EXPECT_EQ(machine.storage().total_bytes(), 1000u);
}

TEST(Storage, MissingKeyReadsEmpty) {
  Simulator sim;
  Machine machine(sim, test_config());
  std::size_t size = 999;
  sim.spawn("p", [&](Process& self) {
    size = machine.storage().read_blocking(self, 0, image(0, 1)).size();
  });
  sim.run();
  EXPECT_EQ(size, 0u);
}

TEST(Storage, WriteTimeScalesWithDistanceToHost) {
  // A node far from the host interface pays more network time.
  auto measure = [](NodeId from) {
    Simulator sim;
    MachineConfig config = test_config();
    Machine machine(sim, config);
    double elapsed = -1;
    sim.spawn("p", [&](Process& self) {
      machine.storage().write_blocking(self, from, image(from, 1),
                                       std::vector<std::byte>(100'000));
      elapsed = self.now().to_seconds();
    });
    sim.run();
    return elapsed;
  };
  EXPECT_GT(measure(7), measure(1));
  EXPECT_GT(measure(1), measure(0));
}

TEST(Storage, ConcurrentWritersContend) {
  // 8 simultaneous writers must take much longer per write than one alone.
  auto last_completion = [](std::size_t writers) {
    Simulator sim;
    Machine machine(sim, test_config());
    for (std::size_t n = 0; n < writers; ++n) {
      sim.spawn(std::string("w") + std::to_string(n), [&machine, n](Process& self) {
        machine.storage().write_blocking(self, n, image(n, 1), std::vector<std::byte>(200'000));
      });
    }
    sim.run();
    return sim.now().to_seconds();
  };
  const double solo = last_completion(1);
  const double all = last_completion(8);
  // Writes serialize at the disk/host-link bottleneck; pipelining overlaps
  // part of the mesh traversal, so the factor is a bit below 8.
  EXPECT_GT(all, solo * 4.0);
}

TEST(Storage, EraseReclaimsSpace) {
  Simulator sim;
  Machine machine(sim, test_config());
  sim.spawn("p", [&](Process& self) {
    machine.storage().write_blocking(self, 0, image(0, 1), std::vector<std::byte>(500));
    machine.storage().write_blocking(self, 0, image(0, 2), std::vector<std::byte>(700));
    EXPECT_EQ(machine.storage().total_bytes(), 1200u);
    machine.storage().erase(image(0, 1));
    EXPECT_EQ(machine.storage().total_bytes(), 700u);
    EXPECT_EQ(machine.storage().peak_bytes(), 1200u);
  });
  sim.run();
}

TEST(Storage, OverwriteReplacesVersion) {
  Simulator sim;
  Machine machine(sim, test_config());
  sim.spawn("p", [&](Process& self) {
    machine.storage().write_blocking(self, 0, image(0, 1), std::vector<std::byte>(500));
    machine.storage().write_blocking(self, 0, image(0, 1), std::vector<std::byte>(300));
    EXPECT_EQ(machine.storage().total_bytes(), 300u);
    EXPECT_EQ(machine.storage().files().at(image(0, 1)).size(), 300u);
  });
  sim.run();
}

TEST(Storage, EraseAccountsReclaimedBytesExactly) {
  Simulator sim;
  Machine machine(sim, test_config());
  auto& storage = machine.storage();
  sim.spawn("p", [&](Process& self) {
    storage.write_blocking(self, 0, image(0, 1), std::vector<std::byte>(400));
    storage.write_blocking(self, 0, image(0, 2), std::vector<std::byte>(600));
    EXPECT_EQ(storage.bytes_reclaimed(), 0u);
    storage.erase(image(0, 1));
    EXPECT_EQ(storage.bytes_reclaimed(), 400u);
    // Erasing a missing file is a no-op for every counter.
    storage.erase(image(0, 1));
    storage.erase(image(5, 9));
    EXPECT_EQ(storage.bytes_reclaimed(), 400u);
    EXPECT_EQ(storage.total_bytes(), 600u);
    storage.erase(image(0, 2));
    EXPECT_EQ(storage.bytes_reclaimed(), 1000u);
    EXPECT_EQ(storage.total_bytes(), 0u);
    // Overwrites replace the old version without counting as reclamation.
    const FileId commit{FileKind::kCommit, 0, 0};
    storage.write_blocking(self, 0, commit, std::vector<std::byte>(100));
    storage.write_blocking(self, 0, commit, std::vector<std::byte>(50));
    EXPECT_EQ(storage.bytes_reclaimed(), 1000u);
    EXPECT_EQ(storage.total_bytes(), 50u);
    EXPECT_EQ(storage.files().size(), 1u);
  });
  sim.run();
}

TEST(Storage, FailedWritesAreCountedSeparatelyFromCompletions) {
  Simulator sim;
  Machine machine(sim, test_config());
  auto& storage = machine.storage();
  StorageFaultConfig faults;
  faults.write_error = 0.999;
  storage.set_faults(faults, util::Rng(9));
  std::size_t failed = 0, ok = 0;
  sim.spawn("p", [&](Process& self) {
    for (int i = 0; i < 10; ++i) {
      const auto status = storage.write_blocking(self, 0, image(0, static_cast<std::uint32_t>(i)),
                                                 std::vector<std::byte>(100));
      (status == IoStatus::kOk ? ok : failed) += 1;
    }
  });
  sim.run();
  EXPECT_EQ(failed + ok, 10u);
  EXPECT_GE(failed, 1u);
  EXPECT_EQ(storage.faults()->write_errors(), failed);
  EXPECT_EQ(storage.files().size(), ok);
  // Failed writes never contribute durable bytes.
  EXPECT_EQ(storage.bytes_written(), ok * 100u);
  EXPECT_EQ(storage.total_bytes(), ok * 100u);
}

TEST(Storage, FilesOrderByKindRankIndex) {
  // Whatever the write order, files() lists every image before every log
  // and the commit record last, each kind by rank, each rank by index: one
  // rank's images are one contiguous run.
  Simulator sim;
  Machine machine(sim, test_config());
  const FileId commit{FileKind::kCommit, 0, 0};
  const FileId log{FileKind::kLog, 0, 1};
  const std::vector<FileId> written = {commit,       log,         image(1, 1),
                                       image(0, 10), image(0, 2), image(0, 1)};
  sim.spawn("p", [&](Process& self) {
    for (const FileId& file : written) {
      machine.storage().write_blocking(self, 0, file, std::vector<std::byte>(10));
    }
  });
  sim.run();
  std::vector<FileId> listed;
  for (const auto& [file, blob] : machine.storage().files()) listed.push_back(file);
  EXPECT_EQ(listed, (std::vector<FileId>{image(0, 1), image(0, 2), image(0, 10), image(1, 1),
                                          log, commit}));
}

}  // namespace
}  // namespace chk::xplorer
