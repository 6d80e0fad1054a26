// Machine-model configuration.
//
// Constants and defaults are calibrated to the paper's testbed: a Parsytec
// Xplorer with 8 T805 transputers (4 MB each) arranged in a 2x4 mesh of
// 20 Mbit/s transputer links, attached through a host interface on node 0
// to a SunSparc host whose file system provides the (single, shared)
// stable storage. Absolute rates are approximations from T805
// documentation; the reproduction targets relative behaviour, which is
// insensitive to modest calibration error (see DESIGN.md §2). The config
// fields are what the benches vary (the node count, the memory-copy
// bandwidth and background-I/O CPU steal, the host link and the disk); the
// CPU rate, the mesh links and the packet size are constants.
#pragma once

#include <cstddef>

#include "des/time.hpp"

namespace chk::xplorer {

using NodeId = std::size_t;

/// Sustained floating-point rate used to convert application work into
/// simulated time. T805 @30 MHz peaks ~4.3 MIPS; sustained FP ~0.7 MFLOP/s.
inline constexpr double kCpuFlopRate = 0.7e6;

/// Effective unidirectional bandwidth of one mesh transputer link.
/// Nominal 20 Mbit/s -> ~1.7 MB/s effective with protocol overheads.
inline constexpr double kMeshLinkBandwidth = 1.7e6;  // bytes/s
/// Per-packet propagation + switching latency of one mesh link.
inline constexpr des::Duration kMeshLinkLatency = des::Duration::micros(8);
/// A message crosses the mesh as packets of at most this many bytes, each
/// stored and forwarded hop by hop.
inline constexpr std::size_t kPacketBytes = 4096;

struct NodeConfig {
  /// Main-memory copy bandwidth (bytes/s) — the cost of main-memory
  /// checkpointing's blocking copy. T805 internal/external RAM mix.
  double mem_copy_bw = 20.0e6;
  /// Fraction of the CPU stolen from the application while the node's
  /// checkpointer thread is streaming a background write to stable storage
  /// (packetization + DMA servicing).
  double background_io_cpu_steal = 0.12;
};

struct LinkConfig {
  /// Effective unidirectional bandwidth.
  double bandwidth = 0;  // bytes/s
  /// Per-transfer propagation + switching latency.
  des::Duration latency;
};

struct DiskConfig {
  /// Host file-system write bandwidth (SunSparc-era local disk).
  double bandwidth = 1.4e6;  // bytes/s
  /// Per-operation positioning/syscall latency.
  des::Duration latency = des::Duration::millis(14);
};

/// A default-constructed MachineConfig is the paper's testbed.
struct MachineConfig {
  std::size_t num_nodes = 8;  ///< arranged as the mesh in topology.hpp
  NodeConfig node;
  /// The host-interface link between the host node and the Sun host.
  LinkConfig host_link{.bandwidth = 1.6e6, .latency = des::Duration::micros(20)};
  DiskConfig disk;
};

}  // namespace chk::xplorer
