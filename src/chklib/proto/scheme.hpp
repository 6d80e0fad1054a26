// The checkpointing schemes compared by the paper (plus two ablation /
// extension variants marked *).
//
//   Coord_NB     non-blocking protocol, application blocked during its own
//                stable-storage write
//   Coord_NBS  * Coord_NB + checkpoint staggering without memory buffering
//                (ablation: does staggering pay off on its own?)
//   Coord_NBM    non-blocking + main-memory checkpointing (blocked only for
//                the memory copy; checkpointer thread writes in background)
//   Coord_NBMS   Coord_NBM + checkpoint staggering (token-based ring orders
//                the background writes so one node accesses stable storage
//                at a time)
//   Indep        independent: each node checkpoints autonomously, blocked
//                during its stable-storage write
//   Indep_M      independent + main-memory checkpointing
//   Indep_MS   * Indep_M + stagger arbitration (extension: does staggering
//                help without coordination?)
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace chk::chklib {

// Note on the missing "blocking" coordinated variant: a scheme that parks
// the application from its local checkpoint until the global commit
// DEADLOCKS under user-defined checkpoint placement — a blocked process
// sends nothing, so a neighbour that needs one of its messages to finish
// the current iteration never reaches its own safe point, never captures,
// and the commit never completes. Non-blocking coordination is therefore
// *required* (not merely faster) for CHK-LIB-style libraries; see
// EXPERIMENTS.md.
enum class Scheme {
  kNone,       ///< no checkpointing (the NORMAL baseline column)
  kCoordNB,    ///< paper's Coord_NB
  kCoordNBS,   ///< * staggered WITHOUT memory buffering (ablation: the paper
               ///<   found staggering only pays off combined with buffering)
  kCoordNBM,   ///< paper's Coord_NBM
  kCoordNBMS,  ///< paper's Coord_NBMS
  kIndep,      ///< paper's Indep
  kIndepM,     ///< paper's Indep_M
  kIndepMS,    ///< * staggered independent (extension)
};

[[nodiscard]] constexpr bool is_coordinated(Scheme s) noexcept {
  return s == Scheme::kCoordNB || s == Scheme::kCoordNBS || s == Scheme::kCoordNBM ||
         s == Scheme::kCoordNBMS;
}
[[nodiscard]] constexpr bool is_independent(Scheme s) noexcept {
  return s == Scheme::kIndep || s == Scheme::kIndepM || s == Scheme::kIndepMS;
}
/// Main-memory checkpointing: the application blocks only for the memory
/// copy; a checkpointer thread streams the data to stable storage.
[[nodiscard]] constexpr bool is_buffered(Scheme s) noexcept {
  return s == Scheme::kCoordNBM || s == Scheme::kCoordNBMS || s == Scheme::kIndepM ||
         s == Scheme::kIndepMS;
}
/// Checkpoint staggering: stable-storage writes are serialized across nodes.
[[nodiscard]] constexpr bool is_staggered(Scheme s) noexcept {
  return s == Scheme::kCoordNBS || s == Scheme::kCoordNBMS || s == Scheme::kIndepMS;
}

[[nodiscard]] std::string_view to_string(Scheme s) noexcept;
[[nodiscard]] Scheme scheme_from_string(const std::string& name);

}  // namespace chk::chklib
