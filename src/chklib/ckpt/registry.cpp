#include "chklib/ckpt/registry.hpp"

#include <algorithm>
#include <cstring>

#include "util/format.hpp"

namespace chk::chklib {

void CheckpointRegistry::check_unique(const std::string& name) const {
  const bool duplicate = std::any_of(regions_.begin(), regions_.end(),
                                     [&](const Region& r) { return r.name == name; });
  if (duplicate) {
    throw RegistryError(util::format("region '{}' registered twice", name));
  }
}

void CheckpointRegistry::register_region(std::string name, std::span<std::byte> bytes) {
  check_unique(name);
  regions_.push_back(Region{std::move(name), bytes, nullptr, nullptr});
}

void CheckpointRegistry::register_dynamic(std::string name, DynamicCapture cap,
                                          DynamicRestore res) {
  if (!cap || !res) {
    throw RegistryError(util::format("dynamic region '{}': null accessor", name));
  }
  check_unique(name);
  regions_.push_back(Region{std::move(name), {}, std::move(cap), std::move(res)});
}

std::size_t CheckpointRegistry::state_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& region : regions_) {
    total += region.dyn_capture ? region.dyn_capture().size() : region.bytes.size();
  }
  return total;
}

std::vector<std::byte> CheckpointRegistry::capture() const {
  util::ByteWriter writer;
  std::size_t bytes = sizeof(std::uint32_t) + state_bytes();
  for (const auto& region : regions_) {
    bytes += 2 * sizeof(std::uint64_t) + region.name.size();  // name and data lengths
  }
  writer.reserve(bytes);
  writer.put<std::uint32_t>(static_cast<std::uint32_t>(regions_.size()));
  for (const auto& region : regions_) {
    writer.put_string(region.name);
    writer.put_bytes(region.dyn_capture ? region.dyn_capture() : region.bytes);
  }
  return writer.take();
}

void CheckpointRegistry::restore(std::span<const std::byte> blob) {
  util::ByteReader reader(blob);
  const auto count = reader.get<std::uint32_t>();
  if (count != regions_.size()) {
    throw RegistryError(util::format("restore: {} regions captured, {} registered", count,
                                     regions_.size()));
  }
  for (auto& region : regions_) {
    const std::string name = reader.get_string();
    const auto bytes = reader.get_bytes_view();
    if (name != region.name) {
      throw RegistryError(
          util::format("restore: region order mismatch ('{}' vs '{}')", name, region.name));
    }
    if (region.dyn_restore) {
      region.dyn_restore(bytes);
      continue;
    }
    if (bytes.size() != region.bytes.size()) {
      throw RegistryError(util::format("restore: region '{}' size {} != registered {}", name,
                                       bytes.size(), region.bytes.size()));
    }
    std::memcpy(region.bytes.data(), bytes.data(), bytes.size());
  }
}

}  // namespace chk::chklib
