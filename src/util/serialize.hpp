// Minimal binary serialization for checkpoint images and metadata.
//
// Fixed little-endian-as-memcpy encoding (the simulation never crosses a
// real machine boundary); length-prefixed strings and blobs; explicit
// bounds checking on read so corrupt images fail loudly instead of UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace chk::util {

class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ByteWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    const auto* raw = reinterpret_cast<const std::byte*>(&value);
    buffer_.insert(buffer_.end(), raw, raw + sizeof(T));
  }

  void put_bytes(std::span<const std::byte> bytes) {
    put<std::uint64_t>(bytes.size());
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  void put_string(const std::string& s) {
    put_bytes(std::as_bytes(std::span<const char>(s.data(), s.size())));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& v) {
    put<std::uint64_t>(v.size());
    const auto* raw = reinterpret_cast<const std::byte*>(v.data());
    buffer_.insert(buffer_.end(), raw, raw + v.size() * sizeof(T));
  }

  /// Overwrites the sizeof(T) bytes at `offset`, which an earlier put wrote
  /// (a placeholder whose value is known only once more has followed).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_at(std::size_t offset, const T& value) {
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept { return buffer_; }
  [[nodiscard]] std::vector<std::byte> take() noexcept { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::vector<std::byte> buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T value;
    require(sizeof(T));
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Zero-copy view of a length-prefixed blob (valid while source lives).
  std::span<const std::byte> get_bytes_view() {
    const auto n = get<std::uint64_t>();
    require(n);
    auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  std::string get_string() {
    const auto view = get_bytes_view();
    return std::string(reinterpret_cast<const char*>(view.data()), view.size());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    const auto n = get<std::uint64_t>();
    require(n * sizeof(T));
    std::vector<T> out(n);
    if (n > 0) std::memcpy(out.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  void require(std::uint64_t n) const {
    if (pos_ + n > data_.size()) {
      throw SerializeError("ByteReader: truncated input");
    }
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// View of a trivially copyable object as writable bytes.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::span<std::byte> as_writable_bytes_of(T& value) {
  return std::span<std::byte>(reinterpret_cast<std::byte*>(&value), sizeof(T));
}

/// View of a vector's elements as writable bytes.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::span<std::byte> as_writable_bytes_of(std::vector<T>& v) {
  return std::span<std::byte>(reinterpret_cast<std::byte*>(v.data()), v.size() * sizeof(T));
}

}  // namespace chk::util
