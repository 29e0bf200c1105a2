// Secret-hygiene primitives: key material is a type, not a convention.
//
//  - crypto::Key128 (crypto/rand.hpp) has no ==, no stream operator and
//    no implicit byte view, and SecretBuffer no implicit byte view (its ==
//    is constant-time, its << redacts), so a key cannot reach a TC_LOG
//    stream, a Status message or an early-exit compare without a compile
//    error. Each exposes its bytes through one explicit accessor,
//    secret_bytes(), which tc_lint allows only in src/crypto/ and in the
//    key serialisers (net/codec.hpp, client/grants.cpp, the CLI's key
//    files). Compare keys with ConstantTimeEqual (crypto/constant_time.hpp).
//  - Key material held in an object lives in a scrubbing holder:
//    Scrubbed<T> for fixed-size values (keys, key schedules, GGM paths),
//    SecretBytes/SecretBuffer or a ZeroizingAllocator vector for the rest.
//    tc_lint R9 rejects a key member held any other way, so no owner
//    writes a scrubbing destructor of its own.
//
// tests/compile_fail/ proves the missing operators are missing;
// tests/secret_test.cpp proves the holders scrub.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace tc {

/// Allocator adaptor that SecureZeros every block before handing it back to
/// the upstream allocator — a container of secrets scrubs its storage on
/// free *and* on reallocation (vector growth frees the old block through
/// here too). The Upstream parameter exists for tests: an arena upstream
/// whose memory outlives deallocate() lets a test legally inspect the
/// scrubbed pattern.
template <typename T, typename Upstream = std::allocator<T>>
class ZeroizingAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  template <typename U>
  struct rebind {
    using other = ZeroizingAllocator<
        U, typename std::allocator_traits<Upstream>::template rebind_alloc<U>>;
  };

  ZeroizingAllocator() = default;
  explicit ZeroizingAllocator(Upstream upstream)
      : upstream_(std::move(upstream)) {}

  template <typename U, typename V>
  explicit ZeroizingAllocator(const ZeroizingAllocator<U, V>& other)
      : upstream_(typename std::allocator_traits<
                  V>::template rebind_alloc<T>(other.upstream())) {}

  T* allocate(size_t n) {
    return std::allocator_traits<Upstream>::allocate(upstream_, n);
  }

  void deallocate(T* p, size_t n) {
    SecureZero(MutableBytesView(reinterpret_cast<uint8_t*>(p), n * sizeof(T)));
    std::allocator_traits<Upstream>::deallocate(upstream_, p, n);
  }

  const Upstream& upstream() const { return upstream_; }

  friend bool operator==(const ZeroizingAllocator& a,
                         const ZeroizingAllocator& b) {
    return a.upstream_ == b.upstream_;
  }

 private:
  Upstream upstream_;
};

/// Bytes whose backing store is scrubbed whenever it is released.
using SecretBytes = std::vector<uint8_t, ZeroizingAllocator<uint8_t>>;

/// A trivially copyable key value (Key128, an array of them, a key
/// schedule) that SecureZeros its bytes when destroyed. It is-a T, so it
/// reads, indexes and passes as one; copies and moves copy the value, and
/// each copy scrubs itself.
template <typename T>
class Scrubbed : public T {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Scrubbed() : T{} {}
  Scrubbed(const T& value) : T(value) {}  // NOLINT(google-explicit-constructor)
  Scrubbed(const Scrubbed&) = default;
  Scrubbed& operator=(const Scrubbed&) = default;
  Scrubbed& operator=(const T& value) {
    T::operator=(value);
    return *this;
  }
  ~Scrubbed() {
    SecureZero(MutableBytesView(
        reinterpret_cast<uint8_t*>(static_cast<T*>(this)), sizeof(T)));
  }
};

/// RAII buffer for variable-length key material. Its storage is scrubbed on
/// destruction, on reallocation, and on move-assignment over an existing
/// value; equality is constant-time; streaming it prints a redaction, never
/// the contents. The bytes are reached only through secret_bytes().
class SecretBuffer {
 public:
  SecretBuffer() = default;
  explicit SecretBuffer(size_t n) : data_(n, 0) {}
  explicit SecretBuffer(BytesView v) : data_(v.begin(), v.end()) {}

  /// Adopting a plain Bytes copies into scrubbed storage, then SecureZeros
  /// the source — the allocators differ, so the heap block cannot simply be
  /// stolen, and leaving a key copy behind would defeat the point.
  explicit SecretBuffer(Bytes&& b) { Adopt(std::move(b)); }
  SecretBuffer& operator=(Bytes&& b) {
    Adopt(std::move(b));
    return *this;
  }

  SecretBuffer(const SecretBuffer&) = default;
  SecretBuffer& operator=(const SecretBuffer&) = default;
  SecretBuffer(SecretBuffer&&) noexcept = default;
  SecretBuffer& operator=(SecretBuffer&&) noexcept = default;

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  void resize(size_t n) { data_.resize(n, 0); }

  /// Scrub and drop the contents (the allocator re-scrubs on free).
  void Clear() {
    SecureZero(MutableBytesView(data_.data(), data_.size()));
    data_.clear();
  }

  /// The one way to the bytes (tc_lint restricts where it may be called).
  BytesView secret_bytes() const { return BytesView(data_); }
  MutableBytesView secret_bytes() { return MutableBytesView(data_); }

  /// Constant-time equality — comparing key material with an early-exit
  /// memcmp would leak matching-prefix length through timing.
  friend bool operator==(const SecretBuffer& a, const SecretBuffer& b) {
    return ConstantTimeEqual(a.secret_bytes(), b.secret_bytes());
  }
  friend bool operator!=(const SecretBuffer& a, const SecretBuffer& b) {
    return !(a == b);
  }

  /// Redacted: a SecretBuffer reaching a log line, a status message, or a
  /// test-failure dump prints its length, never its bytes.
  friend std::ostream& operator<<(std::ostream& os, const SecretBuffer& b) {
    return os << "<secret " << b.size() << " bytes>";
  }

 private:
  void Adopt(Bytes&& b) {
    data_.assign(b.begin(), b.end());
    SecureZero(MutableBytesView(b.data(), b.size()));
    b.clear();
  }

  SecretBytes data_;
};

}  // namespace tc
