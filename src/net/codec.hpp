// The wire codec behind every message in net/messages.hpp. A message lists
// its fields once, in wire order, in a static Visit(m, v); the visitors here
// derive from that one list the encoding, its exact size and the decoding.
//
// A field's C++ type picks its encoding:
//
//   uint8_t, uint32_t, uint64_t, int64_t   fixed width, little endian
//   an enum                                its underlying integer
//   std::array<uint8_t, N>                 the N bytes, raw (Hash)
//   crypto::Key128, Scrubbed<Key128>       the 16 key bytes, raw
//   std::string, Bytes, SecretBuffer       varint length, then the bytes
//   BytesView                              the same bytes as Bytes; decodes
//                                          as a view into the input, which
//                                          must outlive the message
//   TimeRange                              start, end (int64 each)
//   std::vector<T>                         varint count, then each T
//   std::pair<A, B>                        A, then B
//   a struct with a static Visit           its own field list
//
// Three wrappers mark the exceptions: Var(x) encodes a uint64 as a varint,
// Flag(x) a bool or 0/1 byte (decoding rejects any other byte), and
// SchemaBlob(s) a DigestSchema as a length-prefixed blob of its own field
// list. Any other type fails to compile.
//
// Visit may also call v.Check(cond, msg). Decoding fails with
// InvalidArgument(msg) when `cond` is false at that point of the field
// list; encoding ignores it, so Encode never validates and never stops
// early. A decode stops at its first failure. A vector count fails with
// DataLoss before anything is reserved when the remaining input cannot hold
// that many elements of the minimum size, the encoded size of a
// default-constructed element: no decodable element is smaller, so such a
// count is an allocation bomb, not a message.
#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/io.hpp"
#include "common/secret.hpp"
#include "common/time.hpp"
#include "crypto/rand.hpp"

namespace tc::index {
struct DigestSchema;
}

namespace tc::net {

template <typename T>
struct VarField {
  T& value;
};
template <typename T>
struct FlagField {
  T& value;
};
template <typename T>
struct SchemaField {
  T& value;
};

/// A uint64 field encoded as a varint.
template <typename T>
VarField<T> Var(T& x) {
  static_assert(std::is_same_v<std::remove_const_t<T>, uint64_t>);
  return {x};
}

/// A bool or uint8_t field that is 0 or 1 on the wire.
template <typename T>
FlagField<T> Flag(T& x) {
  static_assert(std::is_same_v<std::remove_const_t<T>, bool> ||
                std::is_same_v<std::remove_const_t<T>, uint8_t>);
  return {x};
}

/// A DigestSchema field, carried as a length-prefixed blob of its own field
/// list.
template <typename T>
SchemaField<T> SchemaBlob(T& x) {
  static_assert(
      std::is_same_v<std::remove_const_t<T>, index::DigestSchema>);
  return {x};
}

namespace codec {

template <typename M>
Bytes Encode(const M& m);
template <typename M>
Result<M> Decode(BytesView in);

/// The sink of a sizing pass: counts what a BinaryWriter would append.
class ByteCounter {
 public:
  void PutU8(uint8_t) { size_ += 1; }
  void PutU32(uint32_t) { size_ += 4; }
  void PutU64(uint64_t) { size_ += 8; }
  void PutI64(int64_t) { size_ += 8; }
  void PutVar(uint64_t v) {
    do {
      ++size_;
      v >>= 7;
    } while (v != 0);
  }
  void PutBytes(BytesView b) {
    PutVar(b.size());
    size_ += b.size();
  }
  void PutRaw(BytesView b) { size_ += b.size(); }
  void PutString(std::string_view s) {
    PutVar(s.size());
    size_ += s.size();
  }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// Appends the visited fields to `Sink`: a BinaryWriter, or a ByteCounter
/// to size the message first.
template <typename Sink>
class Writer {
 public:
  explicit Writer(Sink& out) : out_(out) {}

  template <typename... Fields>
  void operator()(const Fields&... fields) {
    (Put(fields), ...);
  }
  void Check(bool, const char*) {}

 private:
  void Put(uint8_t x) { out_.PutU8(x); }
  void Put(uint32_t x) { out_.PutU32(x); }
  void Put(uint64_t x) { out_.PutU64(x); }
  void Put(int64_t x) { out_.PutI64(x); }
  void Put(const std::string& x) { out_.PutString(x); }
  void Put(const Bytes& x) { out_.PutBytes(x); }
  void Put(BytesView x) { out_.PutBytes(x); }
  void Put(const SecretBuffer& x) { out_.PutBytes(x.secret_bytes()); }
  template <size_t N>
  void Put(const std::array<uint8_t, N>& x) {
    out_.PutRaw(x);
  }
  void Put(const crypto::Key128& x) { out_.PutRaw(x.secret_bytes()); }
  template <typename T>
  void Put(const Scrubbed<T>& x) {
    Put(static_cast<const T&>(x));
  }
  void Put(const TimeRange& x) { (*this)(x.start, x.end); }
  template <typename E>
    requires std::is_enum_v<E>
  void Put(const E& x) {
    Put(static_cast<std::underlying_type_t<E>>(x));
  }
  template <typename T>
  void Put(VarField<T> f) {
    out_.PutVar(f.value);
  }
  template <typename T>
  void Put(FlagField<T> f) {
    out_.PutU8(f.value ? 1 : 0);
  }
  template <typename T>
  void Put(SchemaField<T> f) {
    out_.PutBytes(Encode(f.value));
  }
  template <typename T>
  void Put(const std::vector<T>& xs) {
    out_.PutVar(xs.size());
    for (const T& x : xs) Put(x);
  }
  template <typename A, typename B>
  void Put(const std::pair<A, B>& x) {
    (*this)(x.first, x.second);
  }
  template <typename M>
  void Put(const M& m) {
    M::Visit(m, *this);
  }

  Sink& out_;
};

/// The encoded size of a default-constructed T, at least 1: a lower bound
/// on the size of any T a decode accepts.
template <typename T>
size_t MinEncodedSize() {
  static const size_t size = [] {
    ByteCounter counter;
    Writer<ByteCounter> writer(counter);
    writer(T{});
    return std::max<size_t>(counter.size(), 1);
  }();
  return size;
}

/// Reads the visited fields back; status() holds the first failure.
class Reader {
 public:
  explicit Reader(BinaryReader& in) : in_(in) {}

  template <typename... Fields>
  void operator()(Fields&&... fields) {
    ((status_.ok() ? Get(fields) : void()), ...);
  }
  void Check(bool cond, const char* msg) {
    if (status_.ok() && !cond) status_ = InvalidArgument(msg);
  }

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  template <typename T>
  void Take(Result<T> r, T& out) {
    if (r.ok()) {
      out = std::move(r).value();
    } else {
      status_ = r.status();
    }
  }

  void Get(uint8_t& x) { Take(in_.GetU8(), x); }
  void Get(uint32_t& x) { Take(in_.GetU32(), x); }
  void Get(uint64_t& x) { Take(in_.GetU64(), x); }
  void Get(int64_t& x) { Take(in_.GetI64(), x); }
  void Get(std::string& x) { Take(in_.GetString(), x); }
  void Get(Bytes& x) { Take(in_.GetBytes(), x); }
  void Get(BytesView& x) {
    uint64_t size = 0;
    Take(in_.GetVar(), size);
    if (status_.ok()) Take(in_.GetRaw(size), x);
  }
  void Get(SecretBuffer& x) {
    BytesView raw;
    Get(raw);
    if (status_.ok()) x = SecretBuffer(raw);
  }
  template <size_t N>
  void Get(std::array<uint8_t, N>& x) {
    GetRaw(x);
  }
  void Get(crypto::Key128& x) { GetRaw(x.secret_bytes()); }
  template <typename T>
  void Get(Scrubbed<T>& x) {
    Get(static_cast<T&>(x));
  }
  void GetRaw(std::span<uint8_t> out) {
    BytesView raw;
    Take(in_.GetRaw(out.size()), raw);
    std::copy(raw.begin(), raw.end(), out.begin());
  }
  void Get(TimeRange& x) { (*this)(x.start, x.end); }
  template <typename E>
    requires std::is_enum_v<E>
  void Get(E& x) {
    std::underlying_type_t<E> raw = 0;
    Get(raw);
    x = static_cast<E>(raw);
  }
  void Get(VarField<uint64_t> f) { Take(in_.GetVar(), f.value); }
  template <typename T>
  void Get(FlagField<T> f) {
    uint8_t raw = 0;
    Get(raw);
    Check(raw <= 1, "flag byte is neither 0 nor 1");
    f.value = static_cast<T>(raw);
  }
  template <typename T>
  void Get(SchemaField<T> f) {
    Bytes blob;
    Get(blob);
    if (status_.ok()) Take(Decode<T>(blob), f.value);
  }
  template <typename T>
  void Get(std::vector<T>& xs) {
    uint64_t count = 0;
    Get(Var(count));
    if (!status_.ok()) return;
    if (count > in_.remaining() / MinEncodedSize<T>()) {
      status_ = DataLoss("element count exceeds input");
      return;
    }
    xs.reserve(count);
    for (uint64_t i = 0; i < count && status_.ok(); ++i) {
      Get(xs.emplace_back());
    }
  }
  template <typename A, typename B>
  void Get(std::pair<A, B>& x) {
    (*this)(x.first, x.second);
  }
  template <typename M>
  void Get(M& m) {
    M::Visit(m, *this);
  }

  BinaryReader& in_;
  Status status_;
};

template <typename M, typename Sink>
void Write(Sink& out, const M& m) {
  Writer<Sink> writer(out);
  M::Visit(m, writer);
}

template <typename M>
Bytes Encode(const M& m) {
  ByteCounter size;
  Write(size, m);
  BinaryWriter out(size.size());
  Write(out, m);
  return std::move(out).Take();
}

template <typename M>
Result<M> Read(BinaryReader& in) {
  M m;
  Reader reader(in);
  M::Visit(m, reader);
  if (!reader.status().ok()) return reader.status();
  return m;
}

template <typename M>
Result<M> Decode(BytesView in) {
  BinaryReader reader(in);
  return Read<M>(reader);
}

}  // namespace codec
}  // namespace tc::net

/// Declares a message's Encode() and Decode(BytesView), both derived from
/// its static Visit. Place it in the struct body after Visit.
#define TC_WIRE_MESSAGE(T)                                          \
  ::tc::Bytes Encode() const { return ::tc::net::codec::Encode(*this); } \
  static ::tc::Result<T> Decode(::tc::BytesView in) {               \
    return ::tc::net::codec::Decode<T>(in);                         \
  }
