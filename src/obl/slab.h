// ByteSlab: a contiguous array of fixed-stride byte records.
//
// Snoopy operates over records whose payload size is a runtime configuration value
// (160-byte objects in the paper's main evaluation, 32-byte objects for key
// transparency). Oblivious algorithms cannot use pointer-chasing containers, so all
// record collections are stored as one flat allocation with a fixed stride; the
// oblivious primitives move whole records with constant-time byte operations.

#ifndef SNOOPY_SRC_OBL_SLAB_H_
#define SNOOPY_SRC_OBL_SLAB_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace snoopy {

template <typename T>
class Secret;  // obl/secret.h

class ByteSlab {
 public:
  ByteSlab() : record_bytes_(1) {}
  ByteSlab(size_t count, size_t record_bytes)
      : record_bytes_(record_bytes), data_(count * record_bytes) {}

  size_t size() const { return record_bytes_ == 0 ? 0 : data_.size() / record_bytes_; }
  size_t record_bytes() const { return record_bytes_; }
  bool empty() const { return data_.empty(); }

  uint8_t* Record(size_t i) {
    assert(i < size());
    return data_.data() + i * record_bytes_;
  }
  const uint8_t* Record(size_t i) const {
    assert(i < size());
    return data_.data() + i * record_bytes_;
  }

  // Record indices are addresses the adversary observes; a secret-typed index is a
  // type error. Obliviously select a record with CtCondCopyBytes over a full scan.
  template <typename T>
  uint8_t* Record(Secret<T>) = delete;
  template <typename T>
  const uint8_t* Record(Secret<T>) const = delete;
  template <typename T>
  void Truncate(Secret<T>) = delete;

  // Appends a copy of the record pointed to by `rec` (record_bytes() bytes).
  void Append(const uint8_t* rec) {
    const size_t old = data_.size();
    data_.resize(old + record_bytes_);
    std::memcpy(data_.data() + old, rec, record_bytes_);
  }

  // Appends `count` zero-initialized records with one resize and returns a pointer to
  // the first of them.
  uint8_t* AppendZero(size_t count = 1) {
    const size_t old = data_.size();
    data_.resize(old + count * record_bytes_);
    return data_.data() + old;
  }

  // Drops all records at index >= n. The count n must be public.
  void Truncate(size_t n) {
    assert(n <= size());
    data_.resize(n * record_bytes_);
  }

  void Clear() { data_.clear(); }

  uint8_t* data() { return data_.data(); }
  const uint8_t* data() const { return data_.data(); }

 private:
  size_t record_bytes_;
  std::vector<uint8_t> data_;
};

}  // namespace snoopy

#endif  // SNOOPY_SRC_OBL_SLAB_H_
