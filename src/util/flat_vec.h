// FlatVec<T>: the storage type of every frozen table in the repo.
//
// A FlatVec is either *owning* (it holds a std::vector<T>, the classic path:
// builders fill a vector and freeze it) or a *view* (a raw pointer + length
// into memory owned by someone else -- an mmap'd snapshot arena, a shared
// memory region).  Readers cannot tell the difference: both modes expose the
// same immutable, contiguous, random-access surface, so the frozen data
// structures (CSR digraph rows, rtz3 dictionaries, ball systems, name
// assignments) work identically whether they were built in-process or mapped
// in place from a v2 snapshot.
//
// Views do NOT keep their backing memory alive; the class that embeds view
// FlatVecs must carry the owner (a shared_ptr<const ArenaStorage>) alongside
// them.  Copying a FlatVec copies owning data (re-pointing at the copy) and
// aliases views, which is exactly the semantics a frozen structure wants.
#ifndef RTR_UTIL_FLAT_VEC_H
#define RTR_UTIL_FLAT_VEC_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rtr {

template <typename T>
class FlatVec {
 public:
  using value_type = T;
  using const_iterator = const T*;

  FlatVec() = default;

  /// Owning mode: adopt a built vector.  Implicit on purpose -- builders
  /// write `table_ = std::move(rows);` exactly as they did when the member
  /// was a std::vector.
  FlatVec(std::vector<T> own)  // NOLINT(google-explicit-constructor)
      : own_(std::move(own)), data_(own_.data()), size_(own_.size()) {}

  /// View mode: alias `count` elements at `data` owned elsewhere.
  [[nodiscard]] static FlatVec view(const T* data, std::size_t count) {
    FlatVec v;
    v.data_ = data;
    v.size_ = count;
    return v;
  }

  FlatVec(const FlatVec& other) { assign_from(other); }
  FlatVec& operator=(const FlatVec& other) {
    if (this != &other) assign_from(other);
    return *this;
  }
  FlatVec(FlatVec&& other) noexcept { move_from(std::move(other)); }
  FlatVec& operator=(FlatVec&& other) noexcept {
    if (this != &other) move_from(std::move(other));
    return *this;
  }
  ~FlatVec() = default;

  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool is_view() const { return data_ != nullptr && own_.empty(); }

  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] const T& front() const { return data_[0]; }
  [[nodiscard]] const T& back() const { return data_[size_ - 1]; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }

  /// Materializes an owning copy (tooling/tests; never on the serving path).
  [[nodiscard]] std::vector<T> to_vector() const {
    return std::vector<T>(begin(), end());
  }

  [[nodiscard]] bool operator==(const FlatVec& other) const {
    return size_ == other.size_ && std::equal(begin(), end(), other.begin());
  }
  [[nodiscard]] bool operator==(const std::vector<T>& other) const {
    return size_ == other.size() && std::equal(begin(), end(), other.begin());
  }

 private:
  void assign_from(const FlatVec& other) {
    if (other.is_view()) {
      own_.clear();
      data_ = other.data_;
      size_ = other.size_;
    } else {
      own_ = other.own_;
      data_ = own_.data();
      size_ = own_.size();
    }
  }
  void move_from(FlatVec&& other) noexcept {
    if (other.is_view()) {
      own_.clear();
      data_ = other.data_;
      size_ = other.size_;
    } else {
      own_ = std::move(other.own_);
      data_ = own_.data();
      size_ = own_.size();
    }
    other.data_ = nullptr;
    other.size_ = 0;
    other.own_.clear();
  }

  std::vector<T> own_;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// True when `off` frames `entries` elements as CSR row offsets: it starts
/// at 0, ends at `entries` and never decreases.
[[nodiscard]] inline bool csr_framed(const FlatVec<std::int64_t>& off,
                                     std::size_t entries) {
  return !off.empty() && off.front() == 0 &&
         off.back() == static_cast<std::int64_t>(entries) &&
         std::is_sorted(off.begin(), off.end());
}

/// One row of a CSR dictionary: row r's keys are keys[off[r] .. off[r+1]),
/// sorted ascending.  Returns the index of `key` in `keys`, or -1 when row r
/// does not hold it (one binary search over the row).
template <typename K>
[[nodiscard]] std::int64_t csr_find(const FlatVec<std::int64_t>& off,
                                    const FlatVec<K>& keys, std::size_t row,
                                    K key) {
  const K* first = keys.data() + off[row];
  const K* last = keys.data() + off[row + 1];
  const K* it = std::lower_bound(first, last, key);
  return it != last && *it == key ? it - keys.data() : -1;
}

}  // namespace rtr

#endif  // RTR_UTIL_FLAT_VEC_H
