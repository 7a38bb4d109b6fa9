#pragma once
/// \file item.hpp
/// miniSYCL work-item views: sycl::item (flat parallel_for), sycl::group
/// and sycl::nd_item (nd_range parallel_for, with work-group barriers).

#include "runtime/fiber.hpp"
#include "sycl/range.hpp"

namespace sycl {

namespace access {
/// Barrier fence spaces (accepted and ignored: host memory is coherent).
enum class fence_space { local_space, global_space, global_and_local };
}  // namespace access

/// Work-item view for parallel_for(range): global id only, no barrier.
template <int Dims = 1>
class item {
 public:
  item(id<Dims> idx, range<Dims> r) : id_(idx), range_(r) {}

  [[nodiscard]] id<Dims> get_id() const { return id_; }
  [[nodiscard]] std::size_t get_id(int dim) const { return id_[dim]; }
  [[nodiscard]] std::size_t operator[](int dim) const { return id_[dim]; }
  [[nodiscard]] range<Dims> get_range() const { return range_; }
  [[nodiscard]] std::size_t get_range(int dim) const { return range_[dim]; }
  [[nodiscard]] std::size_t get_linear_id() const {
    return detail::linearize(id_, range_);
  }

 private:
  id<Dims> id_;
  range<Dims> range_;
};

/// The work-group a given nd_item belongs to. Carries the calling
/// work-item's local linear id so the group algorithms
/// (sycl/group_algorithms.hpp) can use the standard SYCL signatures.
template <int Dims = 1>
class group {
 public:
  group(id<Dims> gid, range<Dims> group_range, range<Dims> local_range,
        std::size_t caller_lid = 0)
      : id_(gid),
        group_range_(group_range),
        local_range_(local_range),
        caller_lid_(caller_lid) {}

  [[nodiscard]] id<Dims> get_group_id() const { return id_; }
  [[nodiscard]] std::size_t get_group_id(int dim) const { return id_[dim]; }
  [[nodiscard]] range<Dims> get_group_range() const { return group_range_; }
  [[nodiscard]] range<Dims> get_local_range() const { return local_range_; }
  [[nodiscard]] std::size_t get_group_linear_id() const {
    return detail::linearize(id_, group_range_);
  }
  [[nodiscard]] std::size_t get_local_linear_range() const {
    return local_range_.size();
  }
  /// Local linear id of the work-item this view was obtained from.
  [[nodiscard]] std::size_t caller_local_linear_id() const {
    return caller_lid_;
  }

 private:
  id<Dims> id_;
  range<Dims> group_range_;
  range<Dims> local_range_;
  std::size_t caller_lid_;
};

/// Work-item view for parallel_for(nd_range): global/local/group ids and
/// a work-group barrier() implemented with cooperative fibers.
class sub_group;

template <int Dims = 1>
class nd_item {
 public:
  nd_item(id<Dims> global, id<Dims> local, group<Dims> grp,
          range<Dims> global_range, std::size_t sub_group_size = 8)
      : global_(global),
        local_(local),
        group_(grp),
        global_range_(global_range),
        sg_size_(sub_group_size) {}

  [[nodiscard]] id<Dims> get_global_id() const { return global_; }
  [[nodiscard]] std::size_t get_global_id(int dim) const { return global_[dim]; }
  [[nodiscard]] id<Dims> get_local_id() const { return local_; }
  [[nodiscard]] std::size_t get_local_id(int dim) const { return local_[dim]; }
  [[nodiscard]] group<Dims> get_group() const { return group_; }
  [[nodiscard]] std::size_t get_group(int dim) const {
    return group_.get_group_id(dim);
  }
  [[nodiscard]] range<Dims> get_global_range() const { return global_range_; }
  [[nodiscard]] std::size_t get_global_range(int dim) const {
    return global_range_[dim];
  }
  [[nodiscard]] range<Dims> get_local_range() const {
    return group_.get_local_range();
  }
  [[nodiscard]] std::size_t get_local_range(int dim) const {
    return group_.get_local_range()[dim];
  }
  [[nodiscard]] std::size_t get_global_linear_id() const {
    return detail::linearize(global_, global_range_);
  }
  [[nodiscard]] std::size_t get_local_linear_id() const {
    return detail::linearize(local_, group_.get_local_range());
  }

  /// Work-group barrier. All work-items of the group must reach the
  /// same barrier (SYCL requirement); enforced by run_barrier_group.
  void barrier(access::fence_space =
                   access::fence_space::global_and_local) const {
    syclport::rt::group_barrier();
  }

  /// The sub-group this work-item belongs to (declared in
  /// sycl/sub_group.hpp; contiguous chunks of the local linear space).
  [[nodiscard]] sub_group get_sub_group() const;

  [[nodiscard]] std::size_t sub_group_size_hint() const { return sg_size_; }

 private:
  id<Dims> global_;
  id<Dims> local_;
  group<Dims> group_;
  range<Dims> global_range_;
  std::size_t sg_size_;
};

}  // namespace sycl
