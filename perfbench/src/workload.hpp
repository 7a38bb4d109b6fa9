#pragma once
/// \file workload.hpp
/// One benchmark operation: an OPS app run, a BabelStream run, an
/// MG-CFD run on the prebuilt mesh, or the report cells of one app.
/// Operations are named by a spec string that run.py builds:
///
///   <kind> <app> <backend> <d0>x<d1>x<d2> <steps>
///
///   ops    cloverleaf2d threads   1280x1280x1 2   (OPS app, `steps` iters)
///   stream babelstream  threads   33554432x1x1 1  (n doubles, `steps` reps)
///   mgcfd  mgcfd        threads   64x56x40 5      (fine grid, V-cycles)
///   report cloverleaf2d model     0x0x0 0         (every platform x variant)

#include <array>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "apps/apps.hpp"
#include "study/study.hpp"

namespace perfbench {

struct OpSpec {
  std::string text;
  std::string kind;
  std::string app;
  std::string backend;
  std::array<std::size_t, 3> grid{1, 1, 1};
  int steps = 0;
};

/// Parse a spec; throws std::invalid_argument on a malformed one.
[[nodiscard]] OpSpec parse_spec(const std::string& text);

/// Runs operations and holds what persists between them: the MG-CFD
/// mesh, the pass's StudyRunner, and the first pass's report cells that
/// later passes must reproduce.
class Executor {
 public:
  /// Drop all persistent state (each set-up starts from scratch).
  void reset();

  /// Start a pass: the report workload gets a fresh StudyRunner.
  void begin_pass();

  /// Run one operation; returns its result as a JSON object. Exceptions
  /// from the program are caught and reported in the "error" field.
  [[nodiscard]] std::string run(const OpSpec& spec);

  /// Finish a pass: for the report workload, the Pennycook PP rows of
  /// the pass, checked against the first pass. Returns a JSON object.
  [[nodiscard]] std::string end_pass();

  /// The mesh for `grid` (built on first use; part of set-up).
  syclport::apps::mgcfd::MultigridMesh& mesh(const std::array<std::size_t, 3>& grid);

 private:
  std::string run_report(const OpSpec& spec);

  std::optional<std::array<std::size_t, 3>> mesh_grid_;
  std::unique_ptr<syclport::apps::mgcfd::MultigridMesh> mesh_;
  std::unique_ptr<syclport::study::StudyRunner> runner_;
  /// Cell key -> bit pattern of the first pass's result fields.
  std::map<std::string, std::array<std::uint64_t, 8>> cells_first_;
  /// Cell key -> efficiency in the current pass (input to PP).
  std::map<std::string, double> eff_this_pass_;
  std::map<std::string, std::uint64_t> pp_first_;
};

}  // namespace perfbench
