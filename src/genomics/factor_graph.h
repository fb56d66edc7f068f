#ifndef PPDP_GENOMICS_FACTOR_GRAPH_H_
#define PPDP_GENOMICS_FACTOR_GRAPH_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace ppdp::genomics {

/// A generic discrete factor graph with loopy sum-product belief
/// propagation (Section 5.2.2 / 5.4). Variables have small categorical
/// domains (SNPs: 3, traits: 2); factors carry dense tables over the joint
/// domain of their arguments (row-major, last argument fastest).
///
/// Evidence clamps a variable to one value, implementing the known-SNP /
/// known-trait initialization of the message-passing iteration.
class FactorGraph {
 public:
  FactorGraph() = default;

  /// Adds a variable with `domain_size` states; returns its id.
  size_t AddVariable(size_t domain_size);

  /// Adds a factor over `variables` with `table` of size
  /// Π domain(variables[k]), row-major with the last variable fastest.
  /// Entries must be non-negative. Returns the factor id.
  size_t AddFactor(std::vector<size_t> variables, std::vector<double> table);

  /// Clamps `variable` to `value` (kept across runs until cleared).
  void SetEvidence(size_t variable, size_t value);
  void ClearEvidence(size_t variable);
  bool HasEvidence(size_t variable) const;

  size_t num_variables() const { return domains_.size(); }
  size_t num_factors() const { return factors_.size(); }
  size_t domain(size_t variable) const { return domains_.at(variable); }

  /// Loopy-BP options.
  struct BpOptions {
    size_t max_iterations = 50;
    double damping = 0.0;   ///< 0 = plain updates; 0.3-0.5 helps loopy graphs
    double tolerance = 1e-8;  ///< max message L∞ change for convergence
    /// Ignored: message passing always runs serially on the calling
    /// thread. Kept only so existing callers that set it still compile;
    /// delete it with its last caller.
    int threads = 0;
  };

  /// Per-variable marginals after message passing.
  struct BpResult {
    std::vector<std::vector<double>> marginals;
    size_t iterations = 0;
    bool converged = false;
  };

  /// Runs flooding-schedule sum-product BP. Exact on trees; approximate on
  /// loopy graphs (the chapter-5 graphs are near-trees).
  ///
  /// Every run reuses the graph's BP workspace (see Workspace), so runs of
  /// one graph must not overlap: run a graph from one thread at a time.
  BpResult RunBeliefPropagation(const BpOptions& options) const;
  BpResult RunBeliefPropagation() const;

  /// The same run, computing the beliefs of `variables` only:
  /// marginals[i] is variables[i]'s, bit-identical to its entry in the
  /// full result. For callers that rerun BP under changing evidence and
  /// read a few variables each time.
  BpResult RunBeliefPropagation(const BpOptions& options,
                                const std::vector<size_t>& variables) const;

  /// Exact marginals by exhaustive enumeration, for validating BP on small
  /// graphs. Dies if the joint state space exceeds `max_states`.
  std::vector<std::vector<double>> ExactMarginals(size_t max_states = 1u << 20) const;

  /// Max-product (MAP) message passing: returns the (approximately) most
  /// likely joint assignment — the "reconstruction" flavor of the chapter-5
  /// attack, which names a single genome rather than per-locus marginals.
  /// Exact on trees; approximate on loopy graphs. Evidence is respected.
  struct MapResult {
    std::vector<size_t> assignment;  ///< one state per variable
    size_t iterations = 0;
    bool converged = false;
  };
  MapResult RunMaxProduct(const BpOptions& options) const;
  MapResult RunMaxProduct() const;

  /// Exact MAP by exhaustive enumeration (ties break toward the
  /// lexicographically smaller assignment). Same state-space guard as
  /// ExactMarginals.
  std::vector<size_t> ExactMap(size_t max_states = 1u << 20) const;

 private:
  struct Factor {
    std::vector<size_t> variables;
    std::vector<double> table;
  };

  /// What stays fixed between runs of one graph, whatever its evidence:
  /// the message layout and every buffer a run writes. The first run after
  /// the graph's shape last changed builds it; later runs only reset the
  /// messages, so rerunning BP under new evidence allocates nothing. Both
  /// message directions live in flat arrays with one slot per (factor,
  /// position): factor f's slots start at factor_base[f], and slot (f, k)
  /// holds domain(variables[k]) doubles.
  struct Workspace {
    std::vector<size_t> factor_base;  ///< size num_factors() + 1; empty = not built
    /// Per variable v, the offsets of the slots that feed it, in
    /// factors_of_variable_ order: incoming[incoming_begin[v] ..
    /// incoming_begin[v + 1]), each {factor, offset}.
    std::vector<size_t> incoming_begin;
    std::vector<std::pair<size_t, size_t>> incoming;
    std::vector<double> to_factor;
    std::vector<double> to_variable;
    std::vector<size_t> assignment;  ///< widest factor's arity
    std::vector<double> fresh;       ///< widest factor's slot count
  };

  /// The workspace, laid out for the current shape.
  Workspace& PreparedWorkspace() const;

  /// Runs the flooding schedule in the workspace (`max_product` swaps the
  /// factor-side sum for a max); returns the iteration count and
  /// convergence with no marginals.
  BpResult RunMessagePassing(const BpOptions& options, bool max_product) const;

  /// Belief of `variable` after the last run: the product of its incoming
  /// messages, or the evidence indicator.
  void Belief(size_t variable, std::vector<double>& belief) const;

  double TableValue(const Factor& f, const std::vector<size_t>& assignment) const;

  std::vector<size_t> domains_;
  std::vector<int64_t> evidence_;  ///< -1 = free
  std::vector<Factor> factors_;
  std::vector<std::vector<size_t>> factors_of_variable_;
  mutable Workspace workspace_;
};

}  // namespace ppdp::genomics

#endif  // PPDP_GENOMICS_FACTOR_GRAPH_H_
