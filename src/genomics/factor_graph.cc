#include "genomics/factor_graph.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/math_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdp::genomics {

size_t FactorGraph::AddVariable(size_t domain_size) {
  PPDP_CHECK(domain_size >= 2) << "variable needs at least two states";
  domains_.push_back(domain_size);
  evidence_.push_back(-1);
  workspace_.factor_base.clear();
  factors_of_variable_.emplace_back();
  return domains_.size() - 1;
}

size_t FactorGraph::AddFactor(std::vector<size_t> variables, std::vector<double> table) {
  PPDP_CHECK(!variables.empty()) << "factor needs at least one variable";
  size_t expected = 1;
  for (size_t v : variables) {
    PPDP_CHECK(v < domains_.size()) << "variable " << v << " out of range";
    expected *= domains_[v];
  }
  for (size_t i = 0; i < variables.size(); ++i) {
    for (size_t j = i + 1; j < variables.size(); ++j) {
      PPDP_CHECK(variables[i] != variables[j]) << "factor repeats variable " << variables[i];
    }
  }
  PPDP_CHECK(table.size() == expected)
      << "table has " << table.size() << " entries, expected " << expected;
  for (double v : table) PPDP_CHECK(v >= 0.0) << "negative factor entry " << v;

  size_t id = factors_.size();
  workspace_.factor_base.clear();
  for (size_t v : variables) factors_of_variable_[v].push_back(id);
  factors_.push_back({std::move(variables), std::move(table)});
  return id;
}

void FactorGraph::SetEvidence(size_t variable, size_t value) {
  PPDP_CHECK(variable < domains_.size());
  PPDP_CHECK(value < domains_[variable]) << "evidence value out of domain";
  evidence_[variable] = static_cast<int64_t>(value);
}

void FactorGraph::ClearEvidence(size_t variable) {
  PPDP_CHECK(variable < domains_.size());
  evidence_[variable] = -1;
}

bool FactorGraph::HasEvidence(size_t variable) const {
  PPDP_CHECK(variable < domains_.size());
  return evidence_[variable] >= 0;
}

double FactorGraph::TableValue(const Factor& f, const std::vector<size_t>& assignment) const {
  size_t index = 0;
  for (size_t k = 0; k < f.variables.size(); ++k) {
    index = index * domains_[f.variables[k]] + assignment[k];
  }
  return f.table[index];
}

FactorGraph::BpResult FactorGraph::RunBeliefPropagation() const {
  return RunBeliefPropagation(BpOptions());
}

FactorGraph::MapResult FactorGraph::RunMaxProduct() const { return RunMaxProduct(BpOptions()); }

FactorGraph::BpResult FactorGraph::RunBeliefPropagation(const BpOptions& options) const {
  BpResult result = RunMessagePassing(options, /*max_product=*/false);
  result.marginals.resize(domains_.size());
  for (size_t v = 0; v < domains_.size(); ++v) Belief(v, result.marginals[v]);
  return result;
}

FactorGraph::BpResult FactorGraph::RunBeliefPropagation(
    const BpOptions& options, const std::vector<size_t>& variables) const {
  for (size_t v : variables) PPDP_CHECK(v < domains_.size()) << "variable " << v << " out of range";
  BpResult result = RunMessagePassing(options, /*max_product=*/false);
  result.marginals.resize(variables.size());
  for (size_t i = 0; i < variables.size(); ++i) Belief(variables[i], result.marginals[i]);
  return result;
}

FactorGraph::MapResult FactorGraph::RunMaxProduct(const BpOptions& options) const {
  BpResult pass = RunMessagePassing(options, /*max_product=*/true);
  MapResult result;
  result.iterations = pass.iterations;
  result.converged = pass.converged;
  result.assignment.resize(domains_.size());
  std::vector<double> belief;
  for (size_t v = 0; v < domains_.size(); ++v) {
    Belief(v, belief);
    size_t best = 0;
    for (size_t x = 1; x < belief.size(); ++x) {
      if (belief[x] > belief[best]) best = x;
    }
    result.assignment[v] = best;
  }
  return result;
}

FactorGraph::Workspace& FactorGraph::PreparedWorkspace() const {
  Workspace& ws = workspace_;
  if (!ws.factor_base.empty()) return ws;
  // Lay out one slot per (factor, position); factor_base[f] is factor f's
  // first slot offset, the same in both message arrays. Scratch sizes come
  // from the widest factor.
  ws.factor_base.assign(factors_.size() + 1, 0);
  size_t max_arity = 0;
  size_t max_slots = 0;
  for (size_t f = 0; f < factors_.size(); ++f) {
    size_t slots = 0;
    for (size_t v : factors_[f].variables) slots += domains_[v];
    ws.factor_base[f + 1] = ws.factor_base[f] + slots;
    max_arity = std::max(max_arity, factors_[f].variables.size());
    max_slots = std::max(max_slots, slots);
  }
  ws.to_factor.resize(ws.factor_base.back());
  ws.to_variable.resize(ws.factor_base.back());
  ws.assignment.resize(max_arity);
  ws.fresh.resize(max_slots);
  // Each variable's incoming slots, in factors_of_variable_ order (the
  // order every product over them multiplies in).
  ws.incoming_begin.assign(domains_.size() + 1, 0);
  for (size_t v = 0; v < domains_.size(); ++v) {
    ws.incoming_begin[v + 1] = ws.incoming_begin[v] + factors_of_variable_[v].size();
  }
  ws.incoming.resize(ws.incoming_begin.back());
  for (size_t v = 0; v < domains_.size(); ++v) {
    size_t next = ws.incoming_begin[v];
    for (size_t f : factors_of_variable_[v]) {
      size_t offset = ws.factor_base[f];
      for (size_t u : factors_[f].variables) {
        if (u == v) break;
        offset += domains_[u];
      }
      ws.incoming[next++] = {f, offset};
    }
  }
  return ws;
}

FactorGraph::BpResult FactorGraph::RunMessagePassing(const BpOptions& options,
                                                     bool max_product) const {
  obs::TraceSpan span(max_product ? "genomics.bp.max_product" : "genomics.bp.sum_product");
  static obs::Counter& runs = obs::MetricsRegistry::Global().counter("genomics.bp.runs");
  static obs::Counter& iteration_count =
      obs::MetricsRegistry::Global().counter("genomics.bp.iterations");
  static obs::Histogram& iteration_seconds =
      obs::MetricsRegistry::Global().histogram("genomics.bp.iteration_seconds");
  runs.Increment();

  Workspace& ws = PreparedWorkspace();
  const std::vector<size_t>& factor_base = ws.factor_base;
  const std::vector<size_t>& incoming_begin = ws.incoming_begin;
  const std::vector<std::pair<size_t, size_t>>& incoming = ws.incoming;
  std::vector<double>& to_factor = ws.to_factor;
  std::vector<double>& to_variable = ws.to_variable;
  std::vector<size_t>& assignment = ws.assignment;
  std::vector<double>& fresh = ws.fresh;
  // Uniform start; evidence variables send their indicator from the
  // first sweep on, so it is written once here.
  for (size_t f = 0; f < factors_.size(); ++f) {
    size_t offset = factor_base[f];
    for (size_t v : factors_[f].variables) {
      double uniform = 1.0 / static_cast<double>(domains_[v]);
      std::fill_n(to_variable.begin() + offset, domains_[v], uniform);
      if (evidence_[v] >= 0) {
        std::fill_n(to_factor.begin() + offset, domains_[v], 0.0);
        to_factor[offset + static_cast<size_t>(evidence_[v])] = 1.0;
      } else {
        std::fill_n(to_factor.begin() + offset, domains_[v], uniform);
      }
      offset += domains_[v];
    }
  }

  BpResult result;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    double iteration_start = obs::MonotonicSeconds();
    // Variable -> factor: reads only the previous sweep's to_variable.
    for (size_t f = 0; f < factors_.size(); ++f) {
      size_t offset = factor_base[f];
      for (size_t v : factors_[f].variables) {
        const size_t d = domains_[v];
        if (evidence_[v] < 0) {
          std::span<double> msg(to_factor.data() + offset, d);
          std::fill(msg.begin(), msg.end(), 1.0);
          for (size_t i = incoming_begin[v]; i < incoming_begin[v + 1]; ++i) {
            if (incoming[i].first == f) continue;
            const double* in = to_variable.data() + incoming[i].second;
            for (size_t x = 0; x < d; ++x) msg[x] *= in[x];
          }
          NormalizeInPlace(msg);
        }
        offset += d;
      }
    }

    // Factor -> variable: one sweep over each joint table (row-major, so
    // entry i is the table value of the i-th mixed-radix assignment)
    // accumulates every outgoing message into `fresh`.
    double max_change = 0.0;
    auto accumulate = [max_product](double& out, double partial) {
      out = max_product ? std::max(out, partial) : out + partial;
    };
    for (size_t f = 0; f < factors_.size(); ++f) {
      const auto& vars = factors_[f].variables;
      const auto& table = factors_[f].table;
      const size_t base = factor_base[f];
      const size_t slots = factor_base[f + 1] - base;
      const double* in = to_factor.data() + base;
      std::fill_n(fresh.begin(), slots, 0.0);
      if (vars.size() == 2) {
        // Pairwise factors (all chapter-5 attack factors but the priors):
        // the general sweep below unrolled, with the same products.
        const size_t d0 = domains_[vars[0]];
        const size_t d1 = domains_[vars[1]];
        const double* value = table.data();
        for (size_t a = 0; a < d0; ++a) {
          for (size_t b = 0; b < d1; ++b, ++value) {
            if (*value > 0.0) {
              accumulate(fresh[a], *value * in[d0 + b]);
              accumulate(fresh[d0 + b], *value * in[a]);
            }
          }
        }
      } else {
        std::fill_n(assignment.begin(), vars.size(), 0);
        for (double value : table) {
          if (value > 0.0) {
            // Each position's outgoing entry is the table value times every
            // other position's incoming message.
            size_t offset_k = 0;
            for (size_t k = 0; k < vars.size(); ++k) {
              double partial = value;
              size_t offset_k2 = 0;
              for (size_t k2 = 0; k2 < vars.size(); ++k2) {
                if (k2 != k) partial *= in[offset_k2 + assignment[k2]];
                offset_k2 += domains_[vars[k2]];
              }
              accumulate(fresh[offset_k + assignment[k]], partial);
              offset_k += domains_[vars[k]];
            }
          }
          // Mixed-radix increment, last variable fastest.
          for (size_t pos = vars.size(); pos > 0; --pos) {
            if (++assignment[pos - 1] < domains_[vars[pos - 1]]) break;
            assignment[pos - 1] = 0;
          }
        }
      }
      double change = 0.0;
      size_t offset = 0;
      for (size_t v : vars) {
        const size_t d = domains_[v];
        std::span<double> next(fresh.data() + offset, d);
        double* old = to_variable.data() + base + offset;
        NormalizeInPlace(next);
        if (options.damping > 0.0) {
          for (size_t x = 0; x < d; ++x) {
            next[x] = (1.0 - options.damping) * next[x] + options.damping * old[x];
          }
          NormalizeInPlace(next);
        }
        double distance = 0.0;
        for (size_t x = 0; x < d; ++x) distance += std::fabs(next[x] - old[x]);
        change = std::max(change, distance);
        std::copy(next.begin(), next.end(), old);
        offset += d;
      }
      max_change = std::max(max_change, change);
    }

    result.iterations = iter + 1;
    iteration_count.Increment();
    iteration_seconds.Observe(obs::MonotonicSeconds() - iteration_start);
    if (max_change < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  PPDP_LOG(DEBUG) << "BP finished" << obs::Field("iterations", result.iterations)
                  << obs::Field("converged", result.converged)
                  << obs::Field("variables", domains_.size())
                  << obs::Field("factors", factors_.size())
                  << obs::Field("seconds", span.ElapsedSeconds());
  return result;
}

void FactorGraph::Belief(size_t variable, std::vector<double>& belief) const {
  const size_t d = domains_[variable];
  if (evidence_[variable] >= 0) {
    belief.assign(d, 0.0);
    belief[static_cast<size_t>(evidence_[variable])] = 1.0;
    return;
  }
  const Workspace& ws = workspace_;
  belief.assign(d, 1.0);
  for (size_t i = ws.incoming_begin[variable]; i < ws.incoming_begin[variable + 1]; ++i) {
    const double* in = ws.to_variable.data() + ws.incoming[i].second;
    for (size_t x = 0; x < d; ++x) belief[x] *= in[x];
  }
  NormalizeInPlace(belief);
}

std::vector<size_t> FactorGraph::ExactMap(size_t max_states) const {
  size_t states = 1;
  for (size_t d : domains_) {
    PPDP_CHECK(states <= max_states / d) << "joint space too large for exact MAP";
    states *= d;
  }
  std::vector<size_t> assignment(domains_.size(), 0);
  std::vector<size_t> best_assignment(domains_.size(), 0);
  double best_weight = -1.0;
  std::vector<size_t> local;
  for (size_t state = 0; state < states; ++state) {
    bool consistent = true;
    for (size_t v = 0; v < domains_.size() && consistent; ++v) {
      if (evidence_[v] >= 0 && assignment[v] != static_cast<size_t>(evidence_[v])) {
        consistent = false;
      }
    }
    if (consistent) {
      double weight = 1.0;
      for (const Factor& f : factors_) {
        local.clear();
        for (size_t v : f.variables) local.push_back(assignment[v]);
        weight *= TableValue(f, local);
        if (weight == 0.0) break;
      }
      if (weight > best_weight) {
        best_weight = weight;
        best_assignment = assignment;
      }
    }
    for (size_t v = domains_.size(); v > 0; --v) {
      if (++assignment[v - 1] < domains_[v - 1]) break;
      assignment[v - 1] = 0;
    }
  }
  PPDP_CHECK(best_weight > 0.0) << "all joint states have zero probability";
  return best_assignment;
}

std::vector<std::vector<double>> FactorGraph::ExactMarginals(size_t max_states) const {
  size_t states = 1;
  for (size_t d : domains_) {
    PPDP_CHECK(states <= max_states / d) << "joint space too large for exact enumeration";
    states *= d;
  }
  std::vector<std::vector<double>> marginals(domains_.size());
  for (size_t v = 0; v < domains_.size(); ++v) marginals[v].assign(domains_[v], 0.0);

  std::vector<size_t> assignment(domains_.size(), 0);
  double total = 0.0;
  for (size_t state = 0; state < states; ++state) {
    bool consistent = true;
    for (size_t v = 0; v < domains_.size() && consistent; ++v) {
      if (evidence_[v] >= 0 && assignment[v] != static_cast<size_t>(evidence_[v])) {
        consistent = false;
      }
    }
    if (consistent) {
      double weight = 1.0;
      std::vector<size_t> local;
      for (const Factor& f : factors_) {
        local.clear();
        for (size_t v : f.variables) local.push_back(assignment[v]);
        weight *= TableValue(f, local);
        if (weight == 0.0) break;
      }
      if (weight > 0.0) {
        total += weight;
        for (size_t v = 0; v < domains_.size(); ++v) marginals[v][assignment[v]] += weight;
      }
    }
    // Mixed-radix increment.
    for (size_t v = domains_.size(); v > 0; --v) {
      if (++assignment[v - 1] < domains_[v - 1]) break;
      assignment[v - 1] = 0;
    }
  }
  PPDP_CHECK(total > 0.0) << "all joint states have zero probability";
  for (auto& m : marginals) {
    for (double& p : m) p /= total;
  }
  return marginals;
}

}  // namespace ppdp::genomics
