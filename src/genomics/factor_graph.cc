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
  Messages messages = RunMessagePassing(options, /*max_product=*/false);
  BpResult result;
  result.iterations = messages.iterations;
  result.converged = messages.converged;
  result.marginals = Beliefs(messages);
  return result;
}

FactorGraph::MapResult FactorGraph::RunMaxProduct(const BpOptions& options) const {
  Messages messages = RunMessagePassing(options, /*max_product=*/true);
  MapResult result;
  result.iterations = messages.iterations;
  result.converged = messages.converged;
  std::vector<std::vector<double>> beliefs = Beliefs(messages);
  result.assignment.resize(domains_.size());
  for (size_t v = 0; v < domains_.size(); ++v) {
    size_t best = 0;
    for (size_t x = 1; x < beliefs[v].size(); ++x) {
      if (beliefs[v][x] > beliefs[v][best]) best = x;
    }
    result.assignment[v] = best;
  }
  return result;
}

FactorGraph::Messages FactorGraph::RunMessagePassing(const BpOptions& options,
                                                     bool max_product) const {
  obs::TraceSpan span(max_product ? "genomics.bp.max_product" : "genomics.bp.sum_product");
  static obs::Counter& runs = obs::MetricsRegistry::Global().counter("genomics.bp.runs");
  static obs::Counter& iteration_count =
      obs::MetricsRegistry::Global().counter("genomics.bp.iterations");
  static obs::Histogram& iteration_seconds =
      obs::MetricsRegistry::Global().histogram("genomics.bp.iteration_seconds");
  runs.Increment();

  // Lay out one slot per (factor, position); factor_base[f] is factor f's
  // first slot offset, the same in both message arrays. Scratch sizes come
  // from the widest factor.
  std::vector<size_t> factor_base(factors_.size() + 1, 0);
  size_t max_arity = 0;
  size_t max_slots = 0;
  for (size_t f = 0; f < factors_.size(); ++f) {
    size_t slots = 0;
    for (size_t v : factors_[f].variables) slots += domains_[v];
    factor_base[f + 1] = factor_base[f] + slots;
    max_arity = std::max(max_arity, factors_[f].variables.size());
    max_slots = std::max(max_slots, slots);
  }
  Messages messages;
  auto& to_factor = messages.to_factor;
  auto& to_variable = messages.to_variable;
  to_factor.resize(factor_base.back());
  to_variable.resize(factor_base.back());
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
  // Each variable's incoming slots, in factors_of_variable_ order (the
  // order every product over them multiplies in).
  auto& incoming_begin = messages.incoming_begin;
  auto& incoming = messages.incoming;
  incoming_begin.assign(domains_.size() + 1, 0);
  for (size_t v = 0; v < domains_.size(); ++v) {
    incoming_begin[v + 1] = incoming_begin[v] + factors_of_variable_[v].size();
  }
  incoming.resize(incoming_begin.back());
  for (size_t v = 0; v < domains_.size(); ++v) {
    size_t next = incoming_begin[v];
    for (size_t f : factors_of_variable_[v]) {
      size_t offset = factor_base[f];
      for (size_t u : factors_[f].variables) {
        if (u == v) break;
        offset += domains_[u];
      }
      incoming[next++] = {f, offset};
    }
  }

  std::vector<size_t> assignment(max_arity);
  std::vector<double> fresh(max_slots);
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
    for (size_t f = 0; f < factors_.size(); ++f) {
      const auto& vars = factors_[f].variables;
      const auto& table = factors_[f].table;
      const size_t base = factor_base[f];
      const size_t slots = factor_base[f + 1] - base;
      const double* in = to_factor.data() + base;
      std::fill_n(assignment.begin(), vars.size(), 0);
      std::fill_n(fresh.begin(), slots, 0.0);
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
            double& out = fresh[offset_k + assignment[k]];
            out = max_product ? std::max(out, partial) : out + partial;
            offset_k += domains_[vars[k]];
          }
        }
        // Mixed-radix increment, last variable fastest.
        for (size_t pos = vars.size(); pos > 0; --pos) {
          if (++assignment[pos - 1] < domains_[vars[pos - 1]]) break;
          assignment[pos - 1] = 0;
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

    messages.iterations = iter + 1;
    iteration_count.Increment();
    iteration_seconds.Observe(obs::MonotonicSeconds() - iteration_start);
    if (max_change < options.tolerance) {
      messages.converged = true;
      break;
    }
  }
  PPDP_LOG(DEBUG) << "BP finished" << obs::Field("iterations", messages.iterations)
                  << obs::Field("converged", messages.converged)
                  << obs::Field("variables", domains_.size())
                  << obs::Field("factors", factors_.size())
                  << obs::Field("seconds", span.ElapsedSeconds());
  return messages;
}

std::vector<std::vector<double>> FactorGraph::Beliefs(const Messages& messages) const {
  // Beliefs: product of incoming factor messages (and evidence).
  std::vector<std::vector<double>> beliefs(domains_.size());
  for (size_t v = 0; v < domains_.size(); ++v) {
    std::vector<double>& belief = beliefs[v];
    if (evidence_[v] >= 0) {
      belief.assign(domains_[v], 0.0);
      belief[static_cast<size_t>(evidence_[v])] = 1.0;
      continue;
    }
    belief.assign(domains_[v], 1.0);
    for (size_t i = messages.incoming_begin[v]; i < messages.incoming_begin[v + 1]; ++i) {
      const double* in = messages.to_variable.data() + messages.incoming[i].second;
      for (size_t x = 0; x < domains_[v]; ++x) belief[x] *= in[x];
    }
    NormalizeInPlace(belief);
  }
  return beliefs;
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
