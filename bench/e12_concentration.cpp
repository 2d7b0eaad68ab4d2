// E12 — The Lemma 2.11 concentration inequality and the Theorem A.2
// Markov-chain Chernoff bound, validated empirically.
//
// (a) Synthetic contraction processes satisfying hypotheses (i)–(iii)
//     exactly: the empirical tail P(M(t) >= E M(t) + lambda) must lie
//     below the Lemma 2.11 bound for every lambda.
// (b) A two-state chain: |N_i − π_i t| observed over many runs, compared
//     with the Thm A.2 tail at matching deviations.
//
// Flags: --replicas=20000 --t=300 --threads=0 (0 = all hardware threads)
//
// Both Monte-Carlo batches run under BatchRunner: replica r draws from
// the jump()-offset stream r of the batch seed, so the empirical tails
// are identical at any thread count.  The final line is a
// machine-readable JSON timing summary.

#include <cmath>
#include <iostream>
#include <vector>

#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "markov/concentration.h"
#include "markov/markov_chain.h"
#include "rng/xoshiro.h"
#include "runtime/batch_runner.h"
#include "stats/online_stats.h"

int main(int argc, char** argv) {
  const divpp::io::Args args(argc, argv);
  const std::int64_t replicas = args.get_int("replicas", 20'000);
  const std::int64_t t_steps = args.get_int("t", 300);
  divpp::runtime::BatchRunner runner(
      static_cast<int>(args.get_int("threads", 0)));
  args.reject_unknown();
  double wall_contraction = 0.0;

  std::cout << divpp::io::banner(
      "E12: concentration bounds hold empirically  [Lemma 2.11 / Thm A.2]");

  // (a) Lemma 2.11 on synthetic contraction processes.
  struct Config {
    double alpha;
    double beta;
    double gamma;
  };
  const std::vector<Config> configs = {
      {0.10, 1.0, 1.0}, {0.30, 2.0, 1.0}, {0.05, 1.0, 0.5}};
  divpp::io::Table table({"alpha", "gamma", "lambda", "empirical tail",
                          "Lemma 2.11 bound", "holds"});
  for (const Config& config : configs) {
    const divpp::markov::SyntheticContraction reference(
        config.alpha, config.beta, config.gamma, 0.0);
    const double expectation = reference.expected_value(t_steps);
    const std::vector<double> finals = runner.map(
        replicas, 3000, [&](std::int64_t, divpp::rng::Xoshiro256& gen) {
          divpp::markov::SyntheticContraction process(
              config.alpha, config.beta, config.gamma, 0.0);
          double value = 0.0;
          for (std::int64_t i = 0; i < t_steps; ++i)
            value = process.step(gen);
          return value;
        });
    wall_contraction += runner.last_timing().wall_seconds;
    for (const double lambda : {1.0, 2.0, 3.0}) {
      std::int64_t exceed = 0;
      for (const double v : finals) {
        if (v >= expectation + lambda) ++exceed;
      }
      const double empirical =
          static_cast<double>(exceed) / static_cast<double>(replicas);
      const double bound =
          divpp::markov::chung_lu_tail(reference.hypotheses(), lambda);
      table.begin_row()
          .add_cell(config.alpha, 3)
          .add_cell(config.gamma, 3)
          .add_cell(lambda, 2)
          .add_cell(empirical, 3)
          .add_cell(bound, 3)
          .add_cell(empirical <= bound ? "yes" : "NO");
    }
  }
  std::cout << table.to_text() << "\n";

  // (b) Theorem A.2 on a two-state chain.
  const double a = 0.2;
  const double b = 0.1;
  const divpp::markov::DenseChain chain(2, {1.0 - a, a, b, 1.0 - b});
  const double pi1 = a / (a + b);
  const std::int64_t t_mix = chain.mixing_time();
  const std::int64_t chain_t = 20'000;
  divpp::io::Table chernoff({"delta", "empirical P(|N1 - pi1 t| >= d pi1 t)",
                             "Thm A.2 tail exp(-d^2 pi t / 72 Tmix)",
                             "holds"});
  const std::vector<std::int64_t> hits = runner.map(
      2000, 7000, [&](std::int64_t, divpp::rng::Xoshiro256& gen) {
        return chain.simulate_hits(0, chain_t, gen)[1];
      });
  const double wall_chain = runner.last_timing().wall_seconds;
  for (const double delta : {0.02, 0.04, 0.08}) {
    std::int64_t exceed = 0;
    const double bar = delta * pi1 * static_cast<double>(chain_t);
    for (const std::int64_t h : hits) {
      if (std::abs(static_cast<double>(h) -
                   pi1 * static_cast<double>(chain_t)) >= bar)
        ++exceed;
    }
    const double empirical =
        static_cast<double>(exceed) / static_cast<double>(hits.size());
    const double bound =
        divpp::markov::markov_chernoff_tail(pi1, chain_t, delta, t_mix);
    chernoff.begin_row()
        .add_cell(delta, 3)
        .add_cell(empirical, 3)
        .add_cell(bound, 3)
        .add_cell(empirical <= bound ? "yes" : "(bound > 1: trivial)");
  }
  std::cout << "Two-state chain (a = 0.2, b = 0.1, t = " << chain_t
            << ", Tmix = " << t_mix << "):\n"
            << chernoff.to_text()
            << "\nExpected shape: every empirical tail sits at or below its "
               "bound (the Thm A.2 form is loose — constants 72 — so its "
               "column may be trivially >= 1 for small deltas).\n";

  std::cout << "\n"
            << divpp::io::Json()
                   .set("bench", "e12_concentration")
                   .set("threads", runner.threads())
                   .set("replicas", replicas)
                   .set("wall_seconds_contraction", wall_contraction)
                   .set("wall_seconds_chain", wall_chain)
                   .to_string()
            << "\n";
  return 0;
}
