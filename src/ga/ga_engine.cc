/**
 * @file
 * GA engine implementation. The complete-run entry points
 * (GaEngine::run and friends) are thin loops over GaStepper/GaDriver
 * — the resumable machinery the search service interleaves across
 * jobs — so batch-era and service-era execution share one code path
 * and bit-identity between them holds by construction.
 */

#include "ga/ga_engine.h"

#include <algorithm>
#include <numeric>

#include "ga/batch_evaluator.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/stats.h"

namespace emstress {
namespace ga {

void
validateGaConfig(const GaConfig &config)
{
    requireConfig(config.population >= 2,
                  "population must hold at least two individuals");
    requireConfig(config.generations >= 1, "need at least a generation");
    requireConfig(config.kernel_length >= 1,
                  "kernels need at least one instruction");
    requireConfig(config.mutation_rate >= 0.0
                      && config.mutation_rate <= 1.0,
                  "mutation rate outside [0,1]");
    requireConfig(config.operand_mutation_ratio >= 0.0
                      && config.operand_mutation_ratio <= 1.0,
                  "operand mutation ratio outside [0,1]");
    requireConfig(config.tournament_k >= 1
                      && config.tournament_k <= config.population,
                  "tournament size outside [1, population]");
    requireConfig(config.elite < config.population,
                  "elite count must be below the population size");
}

GaEngine::GaEngine(const isa::InstructionPool &pool,
                   const GaConfig &config)
    : pool_(pool), config_(config)
{
    validateGaConfig(config_);
}

std::size_t
GaEngine::tournamentSelect(const std::vector<double> &fitness,
                           std::size_t k, Rng &rng)
{
    requireSim(!fitness.empty(), "tournament over empty population");
    std::size_t best = rng.index(fitness.size());
    for (std::size_t i = 1; i < k; ++i) {
        const std::size_t challenger = rng.index(fitness.size());
        if (fitness[challenger] > fitness[best])
            best = challenger;
    }
    return best;
}

isa::Kernel
GaEngine::crossover(const isa::Kernel &a, const isa::Kernel &b,
                    Rng &rng)
{
    requireSim(a.size() == b.size() && !a.empty(),
               "crossover requires equal-length non-empty kernels");
    // Degenerate single-gene kernel: no interior cut point exists, so
    // "both parents contribute" means each parent is drawn with equal
    // probability (always copying `a` would bias the population).
    if (a.size() == 1)
        return rng.index(2) == 0 ? a : b;
    // Cut point in [1, len-1] so both parents contribute.
    const std::size_t cut = 1 + rng.index(a.size() - 1);
    std::vector<isa::Instruction> code;
    code.reserve(a.size());
    for (std::size_t i = 0; i < cut && i < a.size(); ++i)
        code.push_back(a[i]);
    for (std::size_t i = cut; i < b.size(); ++i)
        code.push_back(b[i]);
    return isa::Kernel(std::move(code));
}

void
GaEngine::mutate(isa::Kernel &kernel, const isa::InstructionPool &pool,
                 double rate, double operand_ratio, Rng &rng)
{
    for (std::size_t i = 0; i < kernel.size(); ++i) {
        if (!rng.chance(rate))
            continue;
        if (rng.chance(operand_ratio)) {
            pool.randomizeOperands(kernel[i], rng);
        } else {
            kernel[i] = pool.randomInstruction(rng);
        }
    }
}

// ---------------------------------------------------------------------------
// GaStepper
// ---------------------------------------------------------------------------

GaStepper::GaStepper(const isa::InstructionPool &pool,
                     const GaConfig &config,
                     FitnessEvaluator &evaluator,
                     std::vector<isa::Kernel> seed_population,
                     BatchHooks hooks)
    : pool_(pool), config_(config), rng_(config.seed)
{
    validateGaConfig(config_);

    // Initial population: seeds first, random fill.
    population_ = std::move(seed_population);
    if (population_.size() > config_.population)
        population_.resize(config_.population);
    for (auto &k : population_) {
        requireConfig(k.size() == config_.kernel_length,
                      "seed individual length differs from "
                      "kernel_length");
        k.validate(pool_);
    }
    while (population_.size() < config_.population) {
        population_.push_back(
            isa::Kernel::random(pool_, config_.kernel_length, rng_));
    }

    result_.best_fitness = kFailedFitness;

    BatchConfig batch_cfg;
    batch_cfg.threads = config_.threads;
    batch_cfg.memoize = config_.memoize;
    batch_cfg.retry = config_.retry;
    batch_cfg.fleet = hooks.fleet;
    batch_cfg.cancel = std::move(hooks.cancel);
    batch_ = std::make_unique<BatchEvaluator>(evaluator, batch_cfg);

    fitness_.assign(config_.population, 0.0);
    details_.assign(config_.population, EvalDetail{});
    // Individuals whose fitness is already known because they were
    // carried over unchanged (elites): measuring them again would
    // only repeat the identical measurement and double-charge its
    // lab time.
    known_.assign(config_.population, 0);
}

GaStepper::~GaStepper() = default;

bool
GaStepper::cancelled() const
{
    return batch_->cancelled();
}

bool
GaStepper::done() const
{
    return cancelled() || gen_ >= config_.generations;
}

const GenerationRecord *
GaStepper::step()
{
    if (done())
        return nullptr;

    // Observability only: the span and the summary gauges below
    // read the population, never write it, so results are
    // bit-identical with metrics on or off.
    metrics::ScopedPhase gen_span("ga.generation");
    // Measure the individuals we have not measured (Sec 3.1(b)).
    std::vector<std::size_t> todo;
    todo.reserve(population_.size());
    for (std::size_t i = 0; i < population_.size(); ++i) {
        if (known_[i])
            ++result_.eval_stats.elites_reused;
        else
            todo.push_back(i);
    }
    const auto outcome =
        batch_->evaluate(population_, todo, fitness_, details_);
    result_.estimated_lab_seconds += outcome.lab_seconds;
    // A generation whose batch was cancelled is never recorded: its
    // skipped slots hold no meaningful fitness, and the job's result
    // is moot anyway. The partial lab time above stays charged — the
    // executed measurements did run.
    if (outcome.cancelled > 0 || cancelled())
        return nullptr;

    // Record the generation.
    std::size_t best_i = 0;
    double mean = 0.0;
    for (std::size_t i = 0; i < fitness_.size(); ++i) {
        mean += fitness_[i];
        if (fitness_[i] > fitness_[best_i])
            best_i = i;
    }
    mean /= static_cast<double>(fitness_.size());

    if (metrics::enabled()) {
        // Per-generation fitness summary: one sort, many
        // percentile queries (stats::percentileSorted).
        std::vector<double> sorted_fitness(fitness_);
        std::sort(sorted_fitness.begin(), sorted_fitness.end());
        auto &reg = metrics::Registry::instance();
        reg.setGauge("ga.fitness.p05",
                     stats::percentileSorted(sorted_fitness, 5.0));
        reg.setGauge("ga.fitness.p50",
                     stats::percentileSorted(sorted_fitness, 50.0));
        reg.setGauge("ga.fitness.p95",
                     stats::percentileSorted(sorted_fitness, 95.0));
        reg.add("ga.individuals_evaluated", todo.size());
    }

    GenerationRecord rec;
    rec.generation = gen_;
    rec.best_fitness = fitness_[best_i];
    rec.mean_fitness = mean;
    rec.best_detail = details_[best_i];
    rec.best = population_[best_i];
    result_.history.push_back(std::move(rec));

    if (fitness_[best_i] > result_.best_fitness) {
        result_.best_fitness = fitness_[best_i];
        result_.best = population_[best_i];
        result_.best_detail = details_[best_i];
    }

    if (++gen_ >= config_.generations)
        return &result_.history.back();

    // Breed the next generation (Section 3.1(c)).
    std::vector<isa::Kernel> next;
    next.reserve(config_.population);
    std::vector<double> next_fitness(config_.population);
    std::vector<EvalDetail> next_details(config_.population);
    std::vector<char> next_known(config_.population, 0);

    // Elitism: carry the fittest individuals unchanged — along
    // with their already-measured fitness and detail. Equal fitness
    // (e.g. several failed-evaluation sentinels) keeps index order,
    // so the elites do not depend on the library's sort.
    std::vector<std::size_t> order(population_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  return fitness_[a] != fitness_[b]
                      ? fitness_[a] > fitness_[b]
                      : a < b;
              });
    for (std::size_t e = 0; e < config_.elite; ++e) {
        const std::size_t src = order[e];
        next_fitness[next.size()] = fitness_[src];
        next_details[next.size()] = details_[src];
        next_known[next.size()] = 1;
        next.push_back(population_[src]);
    }

    while (next.size() < config_.population) {
        const std::size_t pa = GaEngine::tournamentSelect(
            fitness_, config_.tournament_k, rng_);
        const std::size_t pb = GaEngine::tournamentSelect(
            fitness_, config_.tournament_k, rng_);
        isa::Kernel child = GaEngine::crossover(population_[pa],
                                                population_[pb], rng_);
        GaEngine::mutate(child, pool_, config_.mutation_rate,
                         config_.operand_mutation_ratio, rng_);
        next.push_back(std::move(child));
    }
    population_ = std::move(next);
    fitness_ = std::move(next_fitness);
    details_ = std::move(next_details);
    known_ = std::move(next_known);
    return &result_.history.back();
}

GaResult
GaStepper::finish()
{
    requireSim(!finished_, "GaStepper::finish called twice");
    finished_ = true;
    // Adopt the batch evaluator's counters wholesale (a field-by-field
    // copy here once silently dropped samples_materialized); only
    // elites_reused accrues in the stepping loop rather than in the
    // batch.
    const std::size_t elites = result_.eval_stats.elites_reused;
    result_.eval_stats = batch_->stats();
    result_.eval_stats.elites_reused = elites;
    return std::move(result_);
}

// ---------------------------------------------------------------------------
// GaDriver
// ---------------------------------------------------------------------------

GaDriver::GaDriver(const isa::InstructionPool &pool,
                   const GaConfig &config, FitnessEvaluator &evaluator,
                   std::vector<isa::Kernel> seed_population,
                   BatchHooks hooks, Mode mode)
    : pool_(pool), config_(config), evaluator_(evaluator),
      hooks_(std::move(hooks))
{
    validateGaConfig(config_);
    switch (mode) {
    case Mode::kAuto:
        // GaEngine::run's dispatch rule, verbatim.
        multi_ = config_.restarts > 1 && seed_population.empty();
        break;
    case Mode::kSingle:
        multi_ = false;
        break;
    case Mode::kMultiStart:
        requireConfig(seed_population.empty(),
                      "multi-start drives its own seeding; an external "
                      "seed population is only valid in single mode");
        multi_ = true;
        break;
    }

    if (!multi_) {
        in_final_ = true; // every record is reportable
        total_steps_ = config_.generations;
        stepper_ = std::make_unique<GaStepper>(
            pool_, config_, evaluator_, std::move(seed_population),
            hooks_);
        return;
    }

    requireConfig(config_.restarts >= 1,
                  "multi-start needs at least one restart");
    // Phase 1 template: independent half-length scout searches.
    scout_cfg_ = config_;
    scout_cfg_.generations =
        std::max<std::size_t>(1, config_.generations / 2);
    scout_cfg_.restarts = 1;
    // Phase 2: one combined search seeded with every champion.
    final_cfg_ = config_;
    final_cfg_.generations = std::max<std::size_t>(
        1, config_.generations - scout_cfg_.generations);
    final_cfg_.restarts = 1;
    total_steps_ = config_.restarts * scout_cfg_.generations
        + final_cfg_.generations;
    best_scout_.best_fitness = kFailedFitness;

    GaConfig first_scout = scout_cfg_;
    first_scout.seed = config_.seed + 7919;
    stepper_ = std::make_unique<GaStepper>(pool_, first_scout,
                                           evaluator_,
                                           std::vector<isa::Kernel>{},
                                           hooks_);
}

GaDriver::~GaDriver() = default;

bool
GaDriver::cancelled() const
{
    return hooks_.cancel
        && hooks_.cancel->load(std::memory_order_relaxed);
}

bool
GaDriver::done() const
{
    return cancelled() || (in_final_ && stepper_->done());
}

void
GaDriver::advanceScout()
{
    GaResult scout = stepper_->finish();
    scout_lab_seconds_ += scout.estimated_lab_seconds;
    scout_stats_ += scout.eval_stats;
    champions_.push_back(scout.best);
    if (scout.best_fitness > best_scout_.best_fitness)
        best_scout_ = std::move(scout);

    if (++scout_index_ < config_.restarts) {
        GaConfig cfg = scout_cfg_;
        cfg.seed = config_.seed + 7919 * (scout_index_ + 1);
        stepper_ = std::make_unique<GaStepper>(
            pool_, cfg, evaluator_, std::vector<isa::Kernel>{},
            hooks_);
        return;
    }
    in_final_ = true;
    stepper_ = std::make_unique<GaStepper>(pool_, final_cfg_,
                                           evaluator_,
                                           std::move(champions_),
                                           hooks_);
}

const GenerationRecord *
GaDriver::step()
{
    if (done())
        return nullptr;
    const GenerationRecord *rec = stepper_->step();
    if (stepper_->cancelled())
        return nullptr;
    ++steps_done_;
    if (!in_final_) {
        // Scout generations are internal: GaEngine::run never
        // reported them, and the record numbering only becomes final
        // at finish() when histories are stitched.
        if (stepper_->done())
            advanceScout();
        return nullptr;
    }
    return rec;
}

GaResult
GaDriver::finish()
{
    requireSim(!finished_, "GaDriver::finish called twice");
    finished_ = true;
    GaResult result = stepper_->finish();
    if (!multi_)
        return result;

    // Fold the scout phase in. On a run cancelled mid-scouts this
    // yields a partial, diagnostic result (the job is moot); on a
    // completed run it reproduces GaEngine's multi-start merge
    // exactly.
    result.estimated_lab_seconds += scout_lab_seconds_;
    result.eval_stats += scout_stats_;

    // Keep the scout history in front so convergence plots cover the
    // whole effort; re-number the final phase's generations.
    std::vector<GenerationRecord> history =
        std::move(best_scout_.history);
    for (auto &rec : result.history) {
        rec.generation += scout_cfg_.generations;
        history.push_back(std::move(rec));
    }
    result.history = std::move(history);
    if (best_scout_.best_fitness > result.best_fitness) {
        result.best_fitness = best_scout_.best_fitness;
        result.best = best_scout_.best;
        result.best_detail = best_scout_.best_detail;
    }
    return result;
}

// ---------------------------------------------------------------------------
// GaEngine — complete-run loops over the driver
// ---------------------------------------------------------------------------

namespace {

GaResult
driveToCompletion(GaDriver &driver, const GenerationCallback &callback)
{
    while (!driver.done()) {
        const GenerationRecord *rec = driver.step();
        if (rec != nullptr && callback)
            callback(*rec);
    }
    return driver.finish();
}

} // namespace

GaResult
GaEngine::run(FitnessEvaluator &evaluator,
              const GenerationCallback &callback,
              std::vector<isa::Kernel> seed_population)
{
    GaDriver driver(pool_, config_, evaluator,
                    std::move(seed_population));
    return driveToCompletion(driver, callback);
}

GaResult
GaEngine::runSingle(FitnessEvaluator &evaluator,
                    const GenerationCallback &callback,
                    std::vector<isa::Kernel> seed_population)
{
    GaDriver driver(pool_, config_, evaluator,
                    std::move(seed_population), BatchHooks{},
                    GaDriver::Mode::kSingle);
    return driveToCompletion(driver, callback);
}

GaResult
GaEngine::runMultiStart(FitnessEvaluator &evaluator,
                        const GenerationCallback &callback)
{
    GaDriver driver(pool_, config_, evaluator, {}, BatchHooks{},
                    GaDriver::Mode::kMultiStart);
    return driveToCompletion(driver, callback);
}

} // namespace ga
} // namespace emstress
