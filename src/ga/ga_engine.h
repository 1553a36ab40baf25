/**
 * @file
 * Genetic-algorithm framework for dI/dt stress-test generation
 * (paper Section 3). Individuals are instruction kernels; fitness is
 * supplied by a pluggable evaluator (EM amplitude, max droop or
 * peak-to-peak voltage); operators are tournament selection,
 * one-point crossover and instruction/operand mutation, with the
 * empirical settings the paper reports (population 50, ~60
 * generations, 2-4% mutation rate).
 */

#ifndef EMSTRESS_GA_GA_ENGINE_H
#define EMSTRESS_GA_GA_ENGINE_H

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "isa/kernel.h"
#include "isa/pool.h"
#include "util/cancellation.h"
#include "util/faultpoint.h"
#include "util/rng.h"

namespace emstress {

class WorkerFleet; // util/worker_fleet.h

namespace ga {

/**
 * Sentinel fitness of a permanently failed individual (every retry
 * faulted). Finite — so population statistics stay finite — but far
 * below any physical metric, and equal to the engine's best-fitness
 * initializer, so a failed individual can never be selected as the
 * best and loses every tournament against a measured one.
 */
inline constexpr double kFailedFitness = -1e300;

/** GA hyper-parameters. */
struct GaConfig
{
    std::size_t population = 50;    ///< Individuals per generation.
    std::size_t generations = 60;   ///< Generations to run.
    std::size_t kernel_length = 50; ///< Instructions per individual.
    double mutation_rate = 0.03;    ///< Per-instruction probability.
    /// Of the mutations, fraction that only re-randomize operands
    /// (the rest replace the whole instruction).
    double operand_mutation_ratio = 0.5;
    std::size_t tournament_k = 3;   ///< Tournament size.
    std::size_t elite = 2;          ///< Individuals copied unchanged.
    std::uint64_t seed = 1;         ///< Master seed.
    /// Independent restarts. With restarts > 1, the engine runs that
    /// many half-length searches from different seeds, then one final
    /// half-length search whose population is seeded with every
    /// restart's best individuals — escaping harmonic local optima
    /// that single runs settle into (Section 3.1(a) explicitly allows
    /// seeding from previous runs).
    std::size_t restarts = 1;
    /// Worker threads for fitness evaluation: 1 = serial (the
    /// reference path), 0 = auto (EMSTRESS_THREADS environment
    /// variable, else hardware concurrency). Parallel evaluation
    /// requires the evaluator to be cloneable (see
    /// FitnessEvaluator::clone); otherwise the engine falls back to
    /// serial. Results are bit-identical across thread counts for
    /// order-independent evaluators.
    std::size_t threads = 1;
    /// Memoize fitness by instruction-genome hash, so kernels the GA
    /// rediscovers (crossover of identical parents, unmutated
    /// children) are never re-simulated. Lossless for
    /// order-independent evaluators; disable for evaluators whose
    /// result depends on call order or count.
    bool memoize = true;
    /// Retry policy for evaluations that throw FaultError (injected
    /// or real lab-link faults): each faulted attempt is retried with
    /// bounded modeled backoff; an individual whose every attempt
    /// faults receives kFailedFitness instead of aborting the run.
    RetryPolicy retry;
};

/** Detail an evaluator may report alongside the scalar fitness. */
struct EvalDetail
{
    double dominant_freq_hz = 0.0; ///< Strongest spectral component.
    double metric_raw = 0.0;       ///< Instrument-native value
                                   ///< (dBm, volts...).
    double measurement_seconds = 0.0; ///< Lab time this measurement
                                      ///< would have taken (Sec 3.2).
    std::size_t samples_materialized = 0; ///< Waveform samples
                                          ///< buffered for this
                                          ///< evaluation (only the
                                          ///< scope's bounded
                                          ///< capture; 0 for EM).
};

/**
 * Fitness evaluator interface. Higher fitness is better.
 *
 * Evaluators should be *order-independent*: evaluate() of a given
 * kernel returns the same value no matter when or how often it is
 * called (the platform evaluators derive their measurement noise
 * from the kernel's own hash to guarantee this). Order independence
 * is what lets the engine reuse elite fitness across generations,
 * memoize duplicates, and evaluate populations in parallel while
 * staying bit-identical to the serial path.
 */
class FitnessEvaluator
{
  public:
    virtual ~FitnessEvaluator() = default;

    /** Evaluate one kernel; optionally fill detail. */
    virtual double evaluate(const isa::Kernel &kernel,
                            EvalDetail *detail) = 0;

    /**
     * Evaluate one kernel on a specific attempt number. Fault-aware
     * evaluators consult their FaultSchedule at (kernel, attempt) and
     * throw FaultError when an injected fault fires, so retries see
     * fresh schedule draws; the result on a *successful* attempt must
     * not depend on the attempt number (order independence extends to
     * attempt independence). The default ignores the attempt and
     * forwards to the two-argument overload.
     */
    virtual double
    evaluate(const isa::Kernel &kernel, EvalDetail *detail,
             std::uint32_t attempt)
    {
        (void)attempt;
        return evaluate(kernel, detail);
    }

    /** Display name of the optimization metric. */
    virtual std::string metricName() const = 0;

    /**
     * Create an independent replica safe to call concurrently with
     * this instance (e.g. backed by its own cloned Platform). The
     * default returns nullptr, meaning "not cloneable": the batch
     * evaluator then degrades to serial evaluation.
     */
    virtual std::unique_ptr<FitnessEvaluator> clone() const
    {
        return nullptr;
    }
};

/**
 * Counters describing how a GA run's measurements were served —
 * surfaced in GaResult and the figure benches so the effect of elite
 * reuse, memoization and parallelism is visible.
 */
struct EvalStats
{
    std::size_t evals = 0;      ///< Fresh evaluator calls (simulated
                                ///< measurements actually run).
    std::size_t cache_hits = 0; ///< Individuals served from the
                                ///< genome-keyed fitness cache.
    std::size_t elites_reused = 0; ///< Elites carried over with
                                   ///< their known fitness.
    std::size_t threads = 1;    ///< Worker threads used.
    double eval_seconds = 0.0;  ///< Sum of per-evaluation wall time.
    double wall_seconds = 0.0;  ///< Elapsed wall time evaluating.
    std::size_t samples_materialized = 0; ///< Waveform samples
                                          ///< buffered across fresh
                                          ///< evaluations.
    std::size_t faults_injected = 0; ///< FaultErrors hit during
                                     ///< evaluation attempts.
    std::size_t retries = 0;         ///< Attempts re-issued after a
                                     ///< fault.
    std::size_t permanent_failures = 0; ///< Individuals whose every
                                        ///< attempt faulted (scored
                                        ///< kFailedFitness).
    double fault_backoff_seconds = 0.0; ///< Modeled lab wait time
                                        ///< spent backing off before
                                        ///< retries.
    std::size_t tasks_cancelled = 0; ///< Fresh evaluations skipped by
                                     ///< job cancellation — drained,
                                     ///< never scored, cached, or
                                     ///< counted as faults/failures.

    /** Parallel speedup: total evaluation work / elapsed time. */
    double
    speedup() const
    {
        return wall_seconds > 0.0 ? eval_seconds / wall_seconds : 1.0;
    }

    /** Accumulate another run's counters (multi-start merging). */
    EvalStats &
    operator+=(const EvalStats &other)
    {
        evals += other.evals;
        cache_hits += other.cache_hits;
        elites_reused += other.elites_reused;
        threads = std::max(threads, other.threads);
        eval_seconds += other.eval_seconds;
        wall_seconds += other.wall_seconds;
        samples_materialized += other.samples_materialized;
        faults_injected += other.faults_injected;
        retries += other.retries;
        permanent_failures += other.permanent_failures;
        fault_backoff_seconds += other.fault_backoff_seconds;
        tasks_cancelled += other.tasks_cancelled;
        return *this;
    }
};

/** Per-generation record for convergence plots (Figs. 7, 12, 17). */
struct GenerationRecord
{
    std::size_t generation = 0;
    double best_fitness = 0.0;
    double mean_fitness = 0.0;
    EvalDetail best_detail;
    isa::Kernel best;
};

/** Full GA run result. */
struct GaResult
{
    std::vector<GenerationRecord> history;
    isa::Kernel best;            ///< Best individual over all gens.
    double best_fitness = 0.0;
    EvalDetail best_detail;
    double estimated_lab_seconds = 0.0; ///< Modeled wall time of the
                                        ///< equivalent physical run
                                        ///< (fresh measurements only:
                                        ///< reused elites and cache
                                        ///< hits cost no lab time;
                                        ///< faulted attempts and
                                        ///< retry backoff are
                                        ///< charged).
    EvalStats eval_stats;        ///< Measurement pipeline counters.
};

/** Optional per-generation observer. */
using GenerationCallback =
    std::function<void(const GenerationRecord &)>;

/** Validate GA hyper-parameters; throws ConfigError on nonsense. */
void validateGaConfig(const GaConfig &config);

/**
 * Service-era extension points threaded into a run's batch
 * evaluator. Default-constructed hooks reproduce the batch-era
 * behavior exactly: a private worker fleet and no cancellation.
 */
struct BatchHooks
{
    /// Shared worker fleet to evaluate on instead of a private one
    /// (the fleet's worker count overrides GaConfig::threads). Not
    /// owned; must outlive the run.
    WorkerFleet *fleet = nullptr;
    /// Cooperative cancellation: once fired, pending evaluations are
    /// drained without being scored, cached or charged.
    CancelToken cancel;
};

class BatchEvaluator; // ga/batch_evaluator.h

/**
 * One plain GA search (GaConfig::restarts is ignored), advanced one
 * generation at a time. This is the unit the service scheduler
 * interleaves: each step() evaluates and breeds exactly one
 * generation, so a scheduler can round-robin steps across many live
 * jobs on one shared fleet. GaEngine::runSingle is a loop over this
 * class, which is what makes service runs bit-identical to direct
 * runs by construction rather than by parallel reimplementation.
 */
class GaStepper
{
  public:
    /**
     * Validate the config, seed the initial population (seeds first,
     * random fill) and prepare the batch evaluator. No evaluation
     * happens until the first step().
     */
    GaStepper(const isa::InstructionPool &pool, const GaConfig &config,
              FitnessEvaluator &evaluator,
              std::vector<isa::Kernel> seed_population = {},
              BatchHooks hooks = {});

    GaStepper(const GaStepper &) = delete;
    GaStepper &operator=(const GaStepper &) = delete;

    ~GaStepper();

    /** True once every generation ran — or cancellation fired. */
    bool done() const;

    /** True iff the hook's cancel token fired. */
    bool cancelled() const;

    /** Generations executed so far. */
    std::size_t generationsDone() const { return gen_; }

    /** Generations this search runs in total. */
    std::size_t
    generationsPlanned() const
    {
        return config_.generations;
    }

    /**
     * Evaluate the current population and breed the next one.
     * Returns the generation's record (valid until the next step() or
     * finish()), or nullptr when the run is done or was cancelled
     * mid-step — a cancelled generation is never recorded, since its
     * unevaluated slots hold no meaningful fitness.
     */
    const GenerationRecord *step();

    /**
     * Finalize and surrender the result (history, best individual,
     * EvalStats adopted from the batch evaluator). Call once, after
     * done(); the stepper is spent afterwards.
     */
    GaResult finish();

  private:
    const isa::InstructionPool &pool_;
    GaConfig config_;
    Rng rng_;
    std::unique_ptr<BatchEvaluator> batch_;
    std::vector<isa::Kernel> population_;
    std::vector<double> fitness_;
    std::vector<EvalDetail> details_;
    std::vector<char> known_;
    GaResult result_;
    std::size_t gen_ = 0;
    bool finished_ = false;
};

/**
 * Resumable driver for a complete GA job: single search or the
 * multi-start scout/final flow, advanced one generation at a time.
 * Produces bit-identical results to GaEngine::run with the same
 * config — GaEngine::run *is* a loop over this driver.
 */
class GaDriver
{
  public:
    /** Phase selection. */
    enum class Mode
    {
        kAuto,       ///< Multi-start iff restarts > 1 and no seeds
                     ///< (GaEngine::run's dispatch rule).
        kSingle,     ///< One plain search, restarts ignored.
        kMultiStart, ///< Scouts + seeded final, even for restarts==1.
    };

    GaDriver(const isa::InstructionPool &pool, const GaConfig &config,
             FitnessEvaluator &evaluator,
             std::vector<isa::Kernel> seed_population = {},
             BatchHooks hooks = {}, Mode mode = Mode::kAuto);

    GaDriver(const GaDriver &) = delete;
    GaDriver &operator=(const GaDriver &) = delete;

    ~GaDriver();

    /** True once the last phase finished — or cancellation fired. */
    bool done() const;

    /** True iff the hook's cancel token fired. */
    bool cancelled() const;

    /** Generations executed so far, across all phases. */
    std::size_t generationsDone() const { return steps_done_; }

    /** Total generations the job will run, across all phases. */
    std::size_t totalGenerations() const { return total_steps_; }

    /**
     * Advance the job by one generation. Returns the generation's
     * record when it is a *reportable* one — a generation of the
     * single search, or of the multi-start final phase (scout
     * generations return nullptr), exactly mirroring which records
     * GaEngine::run hands to its callback, local generation numbering
     * included. The pointer is valid until the next step()/finish().
     */
    const GenerationRecord *step();

    /**
     * Finalize and surrender the job result (multi-start history
     * stitching included). Call once, after done().
     */
    GaResult finish();

  private:
    /** Finalize the current scout and stand up the next phase. */
    void advanceScout();

    const isa::InstructionPool &pool_;
    GaConfig config_;
    FitnessEvaluator &evaluator_;
    BatchHooks hooks_;
    bool multi_ = false;
    GaConfig scout_cfg_; ///< Half-length template (seed per scout).
    GaConfig final_cfg_;
    std::unique_ptr<GaStepper> stepper_;
    bool in_final_ = false;
    std::size_t scout_index_ = 0;
    std::vector<isa::Kernel> champions_;
    double scout_lab_seconds_ = 0.0;
    EvalStats scout_stats_;
    GaResult best_scout_;
    std::size_t steps_done_ = 0;
    std::size_t total_steps_ = 0;
    bool finished_ = false;
};

/**
 * The GA engine.
 */
class GaEngine
{
  public:
    /**
     * @param pool   Instruction pool individuals draw from.
     * @param config Hyper-parameters.
     */
    GaEngine(const isa::InstructionPool &pool, const GaConfig &config);

    /** Configuration. */
    const GaConfig &config() const { return config_; }

    /**
     * Run the GA to completion.
     * @param evaluator Fitness source.
     * @param callback  Optional per-generation observer.
     * @param seed_population Optional initial population (e.g. from a
     *        previous run, per Section 3.1(a)); padded/truncated to
     *        the configured population size.
     */
    GaResult run(FitnessEvaluator &evaluator,
                 const GenerationCallback &callback = nullptr,
                 std::vector<isa::Kernel> seed_population = {});

    /// @{ Run phases, exposed for unit testing.
    /** One plain search (ignores GaConfig::restarts). */
    GaResult runSingle(FitnessEvaluator &evaluator,
                       const GenerationCallback &callback,
                       std::vector<isa::Kernel> seed_population);
    /** The restart flow (scouts then a seeded final search). */
    GaResult runMultiStart(FitnessEvaluator &evaluator,
                           const GenerationCallback &callback);
    /// @}

    /// @{ Operators, exposed for unit testing.
    /** Tournament selection: index of the winner. */
    static std::size_t tournamentSelect(
        const std::vector<double> &fitness, std::size_t k, Rng &rng);
    /** One-point crossover of two parents. */
    static isa::Kernel crossover(const isa::Kernel &a,
                                 const isa::Kernel &b, Rng &rng);
    /** In-place mutation. */
    static void mutate(isa::Kernel &kernel,
                       const isa::InstructionPool &pool,
                       double rate, double operand_ratio, Rng &rng);
    /// @}

  private:
    const isa::InstructionPool &pool_;
    GaConfig config_;
};

} // namespace ga
} // namespace emstress

#endif // EMSTRESS_GA_GA_ENGINE_H
