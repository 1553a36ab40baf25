/**
 * @file
 * Trapezoidal transient engine implementation: the precomputed
 * state-update fast path and the per-step LU reference path.
 */

#include "circuit/transient.h"

#include <algorithm>

#include "util/error.h"
#include "util/metrics.h"

namespace emstress {
namespace circuit {

namespace {

/** Counter credited per advanced step for a method. */
const char *
solveCounterFor(TransientMethod method)
{
    return method == TransientMethod::FastState
        ? "circuit.transient.state_updates"
        : "circuit.transient.lu_solves";
}

/**
 * Column-by-column (axpy-order) dense mat-vec: out = m · z with m
 * column-major rows x cols, cols a multiple of 4. Four columns per
 * sweep, each output element summed strictly left-to-right within a
 * sweep — the same fixed association as stateUpdateStep, shared by
 * every caller so blocked and per-step emission of the same algebra
 * agree element-for-element. Cloned per ISA width (lanes are
 * independent rows; see util/hotpath.h).
 */
EMSTRESS_TARGET_CLONES void
matVecAxpy(const double *__restrict m, const double *__restrict z,
           double *__restrict out, std::size_t rows, std::size_t cols)
{
    for (std::size_t r = 0; r < rows; ++r)
        out[r] = 0.0;
    for (std::size_t c = 0; c < cols; c += 4) {
        const double v0 = z[c];
        const double v1 = z[c + 1];
        const double v2 = z[c + 2];
        const double v3 = z[c + 3];
        const double *__restrict m0 = m + c * rows;
        const double *__restrict m1 = m0 + rows;
        const double *__restrict m2 = m1 + rows;
        const double *__restrict m3 = m2 + rows;
        for (std::size_t r = 0; r < rows; ++r)
            out[r] = ((out[r] + m0[r] * v0) + m1[r] * v1)
                + (m2[r] * v2 + m3[r] * v3);
    }
}

} // namespace

const Trace &
TransientResult::trace(const std::string &label) const
{
    for (std::size_t i = 0; i < labels.size(); ++i)
        if (labels[i] == label)
            return waveforms[i];
    throw ConfigError("no transient probe labelled " + label);
}

TransientAnalysis::TransientAnalysis(const Netlist &netlist, double dt,
                                     TransientMethod method)
    : dt_(dt), mna_(netlist), method_(method),
      rhs_mult_(mna_.size(), mna_.size())
{
    requireConfig(dt > 0.0, "transient dt must be positive");
    const std::size_t n = mna_.size();

    // Index-aware discretization. Rows whose C entries are all zero
    // are pure algebraic constraints (KCL at storage-free nodes,
    // voltage-source rows): they must hold exactly at every time
    // point. Plain trapezoidal would only constrain the *average* of
    // consecutive states, leaving a marginally stable alternating
    // mode that source steps pump into unbounded growth. Dynamic
    // (storage) rows keep the trapezoidal rule, preserving LC
    // oscillation amplitudes.
    algebraic_row_.assign(n, true);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            if (mna_.c()(r, c) != 0.0) {
                algebraic_row_[r] = false;
                break;
            }
        }
    }

    Matrix<double> lhs(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            if (algebraic_row_[r]) {
                // Enforced at t_{n+1}: G x_{n+1} = s_{n+1}.
                lhs(r, c) = mna_.g()(r, c);
                rhs_mult_(r, c) = 0.0;
            } else {
                const double cv = mna_.c()(r, c) / dt_;
                const double gv = mna_.g()(r, c) * 0.5;
                lhs(r, c) = cv + gv;
                rhs_mult_(r, c) = cv - gv;
            }
        }
    }
    lhs_ = std::make_unique<LuSolver<double>>(std::move(lhs));
    if (method_ == TransientMethod::FastState)
        buildStateUpdate();
    metrics::Registry::instance().add(
        "circuit.transient.factorizations");
}

TransientAnalysis::~TransientAnalysis() = default;
TransientAnalysis::TransientAnalysis(TransientAnalysis &&) noexcept
    = default;
TransientAnalysis &
TransientAnalysis::operator=(TransientAnalysis &&) noexcept = default;

void
TransientAnalysis::buildStateUpdate()
{
    const std::size_t n = mna_.size();
    const std::size_t n_src = mna_.currentSourceNames().size();
    xpad_ = (n + 3) & ~std::size_t{3};
    inow_off_ = xpad_;
    iprev_off_ = xpad_ + n_src;
    one_idx_ = xpad_ + 2 * n_src;
    cols_ = (one_idx_ + 1 + 3) & ~std::size_t{3};
    mt_.assign(cols_ * xpad_, 0.0);
    const auto column = [this](std::size_t c) {
        return mt_.data() + c * xpad_;
    };

    // A = lhs⁻¹ · rhs_mult, one LU solve per column. The factored
    // solver is bit-identical to the reference path's, so A holds
    // exactly the values per-step substitution would produce for
    // unit history states. Stored column-major: the step kernel
    // accumulates column-by-column (axpy), which vectorizes without
    // reassociating any per-element sum.
    std::vector<double> col(n);
    std::vector<double> sol(n);
    for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r < n; ++r)
            col[r] = rhs_mult_(r, c);
        lhs_->solveInto(col, sol);
        std::copy(sol.begin(), sol.end(), column(c));
    }

    // Source images. The reference rhs is
    //   rhs_r = [alg] s_now_r + [dyn] 0.5 (s_prev_r + s_now_r)
    // with s = s_vs + Σ_j i_j e_j, so folding through lhs⁻¹:
    //   const column  = lhs⁻¹ s_vs        (both halves sum to 1)
    //   i_now column  = lhs⁻¹ ([alg] + 0.5 [dyn]) e_j
    //   i_prev column = lhs⁻¹ (0.5 [dyn]) e_j
    std::vector<double> src_vals(n_src, 0.0);
    const std::vector<double> s_vs = mna_.sourceVector(src_vals);
    const std::vector<double> s_const = lhs_->solve(s_vs);
    std::copy(s_const.begin(), s_const.end(), column(one_idx_));
    std::vector<double> w(n);
    for (std::size_t j = 0; j < n_src; ++j) {
        src_vals[j] = 1.0;
        const std::vector<double> s_j = mna_.sourceVector(src_vals);
        src_vals[j] = 0.0;
        // e_j = s_j - s_vs is exact: injections land on node rows,
        // which carry no voltage-source entries.
        for (std::size_t r = 0; r < n; ++r) {
            const double e = s_j[r] - s_vs[r];
            w[r] = algebraic_row_[r] ? e : 0.5 * e;
        }
        lhs_->solveInto(w, sol);
        std::copy(sol.begin(), sol.end(), column(inow_off_ + j));
        for (std::size_t r = 0; r < n; ++r)
            w[r] = algebraic_row_[r] ? 0.0
                                     : 0.5 * (s_j[r] - s_vs[r]);
        lhs_->solveInto(w, sol);
        std::copy(sol.begin(), sol.end(), column(iprev_off_ + j));
    }

    // Blocked-stream tables over the compact LTI form
    // S = [x | u_prev | 1 | zero padding] (the i_now slots of the
    // augmented form become the explicit input u, everything else
    // keeps its role). T's x-rows come from M: state columns
    // verbatim, u_prev columns from the i_prev images, the constant
    // column from the voltage-source image. T's u_prev rows are zero
    // (the input B replaces them each step) and its 1-row is e_one,
    // which the power recurrences below use implicitly.
    constexpr std::size_t k = kStreamBlock;
    const std::size_t one_col = xpad_ + n_src;
    q_ = (one_col + 1 + 3) & ~std::size_t{3};
    std::vector<double> t(q_ * xpad_, 0.0);
    for (std::size_t c = 0; c < xpad_; ++c)
        std::copy(column(c), column(c) + xpad_,
                  t.begin() + static_cast<std::ptrdiff_t>(c * xpad_));
    for (std::size_t s = 0; s < n_src; ++s)
        std::copy(column(iprev_off_ + s),
                  column(iprev_off_ + s) + xpad_,
                  t.begin()
                      + static_cast<std::ptrdiff_t>((xpad_ + s)
                                                    * xpad_));
    std::copy(column(one_idx_), column(one_idx_) + xpad_,
              t.begin()
                  + static_cast<std::ptrdiff_t>(one_col * xpad_));

    // Powers T^j, j = 1..k (x-rows only; u_prev rows of any power
    // are zero and the 1-row stays e_one):
    //   T^{j+1}[r][c] = sum_{i<xpad} T[r][i] T^j[i][c]
    //                 + T[r][one] (c == one).
    tpow_.assign(k * q_ * xpad_, 0.0);
    std::copy(t.begin(), t.end(), tpow_.begin());
    for (std::size_t j = 1; j < k; ++j) {
        const double *prev = tpow_.data() + (j - 1) * q_ * xpad_;
        double *next = tpow_.data() + j * q_ * xpad_;
        for (std::size_t c = 0; c < q_; ++c) {
            double *out = next + c * xpad_;
            for (std::size_t i = 0; i < xpad_; ++i) {
                const double *tcol = t.data() + i * xpad_;
                const double pv = prev[c * xpad_ + i];
                for (std::size_t r = 0; r < xpad_; ++r)
                    out[r] += tcol[r] * pv;
            }
            if (c == one_col)
                for (std::size_t r = 0; r < xpad_; ++r)
                    out[r] += t[one_col * xpad_ + r];
        }
    }

    // Input images G_m = T^m B (x-rows). G_0 = B's x-rows = the
    // i_now injection columns; the m = 1 step also picks up B's
    // u_prev identity rows through T's u_prev columns.
    gpow_.assign(k * n_src * xpad_, 0.0);
    for (std::size_t s = 0; s < n_src; ++s)
        std::copy(column(inow_off_ + s), column(inow_off_ + s) + xpad_,
                  gpow_.begin()
                      + static_cast<std::ptrdiff_t>(s * xpad_));
    for (std::size_t m = 1; m < k; ++m) {
        const double *prev = gpow_.data() + (m - 1) * n_src * xpad_;
        double *next = gpow_.data() + m * n_src * xpad_;
        for (std::size_t s = 0; s < n_src; ++s) {
            double *out = next + s * xpad_;
            for (std::size_t i = 0; i < xpad_; ++i) {
                const double *tcol = t.data() + i * xpad_;
                const double pv = prev[s * xpad_ + i];
                for (std::size_t r = 0; r < xpad_; ++r)
                    out[r] += tcol[r] * pv;
            }
            if (m == 1)
                for (std::size_t r = 0; r < xpad_; ++r)
                    out[r] += t[(xpad_ + s) * xpad_ + r];
        }
    }
}

EMSTRESS_TARGET_CLONES void
TransientAnalysis::stateUpdateStep(double *aug,
                                   std::span<const double> i_now,
                                   double *aug_next) const
{
    const std::size_t xpad = xpad_;
    const std::size_t n_src = i_now.size();
    double *slot = aug + inow_off_;
    for (std::size_t j = 0; j < n_src; ++j)
        slot[j] = i_now[j];

    // Column-by-column (axpy-order) mat-vec over the augmented
    // state: each output element is summed strictly left-to-right,
    // four columns per sweep, so the accumulation order is fixed —
    // bit-identical run-to-run and across thread counts — while the
    // elements stay independent and vectorize to full SIMD lanes.
    // Only *versus the reference path* do results differ, to within
    // the documented parity tolerances.
    const double *__restrict m = mt_.data();
    const double *__restrict z = aug;
    double *__restrict out = aug_next;
    for (std::size_t r = 0; r < xpad; ++r)
        out[r] = 0.0;
    for (std::size_t c = 0; c < cols_; c += 4) {
        const double v0 = z[c];
        const double v1 = z[c + 1];
        const double v2 = z[c + 2];
        const double v3 = z[c + 3];
        const double *__restrict m0 = m + c * xpad;
        const double *__restrict m1 = m0 + xpad;
        const double *__restrict m2 = m1 + xpad;
        const double *__restrict m3 = m2 + xpad;
        for (std::size_t r = 0; r < xpad; ++r)
            out[r] = ((out[r] + m0[r] * v0) + m1[r] * v1)
                + (m2[r] * v2 + m3[r] * v3);
    }

    // This step's sources become the swapped buffer's history; its
    // constant-1 and padding slots were set at initialization and
    // are never written past.
    double *hist = aug_next + iprev_off_;
    for (std::size_t j = 0; j < n_src; ++j)
        hist[j] = slot[j];
}

TransientResult
TransientAnalysis::run(std::size_t steps,
                       const std::vector<SourceWaveform> &waveforms,
                       const std::vector<Probe> &probes,
                       std::span<const double> bias_currents) const
{
    const std::size_t n = mna_.size();
    const std::size_t n_src = mna_.currentSourceNames().size();
    requireConfig(waveforms.size() == n_src,
                  "transient run needs one waveform per current source");

    // Resolve probe state indices up front.
    std::vector<std::size_t> probe_idx;
    probe_idx.reserve(probes.size());
    TransientResult result;
    for (const auto &p : probes) {
        if (p.kind == ProbeKind::NodeVoltage)
            probe_idx.push_back(mna_.stateIndexOfNode(p.node));
        else
            probe_idx.push_back(mna_.stateIndexOfBranch(p.element));
        result.labels.push_back(p.label);
        Trace t(dt_);
        t.reserve(steps);
        result.waveforms.push_back(std::move(t));
    }

    std::vector<double> src_vals(n_src);
    auto eval_sources = [&](double t) {
        for (std::size_t k = 0; k < n_src; ++k)
            src_vals[k] = waveforms[k](t);
    };

    // Initial condition: DC operating point at the bias currents
    // (typically the waveform means) so slow storage elements start
    // settled. Without an explicit bias, use the waveforms' t = 0
    // values: a state consistent with the constraints at the first
    // step avoids exciting the trapezoidal rule's marginal Nyquist
    // mode on storage-free node chains.
    eval_sources(0.0);

    auto &reg = metrics::Registry::instance();
    if (method_ == TransientMethod::FastState) {
        // Blocked execution through the same stepper the streaming
        // sinks use, with blocks aligned from step 1 and the
        // remainder as one tail call — the partition any sink
        // streaming `steps` samples produces, which is what keeps
        // batch and stream runs of one engine bit-identical. Raw
        // source values feed the precomputed injection images
        // directly: no per-step source-vector assembly, no
        // substitution, and one dense multi-step update per
        // kStreamBlock samples. The stepper flushes the step/
        // state-update/block counters itself on destruction.
        const std::size_t np = probe_idx.size();
        TransientBlockStepper bs(*this, bias_currents, src_vals,
                                 probe_idx);
        std::vector<double> in(kStreamBlock * n_src);
        std::vector<double> out(kStreamBlock * np);
        std::size_t step = 1;
        while (step <= steps) {
            const std::size_t count =
                std::min(kStreamBlock, steps - step + 1);
            for (std::size_t c = 0; c < count; ++c) {
                eval_sources(dt_ * static_cast<double>(step + c));
                std::copy(src_vals.begin(), src_vals.end(),
                          in.begin()
                              + static_cast<std::ptrdiff_t>(c
                                                            * n_src));
            }
            bs.stepBlock(in.data(), count, out.data());
            for (std::size_t c = 0; c < count; ++c)
                for (std::size_t p = 0; p < np; ++p)
                    result.waveforms[p].push(out[c * np + p]);
            step += count;
        }
        return result;
    }

    std::vector<double> x;
    {
        Matrix<double> a = mna_.g();
        LuSolver<double> lu(std::move(a));
        x = lu.solve(mna_.sourceVector(
            bias_currents.empty() ? std::span<const double>(src_vals)
                                  : bias_currents));
    }

    std::vector<double> s_prev = mna_.sourceVector(src_vals);
    std::vector<double> rhs(n);
    std::vector<double> s_now(n);
    for (std::size_t step = 1; step <= steps; ++step) {
        const double t = dt_ * static_cast<double>(step);
        eval_sources(t);
        mna_.sourceVectorInto(src_vals, s_now);

        // rhs: trapezoidal source average + history for dynamic
        // rows; the instantaneous source for algebraic rows.
        for (std::size_t r = 0; r < n; ++r) {
            double acc = algebraic_row_[r]
                ? s_now[r]
                : 0.5 * (s_prev[r] + s_now[r]);
            for (std::size_t c = 0; c < n; ++c)
                acc += rhs_mult_(r, c) * x[c];
            rhs[r] = acc;
        }
        lhs_->solveInto(rhs, x);
        s_prev.swap(s_now);

        for (std::size_t p = 0; p < probe_idx.size(); ++p)
            result.waveforms[p].push(x[probe_idx[p]]);
    }
    reg.add("circuit.transient.steps", steps);
    reg.add("circuit.transient.lu_solves", steps);
    return result;
}

TransientStepper
TransientAnalysis::makeStepper(
    std::span<const double> bias_currents,
    std::span<const double> initial_currents) const
{
    return TransientStepper(*this, bias_currents, initial_currents);
}

TransientStepper::TransientStepper(
    const TransientAnalysis &engine,
    std::span<const double> bias_currents,
    std::span<const double> initial_currents)
    : engine_(engine)
{
    const auto &mna = engine.mna_;
    // Single convention, mirroring run(): the DC point comes from
    // the bias (falling back to the initial values, then netlist DC
    // values); the trapezoidal source history starts at the initial
    // values (falling back to bias, then DC values).
    const std::span<const double> dc_at =
        bias_currents.empty() ? initial_currents : bias_currents;
    const std::span<const double> initial =
        initial_currents.empty() ? bias_currents : initial_currents;
    std::vector<double> x0;
    {
        Matrix<double> a = mna.g();
        LuSolver<double> lu(std::move(a));
        x0 = lu.solve(mna.sourceVector(dc_at));
    }

    if (engine.method_ == TransientMethod::FastState) {
        x_.assign(engine.cols_, 0.0);
        std::copy(x0.begin(), x0.end(), x_.begin());
        const std::span<const double> i0 = initial.empty()
            ? std::span<const double>(mna.currentSourceDcValues())
            : initial;
        std::copy(i0.begin(), i0.end(),
                  x_.begin() + static_cast<std::ptrdiff_t>(
                      engine.iprev_off_));
        x_[engine.one_idx_] = 1.0;
        x_next_.assign(engine.cols_, 0.0);
        x_next_[engine.one_idx_] = 1.0;
    } else {
        x_ = std::move(x0);
        s_prev_ = mna.sourceVector(initial);
        rhs_.resize(mna.size());
    }
}

TransientStepper::TransientStepper(TransientStepper &&other) noexcept
    : engine_(other.engine_), x_(std::move(other.x_)),
      x_next_(std::move(other.x_next_)),
      s_prev_(std::move(other.s_prev_)),
      s_now_(std::move(other.s_now_)), rhs_(std::move(other.rhs_)),
      time_(other.time_), steps_taken_(other.steps_taken_),
      pending_steps_(other.pending_steps_)
{
    // The moved-from shell must not double-flush on destruction.
    other.pending_steps_ = 0;
}

TransientStepper::~TransientStepper()
{
    flushMetrics();
}

void
TransientStepper::flushMetrics()
{
    if (pending_steps_ == 0)
        return;
    auto &reg = metrics::Registry::instance();
    reg.add("circuit.transient.steps", pending_steps_);
    reg.add(solveCounterFor(engine_.method_), pending_steps_);
    pending_steps_ = 0;
}

void
TransientStepper::step(std::span<const double> currents)
{
    if (engine_.method_ == TransientMethod::FastState) {
        requireSim(
            currents.size()
                == engine_.mna_.currentSourceNames().size(),
            "stepper: wrong number of current-source values");
        engine_.stateUpdateStep(x_.data(), currents, x_next_.data());
        x_.swap(x_next_);
    } else {
        const std::size_t n = engine_.mna_.size();
        // Reused buffers: a stepping loop makes tens of thousands of
        // calls per run, so the source/solve temporaries must not
        // allocate per step.
        engine_.mna_.sourceVectorInto(currents, s_now_);
        for (std::size_t r = 0; r < n; ++r) {
            double acc = engine_.algebraic_row_[r]
                ? s_now_[r]
                : 0.5 * (s_prev_[r] + s_now_[r]);
            for (std::size_t c = 0; c < n; ++c)
                acc += engine_.rhs_mult_(r, c) * x_[c];
            rhs_[r] = acc;
        }
        engine_.lhs_->solveInto(rhs_, x_);
        s_prev_.swap(s_now_);
    }
    time_ += engine_.dt_;
    ++steps_taken_;
    ++pending_steps_;
}

double
TransientStepper::value(std::size_t state_index) const
{
    requireSim(state_index < engine_.mna_.size(),
               "stepper state index out of range");
    return x_[state_index];
}

TransientBlockStepper
TransientAnalysis::makeBlockStepper(
    std::span<const double> bias_currents,
    std::span<const double> initial_currents,
    std::span<const std::size_t> probe_indices) const
{
    requireConfig(method_ == TransientMethod::FastState,
                  "blocked stream stepper requires the state-update "
                  "path");
    return TransientBlockStepper(*this, bias_currents,
                                 initial_currents, probe_indices);
}

TransientBlockStepper::TransientBlockStepper(
    const TransientAnalysis &engine,
    std::span<const double> bias_currents,
    std::span<const double> initial_currents,
    std::span<const std::size_t> probe_indices)
    : engine_(engine), xpad_(engine.xpad_),
      n_src_(engine.mna_.currentSourceNames().size()),
      np_(probe_indices.size()),
      probes_(probe_indices.begin(), probe_indices.end())
{
    constexpr std::size_t k = kStreamBlock;
    const std::size_t n = engine.mna_.size();
    for (const std::size_t p : probes_)
        requireConfig(p < n, "block stepper probe index out of range");
    q_ = engine.q_;
    const std::size_t one_col = xpad_ + n_src_;

    // W: the probe rows of every engine transition power stacked, so
    // one mat-vec against S yields all of a block's probe outputs at
    // once.
    wrows_ = (k * np_ + 3) & ~std::size_t{3};
    if (np_ > 0) {
        w_.assign(wrows_ * q_, 0.0);
        for (std::size_t j = 1; j <= k; ++j)
            for (std::size_t p = 0; p < np_; ++p)
                for (std::size_t c = 0; c < q_; ++c)
                    w_[c * wrows_ + (j - 1) * np_ + p] =
                        engine.tpow_[(j - 1) * q_ * xpad_ + c * xpad_
                                     + probes_[p]];
    }
    ybuf_.assign(wrows_, 0.0);

    // Probe/input couplings (T^{j-1-m} B)[p][s] in stepBlock's
    // consumption order (j, m, p, s).
    pg_.reserve(k * (k + 1) / 2 * np_ * n_src_);
    for (std::size_t j = 1; j <= k; ++j)
        for (std::size_t m = 0; m < j; ++m)
            for (std::size_t p = 0; p < np_; ++p)
                for (std::size_t s = 0; s < n_src_; ++s)
                    pg_.push_back(
                        engine.gpow_[(j - 1 - m) * n_src_ * xpad_
                                     + s * xpad_ + probes_[p]]);

    // Initial state, mirroring TransientStepper exactly: DC point at
    // the bias (falling back to initial, then netlist DC values),
    // source history from the initial values.
    const std::span<const double> dc_at =
        bias_currents.empty() ? initial_currents : bias_currents;
    const std::span<const double> initial =
        initial_currents.empty() ? bias_currents : initial_currents;
    std::vector<double> x0;
    {
        Matrix<double> a = engine.mna_.g();
        LuSolver<double> lu(std::move(a));
        x0 = lu.solve(engine.mna_.sourceVector(dc_at));
    }
    s_.assign(q_, 0.0);
    std::copy(x0.begin(), x0.end(), s_.begin());
    const std::span<const double> i0 = initial.empty()
        ? std::span<const double>(
              engine.mna_.currentSourceDcValues())
        : initial;
    std::copy(i0.begin(), i0.end(),
              s_.begin() + static_cast<std::ptrdiff_t>(xpad_));
    s_[one_col] = 1.0;
    s_next_.assign(q_, 0.0);
}

TransientBlockStepper::TransientBlockStepper(
    TransientBlockStepper &&other) noexcept
    : engine_(other.engine_), xpad_(other.xpad_),
      n_src_(other.n_src_), q_(other.q_), np_(other.np_),
      wrows_(other.wrows_), probes_(std::move(other.probes_)),
      w_(std::move(other.w_)), pg_(std::move(other.pg_)),
      s_(std::move(other.s_)), s_next_(std::move(other.s_next_)),
      ybuf_(std::move(other.ybuf_)), time_(other.time_),
      steps_taken_(other.steps_taken_),
      pending_steps_(other.pending_steps_),
      pending_blocks_(other.pending_blocks_)
{
    other.pending_steps_ = 0;
    other.pending_blocks_ = 0;
}

TransientBlockStepper::~TransientBlockStepper()
{
    flushMetrics();
}

void
TransientBlockStepper::flushMetrics()
{
    if (pending_steps_ == 0 && pending_blocks_ == 0)
        return;
    auto &reg = metrics::Registry::instance();
    reg.add("circuit.transient.steps", pending_steps_);
    reg.add("circuit.transient.state_updates", pending_steps_);
    reg.add("circuit.transient.stream_blocks", pending_blocks_);
    pending_steps_ = 0;
    pending_blocks_ = 0;
}

void
TransientBlockStepper::stepBlock(const double *currents,
                                 std::size_t count, double *probe_out)
{
    constexpr std::size_t k = kStreamBlock;
    requireSim(count >= 1 && count <= k,
               "stepBlock count must be 1..kStreamBlock");
    const std::size_t one_col = xpad_ + n_src_;
    if (count == k) {
        // All probe outputs of the block in one mat-vec, then the
        // triangle of input corrections in the same (j, m, p, s)
        // order the pg_ table was built in.
        if (np_ > 0) {
            matVecAxpy(w_.data(), s_.data(), ybuf_.data(), wrows_,
                       q_);
            const double *pg = pg_.data();
            for (std::size_t j = 1; j <= k; ++j)
                for (std::size_t m = 0; m < j; ++m)
                    for (std::size_t p = 0; p < np_; ++p)
                        for (std::size_t s = 0; s < n_src_; ++s)
                            ybuf_[(j - 1) * np_ + p] +=
                                *pg++ * currents[m * n_src_ + s];
            std::copy(ybuf_.begin(),
                      ybuf_.begin()
                          + static_cast<std::ptrdiff_t>(k * np_),
                      probe_out);
        }
        // State: S' = T^k S + sum_m G_{k-1-m} u_m, inputs applied in
        // the same ascending-m order as the probe corrections so the
        // block's last output bit-matches the new state.
        matVecAxpy(engine_.tpow_.data() + (k - 1) * q_ * xpad_,
                   s_.data(), s_next_.data(), xpad_, q_);
        for (std::size_t m = 0; m < k; ++m)
            for (std::size_t s = 0; s < n_src_; ++s) {
                const double coef = currents[m * n_src_ + s];
                const double *__restrict col = engine_.gpow_.data()
                    + (k - 1 - m) * n_src_ * xpad_ + s * xpad_;
                double *__restrict out = s_next_.data();
                for (std::size_t r = 0; r < xpad_; ++r)
                    out[r] += col[r] * coef;
            }
        for (std::size_t s = 0; s < n_src_; ++s)
            s_next_[xpad_ + s] = currents[(k - 1) * n_src_ + s];
        s_next_[one_col] = 1.0;
        s_.swap(s_next_);
        ++pending_blocks_;
    } else {
        // Stream tail: plain per-step updates against T and G_0,
        // probes read straight from the advanced state.
        for (std::size_t c = 0; c < count; ++c) {
            matVecAxpy(engine_.tpow_.data(), s_.data(),
                       s_next_.data(), xpad_, q_);
            for (std::size_t s = 0; s < n_src_; ++s) {
                const double coef = currents[c * n_src_ + s];
                const double *__restrict col =
                    engine_.gpow_.data() + s * xpad_;
                double *__restrict out = s_next_.data();
                for (std::size_t r = 0; r < xpad_; ++r)
                    out[r] += col[r] * coef;
            }
            for (std::size_t s = 0; s < n_src_; ++s)
                s_next_[xpad_ + s] = currents[c * n_src_ + s];
            s_next_[one_col] = 1.0;
            s_.swap(s_next_);
            for (std::size_t p = 0; p < np_; ++p)
                probe_out[c * np_ + p] = s_[probes_[p]];
        }
    }
    time_ += engine_.dt_ * static_cast<double>(count);
    steps_taken_ += count;
    pending_steps_ += count;
}

} // namespace circuit
} // namespace emstress
