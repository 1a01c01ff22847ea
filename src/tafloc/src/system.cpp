#include "tafloc/tafloc/system.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "tafloc/exec/thread_pool.h"
#include "tafloc/linalg/backend.h"
#include "tafloc/linalg/io.h"
#include "tafloc/recon/operators.h"
#include "tafloc/storage/snapshot.h"
#include "tafloc/storage/wal.h"
#include "tafloc/tafloc/scheduler.h"
#include "tafloc/telemetry/span.h"
#include "tafloc/telemetry/trace.h"
#include "tafloc/util/check.h"
#include "tafloc/util/log.h"

namespace tafloc {

namespace {
constexpr std::uint32_t kZonePayloadVersion = 1;
}  // namespace

TafLocSystem::TafLocSystem(const Deployment& deployment, const TafLocConfig& config)
    : deployment_(deployment),
      config_(config),
      telemetry_(std::make_unique<MetricRegistry>(config.telemetry)),
      degraded_queries_(registry_counter(telemetry_.get(), "system.degraded_queries")),
      unservable_queries_(registry_counter(telemetry_.get(), "system.unservable_queries")),
      links_dead_(registry_gauge(telemetry_.get(), "system.links_dead")),
      links_alive_(registry_gauge(telemetry_.get(), "system.links_alive")),
      degraded_fraction_(registry_gauge(telemetry_.get(), "system.degraded_fraction")) {
  TAFLOC_CHECK_ARG(config.knn_k >= 1, "knn k must be at least 1");
  TAFLOC_CHECK_ARG(config.knn_rerank_alpha >= 1, "knn re-rank multiplier must be at least 1");
  if (telemetry_->enabled())
    telemetry_->gauge("kernel.backend")
        .set(static_cast<double>(static_cast<int>(active_kernel_backend())));
  // Route the solver's recon.* metrics into this system's registry.
  // The pointer is stable for the system's lifetime (unique_ptr owner).
  config_.solver.telemetry = telemetry_.get();
}

TafLocSystem::TafLocSystem(TafLocSystem&& other) noexcept
    : deployment_(other.deployment_),
      config_(std::move(other.config_)),
      database_(std::move(other.database_)),
      lrr_(std::move(other.lrr_)),
      mask_(std::move(other.mask_)),
      reference_indices_(std::move(other.reference_indices_)),
      matcher_(std::move(other.matcher_)),
      telemetry_(std::move(other.telemetry_)),
      degraded_query_count_(other.degraded_query_count_),
      total_degraded_calls_(other.total_degraded_calls_),
      degraded_queries_(other.degraded_queries_),
      unservable_queries_(other.unservable_queries_),
      links_dead_(other.links_dead_),
      links_alive_(other.links_alive_),
      degraded_fraction_(other.degraded_fraction_),
      durability_(std::move(other.durability_)),
      store_(std::move(other.store_)),
      wal_(std::move(other.wal_)),
      scheduler_(other.scheduler_),
      oldest_wal_gen_(other.oldest_wal_gen_),
      generation_(other.generation_),
      next_seq_(other.next_seq_),
      replaying_(other.replaying_),
      staged_pending_(other.staged_pending_),
      staged_seq_(other.staged_seq_) {
  // The moved-from shell must not detach our scheduler's WAL in its
  // destructor, and both borrowed raw pointers must follow the move:
  // the solver's telemetry sink, and the matcher's link-health mask
  // (the LinkHealth object lives inline in the optional database).
  other.scheduler_ = nullptr;
  config_.solver.telemetry = telemetry_.get();
  if (matcher_ != nullptr && database_.has_value()) {
    matcher_->attach_link_health(&database_->link_health());
    // Same re-point for the quantized tier (it also lives inline in the
    // optional database, so the move relocated it).
    matcher_->attach_quantized_tier(&database_->quantized_tier());
  }
}

// Out of line: the durability members' types are incomplete in the header.
TafLocSystem::~TafLocSystem() {
  // The WAL holds a raw pointer into an externally owned scheduler;
  // sever it so a longer-lived scheduler cannot append to a dead log.
  if (scheduler_ != nullptr) scheduler_->attach_wal(nullptr);
}

void TafLocSystem::calibrate(const Matrix& full_survey, Vector ambient, double t_days) {
  TAFLOC_CHECK_ARG(full_survey.rows() == deployment_.num_links(),
                   "survey must have one row per link");
  TAFLOC_CHECK_ARG(full_survey.cols() == deployment_.num_grids(),
                   "survey must have one column per grid");
  ScopedSpan span(telemetry_.get(), "system.calibrate_seconds");

  // Distortion structure, learned from the data (no geometry needed).
  const DistortionDetector detector(config_.distortion);
  mask_ = detector.detect_from_data(full_survey, ambient);

  // Reference locations: maximal linearly independent columns.
  std::size_t count = config_.reference_count;
  if (count == 0) count = suggest_reference_count(full_survey);
  count = std::min(count, full_survey.cols());
  reference_indices_ =
      select_reference_locations(full_survey, count, ReferencePolicy::QrPivot, nullptr);

  // LRR correlation matrix from the initial survey.
  LrrOptions lrr_options;
  lrr_options.telemetry = telemetry_.get();
  lrr_.emplace(full_survey, reference_indices_, lrr_options);

  database_.emplace(full_survey, std::move(ambient), t_days);
  rebuild_matcher();
  if (telemetry_->enabled()) {
    telemetry_->counter("system.calibrations").add();
    telemetry_->gauge("system.last_survey_days").set(t_days);
  }
  // A calibrated zone is immediately durable: generation 1 is the
  // baseline every later WAL record replays onto.
  if (durable() && !replaying_) save();
}

TafLocSystem::UpdateReport TafLocSystem::update(const Matrix& fresh_reference_columns,
                                                Vector fresh_ambient, double t_days) {
  ScopedSpan span(telemetry_.get(), "system.update_seconds");
  StagedUpdate staged = stage_update(fresh_reference_columns, std::move(fresh_ambient), t_days);
  solve_staged_update(staged);
  return commit_update(std::move(staged));
}

TafLocSystem::StagedUpdate TafLocSystem::stage_update(const Matrix& fresh_reference_columns,
                                                      Vector fresh_ambient, double t_days) {
  TAFLOC_CHECK_STATE(calibrated(), "update() requires a prior calibrate()");
  TAFLOC_CHECK_ARG(fresh_reference_columns.rows() == deployment_.num_links(),
                   "reference columns must have one row per link");
  TAFLOC_CHECK_ARG(fresh_reference_columns.cols() == reference_indices_.size(),
                   "reference column count must match the calibrated reference set");
  TAFLOC_CHECK_ARG(fresh_ambient.size() == deployment_.num_links(),
                   "ambient vector must have one entry per link");
  ScopedSpan span(telemetry_.get(), "system.stage_update_seconds");
  const std::lock_guard<std::mutex> lock(commit_mu_);
  TAFLOC_CHECK_STATE(!staged_pending_, "one update is already staged; commit or abandon it");

  StagedUpdate staged;
  staged.t_days = t_days;
  staged.references_surveyed = reference_indices_.size();

  if (durable() && wal_ != nullptr && !replaying_) {
    // Write-ahead: the raw survey inputs are durable before anything
    // mutates, so a crash anywhere inside the (expensive) solver
    // replays this update from the log and lands on the same matrix.
    staged.wal_seq = wal_->append(
        kWalUpdate, encode_update_record(t_days, fresh_reference_columns, fresh_ambient));
    wal_->sync();
  }

  // Fault sanitization.  A dead link cannot survey anything: its rows in
  // the fresh inputs are garbage (NaN from the radio, or stale).  First
  // flag any link whose fresh readings are non-finite, then patch every
  // dead row from the current database so the solver only ever sees
  // finite numbers -- the reconstruction itself excludes those rows
  // through row_observed below, so the patched values act purely as a
  // stay-where-you-were prior, never as observations.
  LinkHealth& health = database_->link_health();
  Matrix ref_cols = fresh_reference_columns;
  for (std::size_t i = 0; i < deployment_.num_links(); ++i) {
    bool finite = std::isfinite(fresh_ambient[i]);
    for (std::size_t j = 0; finite && j < ref_cols.cols(); ++j)
      finite = std::isfinite(ref_cols(i, j));
    if (!finite && health.usable(i)) {
      TAFLOC_LOG_WARN << "update: link " << i
                      << " reported non-finite survey data; marking dead";
      health.mark_dead(i);
    }
  }
  const std::span<const std::uint8_t> usable = health.usable_bytes();
  if (!health.all_usable()) {
    for (std::size_t i = 0; i < deployment_.num_links(); ++i) {
      if (usable[i] != 0) continue;
      fresh_ambient[i] = database_->ambient()[i];
      for (std::size_t j = 0; j < ref_cols.cols(); ++j)
        ref_cols(i, j) = database_->fingerprints()(i, reference_indices_[j]);
    }
  }

  LoliIrProblem& problem = staged.problem;
  problem.mask_undistorted = mask_->undistorted;
  problem.known = known_entry_matrix(*mask_, fresh_ambient);
  problem.prediction = lrr_->predict(ref_cols);
  problem.reference_indices = reference_indices_;
  if (!health.all_usable()) {
    // Dead rows leave the data and reference terms (see loli_ir.h); the
    // LRR term still spans them, so give it the previous fingerprints as
    // the prediction there -- the best available prior for a row with no
    // fresh information.
    problem.row_observed.assign(usable.begin(), usable.end());
    for (std::size_t i = 0; i < deployment_.num_links(); ++i) {
      if (usable[i] != 0) continue;
      for (std::size_t j = 0; j < deployment_.num_grids(); ++j)
        problem.prediction(i, j) = database_->fingerprints()(i, j);
    }
  }
  problem.reference_columns = std::move(ref_cols);
  staged.sanitized_ambient = std::move(fresh_ambient);
  staged_pending_ = true;
  staged_seq_ = staged.wal_seq;
  return staged;
}

void TafLocSystem::solve_staged_update(StagedUpdate& staged) const {
  ScopedSpan span(telemetry_.get(), "system.solve_update_seconds");
  // The property-iii pair sets follow from B alone, so the worker builds
  // them from the problem's own copy of it; they live only as long as
  // this staged update.
  LoliIrProblem& problem = staged.problem;
  problem.continuity = continuity_pairs(deployment_, &problem.mask_undistorted);
  problem.similarity = similarity_pairs(deployment_, &problem.mask_undistorted);
  staged.solver = loli_ir_reconstruct(problem, config_.solver);
  staged.solved = true;
}

TafLocSystem::UpdateReport TafLocSystem::commit_update(StagedUpdate staged) {
  TAFLOC_CHECK_STATE(staged.solved, "commit_update() requires solve_staged_update()");
  ScopedSpan span(telemetry_.get(), "system.commit_update_seconds");
  const std::lock_guard<std::mutex> lock(commit_mu_);
  TAFLOC_CHECK_STATE(staged_pending_, "no update is staged");
  staged_pending_ = false;

  UpdateReport report;
  report.solver = std::move(staged.solver);
  report.updated_at_days = staged.t_days;
  report.references_surveyed = staged.references_surveyed;

  database_->update(report.solver.x, std::move(staged.sanitized_ambient), staged.t_days);
  rebuild_matcher();
  if (telemetry_->enabled()) {
    telemetry_->counter("system.updates").add();
    telemetry_->gauge("system.last_update_days").set(staged.t_days);
    // Post-update reconstruction quality: the solver objective at the
    // accepted iterate (lower is better; see loli_ir.h for the terms).
    telemetry_->gauge("system.post_update_objective").set(report.solver.objective);
  }
  // The refreshed matrix supersedes the WAL: snapshot it and rotate.
  if (durable() && !replaying_) save_locked();
  return report;
}

void TafLocSystem::abandon_staged_update(const StagedUpdate& staged) noexcept {
  (void)staged;
  const std::lock_guard<std::mutex> lock(commit_mu_);
  if (!staged_pending_) return;
  staged_pending_ = false;
  TAFLOC_LOG_WARN << "staged update abandoned (wal seq "
                  << (staged.wal_seq != 0 ? std::to_string(staged.wal_seq) : "none")
                  << "); a recovery replay may still apply it";
}

bool TafLocSystem::update_staged() const noexcept {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  return staged_pending_;
}

TafLocSystem::UpdateReport TafLocSystem::update_with_collector(
    const FingerprintCollector& collector, double t_days, Rng& rng) {
  TAFLOC_CHECK_STATE(calibrated(), "update_with_collector() requires a prior calibrate()");
  const Matrix fresh = collector.survey_grids(reference_indices_, t_days, rng);
  Vector ambient = collector.ambient_scan(t_days, rng);
  return update(fresh, std::move(ambient), t_days);
}

bool TafLocSystem::quantized_tier_active() const noexcept {
  return matcher_ != nullptr && matcher_->quantized_active();
}

Point2 TafLocSystem::localize(std::span<const double> rss) const {
  TAFLOC_CHECK_STATE(matcher_ != nullptr, "localize() requires a prior calibrate()");
  return matcher_->localize(rss);
}

TafLocSystem::DegradedResult TafLocSystem::localize_degraded(std::span<const double> rss) {
  TAFLOC_CHECK_STATE(matcher_ != nullptr, "localize_degraded() requires a prior calibrate()");
  TAFLOC_CHECK_ARG(rss.size() == deployment_.num_links(), "rss must have one entry per link");

  // Every real-time reading drives the health state machine: NaNs kill
  // their link for this query, stuck links accumulate towards Suspect /
  // Dead, recovered links heal.  Durable zones log the reading first --
  // the mask a recovered process serves with must match the one the
  // dead process was serving with.
  if (durable() && wal_ != nullptr && !replaying_)
    wal_->append(kWalObserve, encode_observe_record(rss));
  LinkHealth& health = database_->link_health();
  {
    TraceStage stage("system.health");
    health.observe(rss);
  }

  DegradedResult out;
  out.links_total = health.num_links();
  out.degraded = !health.all_usable();
  ++total_degraded_calls_;
  if (out.degraded) ++degraded_query_count_;

  {
    TraceStage match_stage("system.match");
    if (health.usable_count() == 0) {
      // Nothing left to match against.  The least-wrong answer with zero
      // information is the area centre; served == false tells the caller
      // this estimate carries no signal.
      TAFLOC_LOG_WARN << "localize_degraded: all " << out.links_total
                      << " links dead; returning area centre";
      out.point = {0.5 * deployment_.grid().width(), 0.5 * deployment_.grid().height()};
    } else {
      MatchStats stats;
      out.point = matcher_->localize(rss, &stats);
      out.links_used = stats.links_used;
      out.gated_neighbors = stats.gated_out;
      out.confidence =
          static_cast<double>(out.links_used) / static_cast<double>(out.links_total);
      out.served = true;
    }
  }

  if (telemetry_->enabled()) {
    if (out.degraded) degraded_queries_->add();
    if (!out.served) unservable_queries_->add();
    links_dead_->set(static_cast<double>(health.dead_count()));
    links_alive_->set(static_cast<double>(health.usable_count()));
    degraded_fraction_->set(static_cast<double>(degraded_query_count_) /
                            static_cast<double>(total_degraded_calls_));
  }
  return out;
}

const std::vector<std::size_t>& TafLocSystem::reference_locations() const {
  TAFLOC_CHECK_STATE(calibrated(), "reference locations exist only after calibrate()");
  return reference_indices_;
}

const FingerprintDatabase& TafLocSystem::database() const {
  TAFLOC_CHECK_STATE(calibrated(), "database exists only after calibrate()");
  return *database_;
}

LinkHealth& TafLocSystem::link_health() {
  TAFLOC_CHECK_STATE(calibrated(), "link health exists only after calibrate()");
  return database_->link_health();
}

const LinkHealth& TafLocSystem::link_health() const {
  TAFLOC_CHECK_STATE(calibrated(), "link health exists only after calibrate()");
  return database_->link_health();
}

const LrrModel& TafLocSystem::lrr() const {
  TAFLOC_CHECK_STATE(lrr_.has_value(), "LRR model exists only after calibrate()");
  return *lrr_;
}

const DistortionMask& TafLocSystem::distortion_mask() const {
  TAFLOC_CHECK_STATE(mask_.has_value(), "distortion mask exists only after calibrate()");
  return *mask_;
}

TafLocState TafLocSystem::export_state() const {
  TAFLOC_CHECK_STATE(calibrated(), "export_state() requires a prior calibrate()");
  TafLocState state;
  state.fingerprints = database_->fingerprints();
  state.ambient = database_->ambient();
  state.surveyed_at_days = database_->surveyed_at_days();
  state.correlation = lrr_->correlation();
  state.reference_indices = reference_indices_;
  state.mask_undistorted = mask_->undistorted;
  return state;
}

void TafLocSystem::import_state(const TafLocState& state) {
  TAFLOC_CHECK_ARG(state.fingerprints.rows() == deployment_.num_links(),
                   "state fingerprints must have one row per link");
  TAFLOC_CHECK_ARG(state.fingerprints.cols() == deployment_.num_grids(),
                   "state fingerprints must have one column per grid");
  TAFLOC_CHECK_ARG(state.ambient.size() == deployment_.num_links(),
                   "state ambient vector must have one entry per link");
  TAFLOC_CHECK_ARG(state.mask_undistorted.same_shape(state.fingerprints),
                   "state mask shape must match the fingerprints");
  TAFLOC_CHECK_ARG(state.correlation.cols() == deployment_.num_grids(),
                   "state correlation must have one column per grid");
  for (double v : state.mask_undistorted.data())
    TAFLOC_CHECK_ARG(v == 0.0 || v == 1.0, "state mask entries must be 0 or 1");

  mask_.emplace(DistortionMask{state.mask_undistorted});
  reference_indices_ = state.reference_indices;
  lrr_.emplace(LrrModel::from_correlation(state.correlation, state.reference_indices));
  database_.emplace(state.fingerprints, state.ambient, state.surveyed_at_days);
  rebuild_matcher();
}

void TafLocSystem::rebuild_matcher() {
  // Borrowing matcher: it scans the database's fingerprint storage
  // directly (zero-copy).  Safe because every database_->update() /
  // emplace() is immediately followed by this rebuild, so the view
  // never outlives the storage it points at.
  matcher_ = std::make_unique<KnnMatcher>(database_->fingerprints_view(), deployment_.grid(),
                                          std::min(config_.knn_k, deployment_.num_grids()),
                                          /*weighted=*/true);
  matcher_->attach_telemetry(telemetry_.get());
  // Same lifetime argument as the fingerprint view: the health mask
  // lives inside database_, and every database_ re-emplace runs through
  // this rebuild.  With all links usable the matcher takes its exact
  // unmasked code path, so attaching here never changes healthy results.
  matcher_->attach_link_health(&database_->link_health());
  // The int8 scan tier is rebuilt by the database on the same
  // update()/emplace() that triggered this rebuild, so attaching it
  // here keeps the two consistent at every point a query can observe.
  // Results are provably unchanged (see matcher.h); only speed differs.
  matcher_->attach_quantized_tier(&database_->quantized_tier());
  matcher_->set_rerank_multiplier(config_.knn_rerank_alpha);
  if (telemetry_->enabled())
    telemetry_->gauge("fingerprint.quantized_tier").set(quantized_tier_active() ? 1.0 : 0.0);
}

// -- durability (DESIGN.md section 10) --

void TafLocSystem::attach_durability(const DurabilityConfig& config) {
  TAFLOC_CHECK_ARG(!config.dir.empty(), "durability dir must not be empty");
  TAFLOC_CHECK_ARG(config.wal_fsync_every >= 1, "wal_fsync_every must be >= 1");
  std::filesystem::create_directories(config.dir);
  durability_ = config;
  store_ = std::make_unique<storage::SnapshotStore>(config.dir);
  // Resume the counters from whatever is already on disk, so an
  // attach-then-calibrate on a dirty directory commits a generation
  // strictly newer than anything a later recover() could prefer.
  const storage::SnapshotStore::LoadResult existing = store_->load_latest();
  if (existing.snapshot.has_value()) {
    generation_ = existing.snapshot->generation;
    next_seq_ = existing.snapshot->sequence + 1;
    oldest_wal_gen_ = generation_ >= 2 ? generation_ - 1 : 1;
  }
}

void TafLocSystem::attach_scheduler(UpdateScheduler* scheduler) {
  if (scheduler_ != nullptr && scheduler_ != scheduler) scheduler_->attach_wal(nullptr);
  scheduler_ = scheduler;
  if (scheduler_ != nullptr) scheduler_->attach_wal(wal_.get());
}

std::uint64_t TafLocSystem::durable_sequence() const noexcept {
  return wal_ != nullptr ? wal_->next_seq() : next_seq_;
}

std::string TafLocSystem::wal_segment_path(std::uint64_t generation) const {
  return durability_.dir + "/wal-" + std::to_string(generation) + ".log";
}

void TafLocSystem::rotate_wal(std::uint64_t generation) {
  // Close (final fsync) the outgoing segment before opening the next.
  wal_.reset();
  // A stale segment with this generation's name can exist after a
  // fallback recovery (the dead timeline's future); it must not be
  // appended to, so start the segment from scratch.
  std::error_code ec;
  std::filesystem::remove(wal_segment_path(generation), ec);
  wal_ = std::make_unique<storage::WalWriter>(wal_segment_path(generation), next_seq_,
                                              durability_.wal_fsync_every);
  if (scheduler_ != nullptr) scheduler_->attach_wal(wal_.get());
  // Keep current + previous segments: falling back one snapshot
  // generation must still find every record past that snapshot.  While
  // an update is staged, keep everything -- its WAL record may live in
  // an older segment and must survive until a snapshot covers it; the
  // next unstaged rotation catches up on the deferred deletions.
  if (!staged_pending_) {
    while (oldest_wal_gen_ + 2 <= generation) {
      std::filesystem::remove(wal_segment_path(oldest_wal_gen_), ec);
      ++oldest_wal_gen_;
    }
  }
}

std::string TafLocSystem::encode_zone_payload() const {
  storage::ByteWriter w;
  w.put_u32(kZonePayloadVersion);
  database_->save(w);
  save_matrix_binary(lrr_->correlation(), w);
  w.put_size_span(reference_indices_);
  save_matrix_binary(mask_->undistorted, w);
  if (scheduler_ != nullptr) {
    w.put_u8(1);
    storage::ByteWriter sw;
    scheduler_->save(sw);
    const std::string blob = sw.take();
    w.put_u8_span(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()));
  } else {
    w.put_u8(0);
  }
  return w.take();
}

void TafLocSystem::install_zone_payload(std::string_view payload) {
  storage::ByteReader r(payload);
  const std::uint32_t version = r.get_u32();
  if (version != kZonePayloadVersion)
    throw std::runtime_error("zone payload: unsupported version " + std::to_string(version));
  FingerprintDatabase db = FingerprintDatabase::load(r);
  TafLocState state;
  state.fingerprints = db.fingerprints();
  state.ambient = db.ambient();
  state.surveyed_at_days = db.surveyed_at_days();
  state.correlation = load_matrix_binary(r);
  state.reference_indices = r.get_size_vector();
  state.mask_undistorted = load_matrix_binary(r);
  const bool has_scheduler_blob = r.get_u8() != 0;
  std::vector<std::uint8_t> scheduler_blob;
  if (has_scheduler_blob) scheduler_blob = r.get_u8_vector();
  r.expect_exhausted("zone payload");

  // import_state runs the full shape/consistency validation and
  // rebuilds every derived structure; the link-health state machine is
  // the one piece it resets, so restore it on top (shape already
  // verified against the deployment by the load above + import checks).
  import_state(state);
  database_->link_health() = db.link_health();

  if (has_scheduler_blob) {
    if (scheduler_ != nullptr) {
      storage::ByteReader sr(std::string_view(
          reinterpret_cast<const char*>(scheduler_blob.data()), scheduler_blob.size()));
      scheduler_->restore(sr);
      sr.expect_exhausted("scheduler blob");
    } else {
      TAFLOC_LOG_WARN << "snapshot carries scheduler state but no scheduler is "
                         "attached; its accumulators are dropped";
    }
  }
}

void TafLocSystem::save() {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  save_locked();
}

void TafLocSystem::save_locked() {
  TAFLOC_CHECK_STATE(durable(), "save() requires attach_durability()");
  TAFLOC_CHECK_STATE(calibrated(), "save() requires a calibrated system");
  if (wal_ != nullptr) {
    // Appends advance the writer's counter; resync ours so the
    // snapshot's covered-sequence stamp and the next segment's first
    // sequence line up with what is actually in the log.
    wal_->sync();
    next_seq_ = wal_->next_seq();
  }
  storage::SnapshotData snap;
  snap.generation = generation_ + 1;
  // Every record up to the stamp is reflected in the payload.  While an
  // update is staged but not committed, the payload is still the
  // pre-swap matrix, so coverage stops just before the staged kWalUpdate
  // record -- recovery replays the in-flight update instead of losing it
  // (a drain mid-recalibration depends on this).
  snap.sequence = (staged_pending_ && staged_seq_ != 0) ? staged_seq_ - 1 : next_seq_ - 1;
  snap.payload = encode_zone_payload();
  store_->commit(snap);
  generation_ = snap.generation;
  rotate_wal(generation_);
  if (telemetry_->enabled()) {
    telemetry_->counter("durability.snapshots").add();
    telemetry_->gauge("durability.generation").set(static_cast<double>(generation_));
    telemetry_->gauge("durability.sequence").set(static_cast<double>(snap.sequence));
  }
}

RecoveryReport TafLocSystem::recover() {
  TAFLOC_CHECK_STATE(durable(), "recover() requires attach_durability()");
  RecoveryReport report;
  const storage::SnapshotStore::LoadResult loaded = store_->load_latest();
  for (const std::string& err : loaded.errors) {
    TAFLOC_LOG_WARN << "snapshot slot rejected: " << err;
    if (!report.detail.empty()) report.detail += "; ";
    report.detail += err;
  }
  if (!loaded.snapshot.has_value()) {
    report.outcome = RecoveryReport::Outcome::kUnrecoverable;
    if (!report.detail.empty()) report.detail += "; ";
    report.detail += loaded.slots_rejected > 0 ? "every snapshot slot failed validation"
                                               : "no snapshot present";
    if (telemetry_->enabled())
      telemetry_->counter("durability.recovery.unrecoverable").add();
    return report;
  }

  const storage::SnapshotData& snap = *loaded.snapshot;
  install_zone_payload(snap.payload);  // throws on malformed payload.
  generation_ = snap.generation;
  next_seq_ = snap.sequence + 1;
  report.snapshot_generation = snap.generation;

  // Replay with re-logging and re-snapshotting suppressed; the replay
  // dispatches through the exact live entry points, so the recovered
  // state is bit-identical to the pre-crash one.
  if (scheduler_ != nullptr) scheduler_->attach_wal(nullptr);
  replaying_ = true;
  try {
    replay_wal(snap.sequence, report);
  } catch (...) {
    replaying_ = false;
    throw;
  }
  replaying_ = false;

  report.sequence = next_seq_ - 1;
  if (loaded.fell_back)
    report.outcome = RecoveryReport::Outcome::kFellBack;
  else if (report.replayed_records > 0)
    report.outcome = RecoveryReport::Outcome::kReplayed;
  else
    report.outcome = RecoveryReport::Outcome::kClean;

  // Epilogue: the recovered state becomes the newest generation, so the
  // next crash recovers from here instead of re-replaying history.
  save();

  if (telemetry_->enabled()) {
    telemetry_->counter(std::string("durability.recovery.") +
                        recovery_outcome_name(report.outcome))
        .add();
    telemetry_->counter("durability.recovery.replayed_records")
        .add(static_cast<std::uint64_t>(report.replayed_records));
    if (report.torn_wal_tail) telemetry_->counter("durability.recovery.torn_tail").add();
    if (report.corrupt_wal) telemetry_->counter("durability.recovery.corrupt_wal").add();
  }
  return report;
}

void TafLocSystem::replay_wal(std::uint64_t from_seq, RecoveryReport& report) {
  namespace fs = std::filesystem;
  // Collect records from every retained segment (current + previous
  // generation; after a fallback also the dead timeline's segment --
  // its records still carry valid sequence numbers past the snapshot).
  std::vector<storage::Frame> records;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(durability_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0 || name.size() < 9 ||
        name.compare(name.size() - 4, 4, ".log") != 0)
      continue;
    storage::WalReadResult segment = storage::read_wal(entry.path().string());
    if (segment.torn_tail) {
      report.torn_wal_tail = true;
      TAFLOC_LOG_WARN << name << ": " << segment.error;
    }
    if (segment.corrupt) {
      report.corrupt_wal = true;
      TAFLOC_LOG_WARN << name << ": " << segment.error;
      if (!report.detail.empty()) report.detail += "; ";
      report.detail += name + ": " + segment.error;
    }
    for (storage::Frame& frame : segment.records) records.push_back(std::move(frame));
  }
  std::sort(records.begin(), records.end(),
            [](const storage::Frame& a, const storage::Frame& b) { return a.seq < b.seq; });

  // Strictly sequential replay: a gap means the missing record's
  // durability is unknown (mid-segment corruption, deleted segment), so
  // nothing after it can be trusted either.
  std::uint64_t expected = from_seq + 1;
  for (const storage::Frame& frame : records) {
    if (frame.seq <= from_seq) {
      ++report.skipped_records;
      continue;
    }
    if (frame.seq != expected) {
      if (!report.detail.empty()) report.detail += "; ";
      report.detail += "sequence gap: expected " + std::to_string(expected) + ", found " +
                       std::to_string(frame.seq) + "; replay stopped";
      TAFLOC_LOG_WARN << "WAL " << report.detail;
      break;
    }
    switch (frame.type) {
      case kWalAmbient: {
        const AmbientRecord rec = decode_ambient_record(frame.payload);
        if (scheduler_ != nullptr)
          scheduler_->observe_ambient(rec.ambient, rec.t_days);
        else
          TAFLOC_LOG_WARN << "WAL ambient record " << frame.seq
                          << " dropped: no scheduler attached";
        break;
      }
      case kWalNotify: {
        AmbientRecord rec = decode_ambient_record(frame.payload);
        if (scheduler_ != nullptr)
          scheduler_->notify_updated(std::move(rec.ambient), rec.t_days);
        else
          TAFLOC_LOG_WARN << "WAL notify record " << frame.seq
                          << " dropped: no scheduler attached";
        break;
      }
      case kWalObserve: {
        const Vector rss = decode_observe_record(frame.payload);
        if (rss.size() != deployment_.num_links())
          throw std::runtime_error("WAL observe record: link count mismatch");
        database_->link_health().observe(rss);
        break;
      }
      case kWalUpdate: {
        UpdateRecord rec = decode_update_record(frame.payload);
        update(rec.reference_columns, std::move(rec.ambient), rec.t_days);
        break;
      }
      default: {
        if (!report.detail.empty()) report.detail += "; ";
        report.detail += "unknown WAL record type " + std::to_string(frame.type) + " at seq " +
                         std::to_string(frame.seq) + "; replay stopped";
        TAFLOC_LOG_WARN << "WAL " << report.detail;
        next_seq_ = expected;
        return;
      }
    }
    ++report.replayed_records;
    ++expected;
  }
  next_seq_ = expected;
}

std::string TafLocSystem::telemetry_snapshot_json() const {
  ThreadPool::global().sample_into(*telemetry_);
  return telemetry_->snapshot_json();
}

}  // namespace tafloc
